import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus, parse_presentation
from graphprod.presentation import Syllable, Word, WordError, parse_word, render_word
from graphprod.words import (
    BudgetExceededError,
    Element,
    brute_force_equal,
    canonical_form,
    conjugate,
    element_of,
    identity,
    invert,
    is_reduced_product,
    iter_ball,
    key_of_word,
    multiply,
    reduce,
    shape,
)
from graphprod.conjugacy import are_conjugate
from graphprod.cyclic import cyclically_reduce
from graphprod.selftest import ORACLE_BUDGET, check_equality, check_reduction

from oracles import (
    brute_force_equal_by_tuples,
    first_letters_by_enumeration,
    invert_by_syllable,
    key_of_word_by_syllable,
    last_letters_by_enumeration,
    lexicographic_least_shuffle,
    parse_word_by_syllables,
    right_angled_is_identity,
    shuffle_class,
    word_of_key,
)
from test_nonabelian import build_s3_path, push_presentations, s3_config, small_graph_product

PRESENTATIONS = corpus.corpus_presentations()


def words_strategy(pres, max_len=8, z_window=2):
    alphabet = corpus.syllable_alphabet(pres, z_window)
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(lambda syls: Word(tuple(syls)))


def test_reduce_examples(path_racg, free_zz, edge_zz):
    assert element_of(path_racg, "a[1] b[1] a[1]").render() == "b[1]"
    assert element_of(path_racg, "a[1] c[1] a[1]").render() == "a[1] c[1] a[1]"
    assert element_of(edge_zz, "x[1] y[2] x[-1]").render() == "y[2]"
    assert element_of(free_zz, "x[1] x[-1]").is_identity


def test_canonical_form_examples(path_racg):
    assert canonical_form(path_racg, parse_word(path_racg, "b[1] a[1]")) == parse_word(
        path_racg, "a[1] b[1]"
    )
    assert canonical_form(path_racg, parse_word(path_racg, "a[1] c[1]")) == parse_word(
        path_racg, "a[1] c[1]"
    )
    # least shuffle of (c, a, b): enumerate the whole class and compare
    key = key_of_word(path_racg, parse_word(path_racg, "c[1] a[1] b[1]"))
    least = word_of_key(path_racg, lexicographic_least_shuffle(path_racg, key))
    assert canonical_form(path_racg, parse_word(path_racg, "c[1] a[1] b[1]")) == least
    assert least == parse_word(path_racg, "b[1] c[1] a[1]")


def test_canonical_form_rejects_unreduced(path_racg):
    # a joinable pair, a trivial syllable, a pair that joins across a commuting syllable
    for text in ("a[1] a[1]", "b[2]", "a[1] b[1] a[1]"):
        with pytest.raises(WordError):
            canonical_form(path_racg, parse_word(path_racg, text))


def test_iter_ball_on_huge_cyclic_vertex_is_lazy():
    doc = {"vertices": [{"name": "x", "group": "cyclic 1000000000000"}], "edges": []}
    pres = parse_presentation(json.dumps(doc))
    start = time.perf_counter()
    first = list(itertools.islice(iter_ball(pres, 3), 10))
    assert time.perf_counter() - start < 1.0
    assert [Element(pres, key).render() for key in first] == ["1"] + [f"x[{i}]" for i in range(1, 10)]


def test_canonical_form_matches_least_shuffle_exhaustively(path_racg, star_racg):
    for pres in (path_racg, star_racg):
        for word in corpus.all_words(pres, 4):
            e = reduce(pres, word)
            assert e.key == lexicographic_least_shuffle(pres, e.key)


def test_shape_example_by_enumeration(path_racg):
    e = element_of(path_racg, "a[1] b[1] c[1]")
    report = shape(e)
    assert report.length == 3
    assert report.support == {"a", "b", "c"}
    assert report.first_letters == first_letters_by_enumeration(path_racg, e) == {"a", "b"}
    assert report.last_letters == last_letters_by_enumeration(path_racg, e) == {"b", "c"}


def test_shape_identity_and_single(free_zz):
    report = shape(identity(free_zz))
    assert (report.length, report.support, report.first_letters, report.last_letters) == (
        0,
        frozenset(),
        frozenset(),
        frozenset(),
    )
    single = shape(element_of(free_zz, "x[3]"))
    assert single.first_letters == single.last_letters == {"x"}


def test_multiply_invert_examples(path_racg, free_zz):
    a = element_of(path_racg, "a[1]")
    assert multiply(a, a).is_identity
    x2 = element_of(free_zz, "x[2]")
    y1 = element_of(free_zz, "y[1]")
    assert multiply(x2, y1).render() == "x[2] y[1]"
    assert is_reduced_product([x2, y1])
    assert invert(element_of(path_racg, "a[1] c[1]")).render() == "c[1] a[1]"


def test_is_reduced_product_examples(path_racg):
    a = element_of(path_racg, "a[1]")
    c = element_of(path_racg, "c[1]")
    assert is_reduced_product([a, c])
    assert not is_reduced_product([a, a])
    ab = element_of(path_racg, "a[1] b[1]")
    bc = element_of(path_racg, "b[1] c[1]")
    assert not is_reduced_product([ab, bc])
    assert len(multiply(ab, bc)) < len(ab) + len(bc)


def test_brute_force_equal_examples(path_racg):
    w = lambda t: parse_word(path_racg, t)
    assert brute_force_equal(path_racg, w("a[1] b[1]"), w("b[1] a[1]"), 10_000)
    assert not brute_force_equal(path_racg, w("a[1] c[1]"), w("c[1] a[1]"), 10_000)
    assert brute_force_equal(path_racg, w("a[1] c[1]"), w("a[1] c[1]"), 10_000)


def test_brute_force_budget_is_an_error(path_racg):
    w = parse_word(path_racg, "a[1] b[1] a[1] b[1] a[1] b[1]")
    with pytest.raises(BudgetExceededError):
        brute_force_equal(path_racg, w, w, 2)
    with pytest.raises(ValueError):
        brute_force_equal(path_racg, w, w, 0)


def normal_forms_oracle_inputs(seed):
    """(pres, w1, w2) for each oracle call of the selftest's normal_forms suite."""
    rng = random.Random(seed)
    for pres in corpus.corpus_presentations().values():
        words = corpus.random_words(pres, 100, 8, seed=rng.randrange(1 << 30))
        yield from ((pres, w, Word(())) for w in words if len(w) <= 6)
        for _ in range(40):
            w1, w2 = rng.choice(words), rng.choice(words)
            if len(w1) + len(w2) <= 10:
                yield pres, w1, w2


def pairs_with_trivial_syllables(pres, rng, count, max_len):
    """count random (w1, w2) of at most max_len syllables in all, over every
    value of each finite vertex group (the identity too) and the exponents
    -2..2, each followed by the front of w1 and a shuffle of it (an equal pair)."""
    alphabet = [
        Syllable(v, g.decode(k))
        for v, g in pres.groups.items()
        for k in (range(-2, 3) if g.order is None else range(g.order))
    ]
    for _ in range(count):
        n1 = rng.randint(0, max_len)
        w1 = Word(tuple(rng.choices(alphabet, k=n1)))
        yield pres, w1, Word(tuple(rng.choices(alphabet, k=rng.randint(0, max_len - n1))))
        front = Word(w1.syllables[: max_len // 2])
        yield pres, front, corpus.shuffled_variant(pres, front, rng)


def test_string_states_search_the_tuple_closure(path_racg):
    """brute_force_equal gives the tuple-state reference's answer, and the
    reference's count E of explored states is its budget boundary: it answers
    at budget E and gives up at E - 1."""
    rng = random.Random(5)
    inputs = list(itertools.islice(normal_forms_oracle_inputs(0), 0, None, 3))
    for pres in (
        build_s3_path(),
        small_graph_product(("Z2", "Z3"), False),
        small_graph_product(("Z3", "Z3"), True),
        small_graph_product(("Z1", "Z2"), False),
        small_graph_product(("Z1", "S3"), True),
        push_presentations()["complete"],  # every swap applies, so commuting diamonds are deepest
    ):
        inputs += pairs_with_trivial_syllables(pres, rng, 20, 7)
    w = lambda text: parse_word(path_racg, text)
    inputs += [(path_racg, w(a), w(b)) for a, b in [("a[0]", ""), ("a[0] a[0]", ""), ("", ""), ("a[0]", "b[0] a[1]")]]
    for pres, w1, w2 in inputs:
        equal, explored = brute_force_equal_by_tuples(pres, w1, w2, ORACLE_BUDGET)
        assert brute_force_equal(pres, w1, w2, max(explored, 1)) == equal, (render_word(pres, w1), render_word(pres, w2))
        if explored > 1:
            with pytest.raises(BudgetExceededError):
                brute_force_equal(pres, w1, w2, explored - 1)


def test_brute_force_code_space_is_an_unknown(path_racg, monkeypatch):
    # a state holds one character per distinct syllable; past the last
    # character the closure is undecided, never an answer
    w = parse_word(path_racg, "a[1] b[1] c[1]")
    monkeypatch.setattr(sys, "maxunicode", 1)
    with pytest.raises(BudgetExceededError, match="characters"):
        brute_force_equal(path_racg, w, w, 100)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_reduce_contracts_on_random_words(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(11)
    for _ in range(150):
        check_reduction(pres, corpus.random_word(pres, rng, 9))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_equality_agrees_with_rewriting_closure(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(23)
    words = [corpus.random_word(pres, rng, 5) for _ in range(60)]
    for _ in range(120):
        check_equality(pres, rng.choice(words), rng.choice(words))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_fl_ll_duality(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    e = reduce(pres, data.draw(words_strategy(pres)))
    assert shape(e).first_letters == shape(invert(e)).last_letters


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_multiply_associative_on_canonical_forms(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    strat = words_strategy(pres, max_len=5)
    a, b, c = (reduce(pres, data.draw(strat)) for _ in range(3))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_inverse_cancels(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    e = reduce(pres, data.draw(words_strategy(pres)))
    assert multiply(e, invert(e)).is_identity
    assert multiply(invert(e), e).is_identity


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_render_parse_roundtrip(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    word = data.draw(words_strategy(pres))
    assert parse_word(pres, render_word(pres, word)) == word


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_shape_matches_enumeration(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    e = reduce(pres, data.draw(words_strategy(pres, max_len=6)))
    report = shape(e)
    assert report.first_letters == first_letters_by_enumeration(pres, e)
    assert report.last_letters == last_letters_by_enumeration(pres, e)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_canonical_form_constant_on_shuffle_class(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    e = reduce(pres, data.draw(words_strategy(pres, max_len=6)))
    for variant in shuffle_class(pres, e.key):
        assert reduce(pres, word_of_key(pres, variant)) == e


def test_ball_enumeration_census(edge_zz, free_zz, path_racg):
    # direct product of two copies of Z mod nothing: pairs of exponents
    b = list(iter_ball(edge_zz, 3, window=3))
    assert len(b) == 49  # all (i, j) with |i|, |j| <= 3
    assert len(set(b)) == 49

    # free product: alternating words, 4 exponent choices per syllable
    b2 = list(iter_ball(free_zz, 2, window=2))
    assert len(b2) == 1 + 8 + 32

    # C2 x infinite-dihedral: four elements per positive length
    b3 = list(iter_ball(path_racg, 6))
    assert len(b3) == 1 + 3 + 4 * 5

    # vertex-restricted balls live in the full subgroup
    b4 = list(iter_ball(free_zz, 3, window=3, vertices={"x"}))
    assert all(Element(free_zz, key).support() <= {"x"} for key in b4)
    assert len(b4) == 7  # x-exponents in [-3, 3]


def test_compare_centralizer_reports_every_disagreement(path_racg):
    from graphprod.words import _compare_centralizer

    # C(a) = <a, b> = {1, a, b, ab} in C2 x infinite-dihedral
    g = element_of(path_racg, "a[1]")
    elements = [Element(path_racg, key) for key in iter_ball(path_racg, 4)]
    commuting = tuple(u for u in elements if multiply(u, g) == multiply(g, u))
    assert sorted(u.render() for u in commuting) == ["1", "a[1]", "a[1] b[1]", "b[1]"]

    def compare(predicted):
        return _compare_centralizer(g, 4, predicted)

    size, members, violations = compare(lambda u, centralizes: False)
    assert size == len(elements) == 16
    assert members == violations == commuting
    assert identity(path_racg) in violations
    others = tuple(u for u in elements if u not in commuting)
    assert compare(lambda u, centralizes: True) == (size, commuting, others)
    assert compare(lambda u, centralizes: centralizes) == (size, commuting, ())


def test_ball_window_must_be_nonnegative(free_zz, path_racg):
    with pytest.raises(ValueError, match="window must be nonnegative"):
        list(iter_ball(free_zz, 2, window=-1))
    # window 0 leaves no integer syllables; finite vertex groups keep theirs
    assert list(iter_ball(free_zz, 2, window=0)) == [()]
    assert list(iter_ball(path_racg, 6, window=0)) == list(iter_ball(path_racg, 6))


def translation_presentations():
    """Every tests/data presentation, S3 -- C2 -- Z, and a cyclic 1 vertex beside a Z one."""
    data = Path(__file__).parent / "data"
    named = {path.stem: parse_presentation(path.read_text()) for path in sorted(data.glob("*.json"))}
    named["s3-path"] = build_s3_path()
    named["s3-cyclic-1"] = parse_presentation(
        json.dumps(
            {
                "vertices": [{"name": "g", "group": s3_config()}, {"name": "o", "group": "cyclic 1"}],
                "edges": [["g", "o"]],
            }
        )
    )
    named["cyclic-1-z"] = parse_presentation(
        json.dumps({"vertices": [{"name": "o", "group": "cyclic 1"}, {"name": "z", "group": "Z"}], "edges": []})
    )
    return named


def translation_words(pres, length, repeated, rng):
    """A word of the given length: its syllables as distinct as the vertex groups
    allow (integer values are all distinct), or drawn from two per vertex with
    an int subclass among them, so most positions repeat an earlier one."""
    count = type("Count", (int,), {})
    alphabet = []
    for v in pres.vertices:
        group = pres.groups[v]
        if group.kind == "table":
            names = list(group.elements)
            alphabet += [Syllable(v, name) for name in (names[:2] if repeated else names)]
        elif repeated:
            alphabet += [Syllable(v, 1), Syllable(v, count(1))]
        else:
            alphabet += [Syllable(v, value) for value in range(-length, length + 1)]
    if repeated:
        return Word(tuple(rng.choice(alphabet) for _ in range(length)))
    rng.shuffle(alphabet)
    return Word(tuple(alphabet[i % len(alphabet)] for i in range(length)))


def typed(pairs):
    return [(a, b, type(b)) for a, b in pairs]


def test_translation_matches_the_per_syllable_loops():
    # encode, decode, invert and parse against the loops they replaced, value types included
    rng = random.Random(31)
    for name, pres in translation_presentations().items():
        for length in (0, 1, 30, 3000):
            for repeated in (False, True):
                word = translation_words(pres, length, repeated, rng)
                key = key_of_word(pres, word)
                assert typed(key) == typed(key_of_word_by_syllable(pres, word)), (name, length, repeated)
                e = reduce(pres, word)
                assert typed(e.word().syllables) == typed(word_of_key(pres, e.key).syllables)
                assert typed(invert(e).key) == typed(invert_by_syllable(e).key)
                text = render_word(pres, word)
                parsed = parse_word_by_syllables(pres, text)
                assert typed(parse_word(pres, text).syllables) == typed(parsed.syllables)
                assert element_of(pres, text) == reduce(pres, parsed)


def test_right_angled_groups_match_the_linear_oracle():
    # keys against an oracle that does no rewriting: equal keys exactly when
    # u v^-1 acts trivially, and every product, inverse, canonical form,
    # cyclic reduction and conjugator acts as the element it stands for
    rng = random.Random(23)
    equal = unequal = 0
    for group in ("cyclic 2", "Z"):
        names = [f"v{i}" for i in range(6)]
        edges = [[u, v] for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.4]
        vertices = [{"name": v, "group": group} for v in names]
        pres = parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))
        alphabet = corpus.syllable_alphabet(pres, 2)  # Z exponents of size at most 2

        def random_word(length):
            return Word(tuple(rng.choice(alphabet) for _ in range(length)))

        def pairs(x):
            return [(s.vertex, s.value) for s in (x if isinstance(x, Word) else x.word()).syllables]

        def inverse(x):
            return [(v, -k) for v, k in reversed(pairs(x))]

        def trivial(*parts):
            return right_angled_is_identity(pres, [s for part in parts for s in part])

        for length in [0, 1, 2, 3, 5, 8, 13, 30, 100, 300, 1000, 3000] * 2:
            w = random_word(length)
            u = reduce(pres, w)
            assert trivial(pairs(w), inverse(u))
            x = random_word(rng.randint(0, 20))
            at = rng.randint(0, length)
            padded = Word(w.syllables[:at] + x.syllables + tuple(Syllable(*s) for s in inverse(x)) + w.syllables[at:])
            changed = list(w.syllables)
            if changed:
                changed[rng.randrange(length)] = rng.choice(alphabet)
            for other in (corpus.shuffled_variant(pres, w, rng), padded, Word(tuple(changed)), random_word(length)):
                v = reduce(pres, other)
                same = u.key == v.key
                assert same == trivial(pairs(u), inverse(v))
                equal += same
                unequal += not same
                assert trivial(pairs(u), pairs(other), inverse(multiply(u, v)))
            assert trivial(pairs(invert(u)), pairs(u))
            form = canonical_form(pres, corpus.shuffled_variant(pres, u.word(), rng))
            assert len(form) == len(u) and trivial(pairs(form), inverse(u))
            core, conjugator = cyclically_reduce(u)
            assert trivial(pairs(conjugator), pairs(core), inverse(conjugator), inverse(u))
            if length > 300:
                continue  # the rotation closure is quadratic in the length
            f = conjugate(reduce(pres, random_word(rng.randint(0, 30))), u)
            for target in (f, v):
                verdict = are_conjugate(u, target)
                assert verdict.conjugate or target is v
                if verdict.conjugate:
                    b = verdict.conjugator
                    assert trivial(pairs(b), pairs(u), inverse(b), inverse(target))
    assert equal >= 60 and unequal >= 60
