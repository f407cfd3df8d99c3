import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus, parse_presentation
from graphprod.presentation import Syllable, Word, parse_word, presentation_from_config, render_word
from graphprod.words import conjugate, element_of, identity, invert, multiply, reduce
from graphprod.cyclic import cyclic_permutation_conjugators, cyclically_reduce
from graphprod.amalgam import (
    AmalgamError,
    SigmaAmalgam,
    SubgroupConjugacy,
    amalgam_conjugate_by,
    amalgam_form,
    amalgam_form_of_word,
    centralizer_check,
    conjugator_classify,
    consonant_leading_form,
    decompose_at,
    is_amalgam_cyclically_reduced,
    multiply_out,
)
from graphprod.selftest import check_centralizer, check_centralizer_split, check_consonants

from oracles import (
    alternating_form_by_restarts,
    ball_elements,
    centralizer_product_prediction_by_multiply,
    conjugate_by_coset_criterion,
)
from test_nonabelian import build_s3_path, s3_config
from test_parabolic import PENTAGON

PRESENTATIONS = corpus.corpus_presentations()


def words_strategy(pres, max_len=6):
    alphabet = corpus.syllable_alphabet(pres, 2)
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(lambda s: Word(tuple(s)))


def test_decompose_examples(path_racg, free_zz):
    view = decompose_at(path_racg, "c")
    assert view.a_vertices == {"a", "b"}
    assert view.h_vertices == {"b"}

    isolated = decompose_at(free_zz, "y")
    assert isolated.h_vertices == frozenset()

    edge = parse_presentation(
        json.dumps({"vertices": [{"name": "a", "group": "Z"}, {"name": "b", "group": "Z"}], "edges": [["a", "b"]]})
    )
    central = decompose_at(edge, "b")
    assert central.h_vertices == {"a"} == central.a_vertices


def test_decompose_errors(path_racg, single_z):
    with pytest.raises(Exception):
        decompose_at(path_racg, "zz")
    with pytest.raises(AmalgamError):
        decompose_at(single_z, "x")


def test_amalgam_form_examples(path_racg):
    view = decompose_at(path_racg, "c")
    e = element_of(path_racg, "a[1] c[1] a[1] c[1]")
    form = amalgam_form(view, e)
    assert form.consonant_length == 2
    assert [p.render() for p in form.x_pieces] == ["a[1]", "a[1]", "1"]
    assert form.consonants == (1, 1)
    assert multiply_out(view, form) == e

    collapsed = amalgam_form(view, element_of(path_racg, "b[1] c[1] b[1]"))
    assert collapsed.consonant_length == 1
    assert all(p.is_identity for p in collapsed.x_pieces)

    inside = amalgam_form(view, element_of(path_racg, "a[1] b[1]"))
    assert inside.consonant_length == 0
    assert inside.x_pieces[0].render() == "a[1] b[1]"


def test_cancelled_consonant_merges_its_neighbours_first():
    # the middle apex run cancels, so v1[2] and v1[1] meet in one piece and
    # cancel too; folding v1[2] into x0 first would leave x-pieces v1[2], v1[1]
    doc = {"vertices": [{"name": "v0", "group": "Z"}, {"name": "v1", "group": "cyclic 3"}], "edges": [["v0", "v1"]]}
    pres = parse_presentation(json.dumps(doc))
    word = parse_word(pres, "v0[2] v0[1] v1[1] v1[1] v0[-1] v0[1] v1[1]")
    form = amalgam_form_of_word(decompose_at(pres, "v0"), word)
    assert [p.render() for p in form.x_pieces] == ["1", "1"]
    assert form.consonants == (3,)


def test_cyclically_reduced_form_examples(path_racg):
    view = decompose_at(path_racg, "c")
    form = lambda t: amalgam_form(view, element_of(path_racg, t))
    assert is_amalgam_cyclically_reduced(view, form("c[1] a[1] c[1] a[1]"))
    assert is_amalgam_cyclically_reduced(view, form("c[1] b[1]"))
    assert not is_amalgam_cyclically_reduced(view, form("c[1] a[1] c[1] b[1]"))
    assert not is_amalgam_cyclically_reduced(view, form("a[1] c[1] a[1]"))
    assert not is_amalgam_cyclically_reduced(view, form("a[1] b[1]"))


def test_conjugator_classify_cases(path_racg):
    view = decompose_at(path_racg, "c")
    g = element_of(path_racg, "c[1] a[1]")
    gform = consonant_leading_form(view, g)

    trivial = conjugator_classify(view, gform, gform, identity(path_racg))
    assert trivial.case == "a" and trivial.h.is_identity

    h_case = conjugator_classify(view, gform, gform, element_of(path_racg, "b[1]"))
    assert h_case.case == "a" and h_case.h == element_of(path_racg, "b[1]")

    # conjugating by the inverse of the first block rotates the element
    p = element_of(path_racg, "c[1] a[1]")
    rotated = conjugate(invert(p), g)
    rform = consonant_leading_form(view, rotated)
    got = conjugator_classify(view, gform, rform, invert(p))
    assert got.case == "b"
    assert conjugate(invert(p), g) == multiply_out(view, rform)

    self_case = conjugator_classify(view, gform, gform, g)
    assert self_case.case in ("b", "c")
    # the recovered decomposition reassembles to u = g
    from graphprod.words import power

    if self_case.case == "c":
        assert multiply(multiply(self_case.h, self_case.piece), power(g, self_case.exponent)) == g
    else:
        assert multiply(multiply(self_case.h, invert(self_case.piece)), power(g, -self_case.exponent)) == g


def test_classify_rejects_non_conjugator(path_racg):
    view = decompose_at(path_racg, "c")
    g = element_of(path_racg, "c[1] a[1]")
    gform = consonant_leading_form(view, g)
    with pytest.raises(AmalgamError):
        conjugator_classify(view, gform, gform, element_of(path_racg, "a[1]"))


def test_conjugate_by_examples(path_racg):
    view = decompose_at(path_racg, "c")
    g = element_of(path_racg, "c[1] a[1]")
    same = amalgam_conjugate_by(view, view.a_vertices, g, g, 4)
    assert same.status == "yes" and conjugate(same.conjugator, g) == g

    different = amalgam_conjugate_by(
        view, view.a_vertices, element_of(path_racg, "c[1] a[1] c[1] a[1]"), g, 4
    )
    assert different.status == "no" and different.failed_condition == 1

    via_piece = amalgam_conjugate_by(
        view, {"b"}, element_of(path_racg, "b[1] c[1]"), element_of(path_racg, "c[1]"), 4
    )
    assert via_piece.status == "no" and via_piece.failed_condition == 2


def test_conjugate_by_finds_h_witnesses(path_racg, star_racg):
    for pres, apex in ((path_racg, "c"), (star_racg, "c")):
        view = decompose_at(pres, apex)
        rng = random.Random(3)
        found = 0
        for _ in range(40):
            g = reduce(pres, corpus.random_word(pres, rng, 5))
            if amalgam_form(view, g).consonant_length < 1:
                continue
            h = reduce(pres, Word(tuple(corpus.random_word(pres, rng, 2).syllables)))
            if not h.support() <= view.h_vertices:
                continue
            f = conjugate(h, g)
            answer = amalgam_conjugate_by(view, view.h_vertices, f, g, 4)
            assert answer.status == "yes"
            assert conjugate(answer.conjugator, g) == f
            found += 1
        assert found > 0


def test_conjugacy_transfer_through_rotations(path_racg):
    # elements conjugate in the group are H-conjugate after some rotation
    view = decompose_at(path_racg, "c")
    rng = random.Random(9)
    checked = 0
    for _ in range(60):
        g = cyclically_reduce(reduce(path_racg, corpus.random_word(path_racg, rng, 5))).reduced
        w = reduce(path_racg, corpus.random_word(path_racg, rng, 3))
        f = cyclically_reduce(conjugate(w, g)).reduced
        form = amalgam_form(view, g)
        if form.consonant_length < 1:
            continue
        hits = [
            rotated
            for rotated in cyclic_permutation_conjugators(g)
            if amalgam_conjugate_by(view, view.h_vertices, f, rotated, 6).status == "yes"
        ]
        assert hits, f"no rotation of {g.render()} is H-conjugate to {f.render()}"
        checked += 1
    assert checked > 10


def test_centralizer_product_case(path_racg):
    view = decompose_at(path_racg, "c")
    report = centralizer_check(view, element_of(path_racg, "c[1] b[1]"), 4)
    assert report.kind == "product" and report.ok
    rendered = sorted(e.render() for e in report.centralizer)
    assert rendered == ["1", "b[1]", "b[1] c[1]", "c[1]"]


def test_centralizer_rotation_case(path_racg):
    view = decompose_at(path_racg, "c")
    g = element_of(path_racg, "c[1] a[1]")
    report = centralizer_check(view, g, 4)
    assert report.kind == "rotations" and report.ok and not report.unresolved
    assert g in report.centralizer
    for omega in report.omega.omega:
        assert conjugate(omega, g) == g
    for h, p in zip(report.omega.matched, report.omega.prefixes):
        assert conjugate(multiply(h, invert(p)), g) == g


def test_centralizer_check_c3_variants():
    for config in (corpus.PATH_C3_END, corpus.PATH_C3_MID):
        pres = presentation_from_config(config)
        view = decompose_at(pres, "c")
        for text in ("c[1] b[1]", "c[1] a[1]", "c[1] a[1] c[1] a[1]"):
            g = element_of(pres, text)
            form = amalgam_form(view, g)
            if not is_amalgam_cyclically_reduced(view, consonant_leading_form(view, g)):
                continue
            report = centralizer_check(view, g, 3)
            assert report.ok, f"violations for {text}: {report.violations}"


def product_branch_cases():
    # every apex of the corpus with g = one apex syllable, alone or times one
    # syllable of its link, plus the pentagon's at radius 4
    presentations = {**PRESENTATIONS, "path-c3-end": presentation_from_config(corpus.PATH_C3_END)}
    presentations["path-c3-mid"] = presentation_from_config(corpus.PATH_C3_MID)
    for name, pres in sorted(presentations.items()):
        first = {}
        for s in corpus.syllable_alphabet(pres):
            first.setdefault(s.vertex, s)
        for apex in pres.vertices:
            for x in [None, *sorted(pres.graph.link(apex))]:
                word = Word((first[apex],) if x is None else (first[apex], first[x]))
                yield pytest.param(pres, apex, word, 3, id=f"{name}-{render_word(pres, word)}")
    for text in ("p0[1]", "p0[2] p1[1]"):
        yield pytest.param(PENTAGON, "p0", parse_word(PENTAGON, text), 4, id=f"pentagon-{text}")


@pytest.mark.parametrize("pres, apex, word, radius", product_branch_cases())
def test_product_branch_matches_the_multiplied_predictions(pres, apex, word, radius):
    # on the star G_apex x G_H the walk's verdicts are the predictions that
    # multiplied each factor with g's: the same reports, field by field
    view = decompose_at(pres, apex)
    g = reduce(pres, word)
    report = centralizer_check(view, g, radius)
    assert report.kind == "product" and report.ok
    assert report == centralizer_product_prediction_by_multiply(view, g, radius)


def test_i_formula_on_ball(path_racg):
    # centralizing ball elements of the A-side coincide with the coset intersection
    check_centralizer(decompose_at(path_racg, "c"), element_of(path_racg, "c[1] a[1]"), 4)


def test_consonant_invariance_under_shuffles(all_presentations):
    rng = random.Random(17)
    for name, pres in all_presentations.items():
        for apex in pres.vertices:
            view = decompose_at(pres, apex)
            for _ in range(60):
                w = corpus.random_word(pres, rng, 7)
                check_consonants(view, w, corpus.shuffled_variant(pres, w, rng))



def test_consonants_are_apex_syllables(all_presentations):
    # two apex syllables with only link syllables between them would join
    rng = random.Random(23)
    for pres in [*all_presentations.values(), build_s3_path()]:
        elements = corpus.corpus_elements(pres, max_len=4)
        elements += [reduce(pres, corpus.random_word(pres, rng, 9)) for _ in range(60)]
        for apex in pres.vertices:
            view = decompose_at(pres, apex)
            for e in elements:
                apex_syllables = sum(vi == view.apex_index for vi, _ in e.key)
                assert amalgam_form(view, e).consonant_length == apex_syllables, (apex, e.render())


@pytest.mark.parametrize("name, apex", [("s3-path", "g"), ("triangle-mixed", "u")])
def test_consonants_are_apex_keys(name, apex):
    # on a table apex a key is an index, not the element's name
    pres = build_s3_path() if name == "s3-path" else PRESENTATIONS[name]
    view = decompose_at(pres, apex)
    keys = pres.groups[apex].nontrivial_keys()
    rng = random.Random(29)
    elements = corpus.corpus_elements(pres, max_len=4)
    elements += [reduce(pres, corpus.random_word(pres, rng, 9)) for _ in range(60)]
    leading = 0
    for e in elements:
        form = amalgam_form(view, e)
        assert all(type(c) is int and c in keys for c in form.consonants), (e.render(), form.consonants)
        if form.consonants and form.x_pieces[0].support() <= view.h_vertices:
            assert multiply_out(view, consonant_leading_form(view, e)) == e
            leading += 1
    assert leading


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_form_multiplies_back(data):
    name = data.draw(st.sampled_from(sorted(PRESENTATIONS)))
    pres = PRESENTATIONS[name]
    apex = data.draw(st.sampled_from(sorted(pres.vertices)))
    view = decompose_at(pres, apex)
    e = reduce(pres, data.draw(words_strategy(pres)))
    form = amalgam_form(view, e)
    assert multiply_out(view, form) == e
    for piece in form.x_pieces:
        assert piece.support() <= view.a_vertices
    for i, piece in enumerate(form.x_pieces[1:-1], start=1):
        assert not piece.support() <= view.h_vertices


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_nontrivial_forms_are_nontrivial_elements(data):
    name = data.draw(st.sampled_from(sorted(PRESENTATIONS)))
    pres = PRESENTATIONS[name]
    apex = data.draw(st.sampled_from(sorted(pres.vertices)))
    view = decompose_at(pres, apex)
    e = reduce(pres, data.draw(words_strategy(pres)))
    if amalgam_form(view, e).consonant_length >= 1:
        assert not e.is_identity


# --- the sigma map -----------------------------------------------------------


def c2_pres(name):
    return parse_presentation(json.dumps({"vertices": [{"name": name, "group": "cyclic 2"}], "edges": []}))


def test_sigma_free_product_of_c2s():
    sig = SigmaAmalgam(c2_pres("qa"), c2_pres("sb"), [])
    w = element_of(sig.presentation, "qa[1] sb[1] qa[1] sb[1]")
    q_img, s_img = sig.sigma(w)
    assert q_img.is_identity and s_img.is_identity
    k = sig.kernel_element_from(w)
    assert k == w  # already in the kernel
    report = sig.kernel_sample_check(corpus.random_words(sig.presentation, 60, 6, 2))
    assert report.ok and report.nontrivial > 0


def test_sigma_on_factor_elements():
    q = parse_presentation(
        json.dumps(
            {
                "vertices": [{"name": "q1", "group": "cyclic 2"}, {"name": "q2", "group": "cyclic 3"}],
                "edges": [["q1", "q2"]],
            }
        )
    )
    sig = SigmaAmalgam(q, c2_pres("s1"), ["q1"])
    r = element_of(sig.presentation, "q1[1]")
    q_img, s_img = sig.sigma(r)
    assert q_img.render() == "q1[1]" and s_img.is_identity
    # sigma is a homomorphism
    a = element_of(sig.presentation, "q2[1] s1[1]")
    b = element_of(sig.presentation, "s1[1] q1[1] q2[2]")
    qa, sa = sig.sigma(a)
    qb, sb = sig.sigma(b)
    qab, sab = sig.sigma(multiply(a, b))
    assert qab == multiply(qa, qb) and sab == multiply(sa, sb)
    report = sig.kernel_sample_check(corpus.random_words(sig.presentation, 60, 6, 5))
    assert report.ok


def test_kernel_sample_check_fails_cores_conjugate_into_a_factor(monkeypatch):
    # with the kernel correction switched off, the failures are exactly the
    # nontrivial samples whose cyclically reduced core lies in Q or in R u S
    vertices = [{"name": "q1", "group": "cyclic 2"}, {"name": "q2", "group": "cyclic 3"}]
    q = parse_presentation(json.dumps({"vertices": vertices, "edges": []}))
    sig = SigmaAmalgam(q, c2_pres("s1"), ["q1"])
    monkeypatch.setattr(sig, "kernel_element_from", lambda w: w)
    pres = sig.presentation
    texts = ["1", "q2[1] s1[1] q2[2]", "q1[1] s1[1]", "q2[1] q1[1]", "q2[1] s1[1]"]
    report = sig.kernel_sample_check([parse_word(pres, text) for text in texts])
    assert report == (5, 4, tuple(element_of(pres, text) for text in texts[1:4]))


def random_sigma_amalgam(rng):
    def side(prefix):
        names = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
        groups = ["cyclic 2", "cyclic 3", s3_config()]
        vertices = [{"name": v, "group": rng.choice(groups)} for v in names]
        edges = [[u, v] for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.5]
        return parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))

    q = side("q")
    return SigmaAmalgam(q, side("s"), rng.sample(q.vertices, rng.randint(0, len(q.vertices))))


def test_sigma_cores_keep_a_consonant_exactly_when_they_have_an_s_syllable():
    # the support test of kernel_sample_check stands in for the consonant count
    # of the splitting over S with H-side R, which the restart oracle computes
    rng = random.Random(37)
    with_s = without_s = 0
    for _ in range(100):
        sig = random_sigma_amalgam(rng)
        pres = sig.presentation
        for w in corpus.random_words(pres, 10, 10, rng.randrange(1 << 30)):
            e = reduce(pres, w)
            for g in (e, sig.kernel_element_from(e)):
                core = cyclically_reduce(g).reduced
                _, cs = alternating_form_by_restarts(pres, sig.s_ids, sig.r_ids, core.key)
                has_s = any(vi in sig.s_ids for vi, _ in core.key)
                assert bool(cs) == has_s
                with_s += has_s
                without_s += not has_s
    assert with_s > 500 and without_s > 500


def test_sigma_rejects_infinite_factors(free_zz):
    with pytest.raises(AmalgamError, match="finite"):
        SigmaAmalgam(free_zz, c2_pres("s1"), [])


def test_sigma_rejects_bad_r():
    with pytest.raises(AmalgamError, match="subset"):
        SigmaAmalgam(c2_pres("qa"), c2_pres("sb"), ["nope"])


@pytest.fixture(scope="module")
def wide_h():
    # link(c) = {h1, h2} with h1, h2 non-adjacent: the H-side is infinite
    doc = {
        "vertices": [
            {"name": "c", "group": "cyclic 2"},
            {"name": "h1", "group": "cyclic 2"},
            {"name": "h2", "group": "cyclic 2"},
            {"name": "a", "group": "cyclic 2"},
        ],
        "edges": [["c", "h1"], ["c", "h2"]],
    }
    return parse_presentation(json.dumps(doc))


def test_conjugate_by_exhaustion_is_unknown_not_no(wide_h):
    view = decompose_at(wide_h, "c")
    g = element_of(wide_h, "c[1] a[1]")
    f = conjugate(element_of(wide_h, "h1[1] h2[1] h1[1]"), g)
    # the H-side is infinite, so a radius that reaches its vertex count refutes nothing
    for radius in (1, 2):
        assert amalgam_conjugate_by(view, view.h_vertices, f, g, radius).status == "unknown"
    found = amalgam_conjugate_by(view, view.h_vertices, f, g, 3)
    assert found.status == "yes"
    assert found.conjugator == element_of(wide_h, "h1[1] h2[1] h1[1]")


def test_centralizer_check_reports_unresolved_prefixes(wide_h):
    view = decompose_at(wide_h, "c")
    g = element_of(wide_h, "c[1] h1[1] h2[1] a[1] h2[1] h1[1] c[1] a[1]")
    report = centralizer_check(view, g, 1)
    assert report.unresolved  # the middle rotation cannot be settled at this radius
    assert report.ok  # an unresolved prefix excuses every centralizing element left unfactored
    for omega in report.omega.omega:
        assert conjugate(omega, g) == g


def test_an_unresolved_prefix_excuses_what_it_would_factor(path_racg, monkeypatch):
    # No input found so far has a ball element that only an unresolved prefix
    # would factor, so the rotation search is made to give up after the first.
    from graphprod import amalgam

    view = decompose_at(path_racg, "c")
    g = element_of(path_racg, "c[1] a[1] c[1] a[1]")
    root = element_of(path_racg, "c[1] a[1]")
    full = centralizer_check(view, g, 4)
    assert full.ok and not full.unresolved and root in full.centralizer

    calls = []

    def first_only(*args):
        calls.append(args)
        if len(calls) > 1:
            return amalgam.SubgroupConjugacy("unknown", None, None)
        return amalgam_conjugate_by(*args)

    monkeypatch.setattr(amalgam, "amalgam_conjugate_by", first_only)
    report = centralizer_check(view, g, 4)
    assert report.unresolved == (1, 2)
    assert report.omega.omega == (identity(path_racg),)
    # only the prefix c a factors the root c a; the unresolved prefix excuses it
    assert root in report.centralizer and report.ok


def test_conjugate_by_exhausting_a_finite_h_side_is_no():
    # the H-side at apex c is G_b = Z/2: a ball of radius >= 1 is all of it
    pres = presentation_from_config(corpus.PATH_C3_END)
    view = decompose_at(pres, "c")
    g = element_of(pres, "c[1] a[1] c[1] a[2]")
    rotated = element_of(pres, "c[1] a[2] c[1] a[1]")
    assert amalgam_conjugate_by(view, view.h_vertices, g, rotated, 0) == SubgroupConjugacy("unknown", None, None)
    for radius in (1, 4):
        assert amalgam_conjugate_by(view, view.h_vertices, g, rotated, radius) == SubgroupConjugacy("no", None, 3)
    assert amalgam_conjugate_by(view, view.h_vertices, g, g, 0).status == "yes"


def test_conjugate_by_reaches_b_conjugators_beyond_the_radius():
    # H = link(z) is empty, so the only candidate is b = y0 x0^-1 = x[4],
    # which a B-ball of radius 1-3 (exponents up to 3) cannot reach
    doc = {"vertices": [{"name": v, "group": "Z"} for v in "xyz"], "edges": []}
    pres = parse_presentation(json.dumps(doc))
    view = decompose_at(pres, "z")
    g = element_of(pres, "y[3] z[2]")
    f = element_of(pres, "x[4] y[3] z[2] x[-4]")
    for radius in (1, 2, 3):
        assert conjugate_by_coset_criterion(view, {"x"}, f, g, radius).status == "unknown"
        answer = amalgam_conjugate_by(view, {"x"}, f, g, radius)
        assert answer.status == "yes" and answer.conjugator.render() == "x[4]"


def _random_element(rng, pres, vertices, length, reach):
    """A product of `length` random syllables on the vertices, Z exponents in [-reach, reach]."""
    syllables = []
    for v in rng.choices(sorted(vertices), k=length if vertices else 0):
        group = pres.groups[v]
        if group.kind == "Z":
            value = rng.choice([e for e in range(-reach, reach + 1) if e])
        else:
            value = group.decode(rng.choice(group.nontrivial_keys()))
        syllables.append(Syllable(v, value))
    return reduce(pres, Word(tuple(syllables)))


def _alternating_element(rng, pres, view):
    """x0 c1 x1 ... cn xn with 1-3 random apex syllables; cancellation may leave fewer consonants."""
    a_side = view.a_vertices
    e = _random_element(rng, pres, a_side, rng.randint(0, 2), 2)
    for _ in range(rng.randint(1, 3)):
        e = multiply(e, _random_element(rng, pres, {view.apex}, 1, 2))
        e = multiply(e, _random_element(rng, pres, a_side, rng.randint(0, 3), 2))
    return e


def test_conjugate_by_matches_coset_criterion():
    """amalgam_conjugate_by against the oracle with a B-ball anchor and prefix coset conditions.

    Random 3-5-vertex graphs over Z, Z/2, Z/3 and S3, with B the whole A-side
    or a proper subset of it.  f is g conjugated by an element of G_B whose Z
    exponents reach past the radius, by an element of the A-side, by any
    element, or an unrelated element.  Every refutation and every oracle
    "yes" must come back unchanged; every "yes" must be supported in B and
    satisfy b g = f b.  Where the oracle gives up on a finite H-side clique
    that the radius covers, the answer is a refutation (condition 3), and no
    element of a B-ball that holds the conjugators drawn above may conjugate.
    """
    rng = random.Random(9)
    groups = ["Z", "cyclic 2", "cyclic 3", s3_config()]
    tally = {"no": 0, "new no": 0, "same yes": 0, "new yes": 0, "unknown": 0}
    for trial in range(1000):
        n = rng.randint(3, 5)
        names = [f"v{i}" for i in range(n)]
        doc = {
            "vertices": [{"name": v, "group": rng.choice(groups)} for v in names],
            "edges": [[u, v] for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.5],
        }
        pres = parse_presentation(json.dumps(doc))
        view = decompose_at(pres, rng.choice(names))
        a_side = sorted(view.a_vertices)
        b_set = set(a_side) if rng.random() < 0.3 else set(rng.sample(a_side, rng.randint(0, len(a_side) - 1)))
        radius = rng.randint(1, 3)
        g = _alternating_element(rng, pres, view)
        if amalgam_form(view, g).consonant_length < 1:
            continue
        kind = rng.random()
        if kind < 0.45:
            f = conjugate(_random_element(rng, pres, b_set, rng.randint(1, 3), radius + 2), g)
        elif kind < 0.7:
            f = conjugate(_random_element(rng, pres, a_side, rng.randint(1, 3), radius + 2), g)
        elif kind < 0.85:
            f = conjugate(_random_element(rng, pres, names, rng.randint(1, 3), 2), g)
        else:
            f = _alternating_element(rng, pres, view)
        expected = conjugate_by_coset_criterion(view, b_set, f, g, radius)
        answer = amalgam_conjugate_by(view, b_set, f, g, radius)
        context = f"trial {trial}: {doc}, apex {view.apex}, B {sorted(b_set)}, g {g}, f {f}, radius {radius}"
        if (answer.status, expected.status) == ("no", "unknown"):
            assert answer.failed_condition == 3, context
            ball = ball_elements(pres, 3, window=radius + 2, vertices=b_set)
            assert not any(multiply(b, g) == multiply(f, b) for b in ball), context
            tally["new no"] += 1
            continue
        if "no" in (expected.status, answer.status):
            assert (answer.status, answer.failed_condition) == ("no", expected.failed_condition), context
            tally["no"] += 1
            continue
        if expected.status == "yes":
            assert answer.status == "yes" and answer.conjugator == expected.conjugator, context
        if answer.status == "yes":
            b = answer.conjugator
            assert b.support() <= b_set and multiply(b, g) == multiply(f, b), context
            tally["same yes" if expected.status == "yes" else "new yes"] += 1
        else:
            tally["unknown"] += 1
    assert min(tally.values()) > 0, tally


@pytest.mark.parametrize(
    "config, apex, text",
    [
        (corpus.PATH_RACG, "c", "c[1] a[1] c[1] a[1]"),
        (corpus.PATH_C3_END, "a", "a[1] c[1] a[2] c[1]"),
        (corpus.PATH_C3_MID, "c", "c[1] a[1] b[1] c[1] a[1]"),
        (corpus.PATH_C3_END, "c", "c[1] a[1] c[1] a[2]"),
    ],
)
def test_centralizer_formulas_at_two_consonants(config, apex, text):
    # two consonants give three x-pieces, so the coset intersection runs over
    # more than one prefix
    pres = presentation_from_config(config)
    view = decompose_at(pres, apex)
    g = element_of(pres, text)
    assert amalgam_form(view, g).consonant_length >= 2
    check_centralizer(view, g, 4)
    check_centralizer_split(cyclically_reduce(g).reduced, 4)
