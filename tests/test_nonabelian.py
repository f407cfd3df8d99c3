"""End-to-end checks over a presentation with a nonabelian table vertex group."""

import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus, parse_presentation
from graphprod import conjugacy, cyclic, words
from graphprod.presentation import PresentationError, Word, WordError, induced_presentation, parse_word
from graphprod.words import (
    Element,
    _blockers,
    _compare_centralizer,
    _in_ball,
    _make,
    canonical_form,
    conjugate,
    element_of,
    identity,
    invert,
    is_reduced_key,
    iter_ball,
    key_of_word,
    multiply,
    power,
    reduce,
)
from graphprod.cyclic import (
    commuting_factors,
    cyclic_permutation_conjugators,
    cyclically_reduce,
    is_cyclically_reduced,
    ps_decompose,
)
from graphprod.conjugacy import (
    are_conjugate,
    brute_force_conjugate,
    conjugacy_class_in_ball,
    conjugate_in_clique_subgroup,
)
from graphprod.amalgam import (
    _general_form,
    _prefixes,
    amalgam_conjugate_by,
    centralizer_check,
    conjugator_classify,
    consonant_leading_form,
    decompose_at,
    is_amalgam_cyclically_reduced,
    multiply_out,
)
from graphprod.parabolic import centralizer_structure_check, parabolic_closure_of_cyclic, parabolic_membership
from graphprod.selftest import (
    check_conjugacy,
    check_consonants,
    check_cyclic_reduction,
    check_parabolic_closure,
    check_ps_split,
)
from graphprod.separability import (
    ALL_FINITE,
    SeparationWitness,
    _collect_distinctness,
    _collect_shape_constraints,
    _family_from_constraints,
    apply_quotient,
    conjugacy_witness,
    p_group_mode,
    residual_witness,
    shape_preserving_family,
)

from oracles import (
    alternating_form_by_restarts,
    ball_by_enumeration,
    ball_by_levels,
    ball_elements,
    brute_force_conjugate_by_multiply,
    compare_centralizer_by_multiply,
    conjugator_case_by_search,
    cyclic_reduction_by_repush,
    cyclic_reduction_by_rescan,
    distinctness_by_products,
    fold_push,
    greedy_least_vertex_first,
    parse_word_by_syllables,
    rotation_closure_by_make,
    witness_constraints_by_parts,
    _readable,
)


def s3_config():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    names = ["e", "r", "r2", "s", "sr", "sr2"]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return {"table": {"elements": names, "mul": table, "identity": 0}}


def build_s3_path():
    # g -- m -- z: S3 at one end, Z at the other, C2 in the middle
    doc = {
        "vertices": [
            {"name": "g", "group": s3_config()},
            {"name": "m", "group": "cyclic 2"},
            {"name": "z", "group": "Z"},
        ],
        "edges": [["g", "m"], ["m", "z"]],
    }
    return parse_presentation(json.dumps(doc))


@pytest.fixture(scope="module")
def s3_path():
    return build_s3_path()


def test_words_and_shapes(s3_path):
    # m commutes with g, so the S3 syllables join across it; z does not
    assert element_of(s3_path, "g[r] m[1] g[r2]").render() == "m[1]"
    e = element_of(s3_path, "g[r] z[1] g[r2]")
    assert e.render() == "g[r] z[1] g[r2]"
    assert element_of(s3_path, "g[r] g[r2]").is_identity
    assert element_of(s3_path, "g[s] m[1] z[2]").support() == {"g", "m", "z"}
    # table values multiply by the table, not commutatively
    sr = multiply(element_of(s3_path, "g[s]"), element_of(s3_path, "g[r]"))
    rs = multiply(element_of(s3_path, "g[r]"), element_of(s3_path, "g[s]"))
    assert sr != rs


def test_conjugacy_uses_table_search(s3_path):
    x = element_of(s3_path, "g[s]")
    y = element_of(s3_path, "g[sr]")
    verdict = are_conjugate(x, y)
    assert verdict.conjugate
    assert conjugate(verdict.conjugator, x) == y
    assert not are_conjugate(x, element_of(s3_path, "g[r]")).conjugate
    # with a central C2 syllable attached, the clique part still decides
    xm = element_of(s3_path, "g[s] m[1]")
    ym = element_of(s3_path, "g[sr2] m[1]")
    v2 = are_conjugate(xm, ym)
    assert v2.conjugate and conjugate(v2.conjugator, xm) == ym
    assert are_conjugate(xm, element_of(s3_path, "g[r] m[1]")).refutation == "s-part-not-conjugate"


def test_criterion_matches_ball_oracle(s3_path):
    rng = random.Random(3)
    elements = corpus.corpus_elements(s3_path, max_len=3, z_window=1)
    sample = sorted({elements[rng.randrange(len(elements))] for _ in range(10)})
    for x in sample:
        reachable = conjugacy_class_in_ball(x, 3)
        for y in sample:
            verdict = are_conjugate(x, y)
            if y in reachable:
                assert verdict.conjugate
            if verdict.conjugate:
                assert conjugate(verdict.conjugator, x) == y
                if _in_ball(verdict.conjugator, 3):
                    assert brute_force_conjugate(x, y, 3).found


def test_classification_on_ball_conjugators(s3_path):
    view = decompose_at(s3_path, "g")
    rng = random.Random(5)
    seen_cases = set()
    for _ in range(300):
        g = cyclically_reduce(reduce(s3_path, corpus.random_word(s3_path, rng, 4, z_window=1))).reduced
        try:
            gform = consonant_leading_form(view, g)
        except Exception:
            continue
        if not is_amalgam_cyclically_reduced(view, gform):
            continue
        if gform.x_pieces[-1].support() <= view.h_vertices:
            continue
        for u in ball_elements(s3_path, 2, window=2):
            f = conjugate(u, g)
            try:
                fform = consonant_leading_form(view, f)
            except Exception:
                continue
            if not is_amalgam_cyclically_reduced(view, fform):
                continue
            if multiply_out(view, fform) != f or fform.consonants != gform.consonants:
                continue
            got = conjugator_classify(view, gform, fform, u)
            assert conjugator_case_by_search(view, gform, u) == got
            seen_cases.add(got.case)
            if got.case == "a":
                assert got.h == u and u.support() <= view.h_vertices
            elif got.case == "b":
                rebuilt = multiply(multiply(got.h, invert(got.piece)), power(g, -got.exponent))
                assert rebuilt == u
            else:
                rebuilt = multiply(multiply(got.h, got.piece), power(g, got.exponent))
                assert rebuilt == u
    assert {"a", "b", "c"} <= seen_cases


def test_classification_beyond_the_first_power(s3_path):
    # the radius-2 ball only reaches l <= 1, so build u = h p^-1 g^-l and
    # u = h s g^l for every prefix p, its suffix s = p^-1 g, and l = 2, 3
    view = decompose_at(s3_path, "g")
    hs = list(ball_elements(s3_path, 2, vertices=view.h_vertices))
    checked = {(case, l): 0 for case in "bc" for l in (2, 3)}
    for text in ("g[r] z[1]", "g[s] z[1] g[r] z[-1]", "g[s] z[2] g[s] z[1] g[r] z[1]"):
        g = element_of(s3_path, text)
        gform = consonant_leading_form(view, g)
        assert is_amalgam_cyclically_reduced(view, gform)
        for l in (2, 3):
            for p in _prefixes(view, gform):
                s = multiply(invert(p), g)
                for h in hs:
                    cases = (
                        ("b", multiply(multiply(h, invert(p)), power(g, -l))),
                        ("c", multiply(multiply(h, s), power(g, l))),
                    )
                    for case, u in cases:
                        f = conjugate(u, g)
                        fform = consonant_leading_form(view, f)
                        if not is_amalgam_cyclically_reduced(view, fform) or multiply_out(view, fform) != f:
                            continue
                        got = conjugator_classify(view, gform, fform, u)
                        assert got.case == case
                        assert conjugator_case_by_search(view, gform, u) == got
                        if case == "b":
                            rebuilt = multiply(multiply(got.h, invert(got.piece)), power(g, -got.exponent))
                        else:
                            rebuilt = multiply(multiply(got.h, got.piece), power(g, got.exponent))
                        assert rebuilt == u
                        checked[case, l] += 1
    assert all(checked.values()), checked


def test_amalgam_conjugacy_and_centralizers(s3_path):
    view = decompose_at(s3_path, "g")
    g = element_of(s3_path, "g[r] z[1]")
    rot = conjugate(element_of(s3_path, "z[-1]"), g)
    answer = amalgam_conjugate_by(view, view.a_vertices, rot, g, 4)
    assert answer.status == "yes" and conjugate(answer.conjugator, g) == rot

    report = centralizer_check(view, element_of(s3_path, "g[r] m[1]"), 3)
    assert report.kind == "product" and report.ok
    # r has centralizer <r> inside S3, and m is central here
    assert {e.render() for e in report.centralizer} == {
        "1", "g[r]", "g[r2]", "m[1]", "g[r] m[1]", "g[r2] m[1]",
    }

    rep2 = centralizer_structure_check(element_of(s3_path, "g[s]"), 3)
    assert rep2.ok
    assert {e.render() for e in rep2.centralizer} == {"1", "g[s]", "m[1]", "g[s] m[1]"}


def test_parabolics_and_witnesses(s3_path):
    g = element_of(s3_path, "z[1] g[s] z[-1]")
    closure = parabolic_closure_of_cyclic(g)
    assert closure.core == {"g"} and parabolic_membership(closure, g)

    w = residual_witness(element_of(s3_path, "g[s] z[4]"), ALL_FINITE)
    assert w.verify()
    assert w.family.moduli["g"] is None  # the table group is kept

    pair = conjugacy_witness(
        element_of(s3_path, "g[s] m[1]"), element_of(s3_path, "g[r] m[1]"), ALL_FINITE
    )
    assert pair.verify() and pair.certificate_tag == "s-part-not-conjugate"


def mixed_hexagon():
    # Z, Z/5, S3, Z, Z/3, S3 on a hexagon-like graph with seven edges
    doc = {
        "vertices": [
            {"name": "a", "group": "Z"},
            {"name": "b", "group": "cyclic 5"},
            {"name": "g", "group": s3_config()},
            {"name": "d", "group": "Z"},
            {"name": "e", "group": "cyclic 3"},
            {"name": "f", "group": s3_config()},
        ],
        "edges": [["a", "b"], ["b", "g"], ["g", "d"], ["d", "e"], ["e", "a"], ["a", "f"], ["f", "d"]],
    }
    return parse_presentation(json.dumps(doc))


def test_cyclic_reduction_of_long_conjugates():
    # u c u^-1 with a 400-syllable core c over Z, Z/n and S3 vertices.  c is a
    # walk in the complement graph (no two neighbours commute), so it is reduced,
    # its only first letter is its first vertex and its only last letter its last
    # vertex; these differ, so c is cyclically reduced.
    pres = mixed_hexagon()
    rng = random.Random(1)

    def syllable(v):
        group = pres.groups[v]
        if group.kind == "table":
            return f"{v}[{rng.choice(group.elements[1:])}]"
        if group.kind == "mod":
            return f"{v}[{rng.randint(1, 2)}]"
        return f"{v}[{rng.choice([-2, -1, 1, 2])}]"

    def apart(v, *others):
        # vertices that neither equal nor commute with v
        return [u for u in pres.vertices if u not in (v, *others) and u not in pres.graph.link(v)]

    walk = [pres.vertices[0]]
    while len(walk) < 399:
        walk.append(rng.choice(apart(walk[-1])))
    walk.append(rng.choice(apart(walk[-1], walk[0])))
    c = element_of(pres, " ".join(syllable(v) for v in walk))
    assert len(c) == 400 and {pres.groups[v].kind for v in c.support()} == {"Z", "mod", "table"}
    u = element_of(pres, " ".join(syllable(rng.choice(pres.vertices)) for _ in range(60)))
    assert len(u) >= 40
    g = conjugate(u, c)

    r = cyclically_reduce(g)
    assert conjugate(r.conjugator, r.reduced) == g
    assert is_cyclically_reduced(r.reduced)
    assert len(r.reduced) == len(c)
    assert len(g) - len(r.reduced) >= 80  # long peeling, not a few end syllables
    assert are_conjugate(r.reduced, c).conjugate


def test_cyclic_reduction_matches_the_repush_step():
    # 2,100 conjugates u c u^-1 over the corpus, mixed_hexagon and an S3 path:
    # one pop and one push per step give the core and conjugator keys of the
    # step that deleted both end syllables and pushed them back
    presentations = {**corpus.corpus_presentations(), "mixed-hexagon": mixed_hexagon(), "s3-path": build_s3_path()}
    rng = random.Random(13)
    for name, pres in sorted(presentations.items()):
        for _ in range(300):
            u = reduce(pres, corpus.random_word(pres, rng, 12))
            c = reduce(pres, corpus.random_word(pres, rng, 8))
            g = conjugate(u, c)
            r = cyclically_reduce(g)
            assert (r.reduced.key, r.conjugator.key) == cyclic_reduction_by_repush(g), (name, g)


def clique_factor_presentation(k):
    # b is adjacent to no x and the x's form a clique, so b x0 ... x(k-1) is one
    # commuting factor with 2^k rotations
    xs = [f"x{i}" for i in range(k)]
    doc = {
        "vertices": [{"name": v, "group": "Z"} for v in ["b"] + xs],
        "edges": [[u, v] for i, u in enumerate(xs) for v in xs[i + 1 :]],
    }
    return parse_presentation(json.dumps(doc))


def test_cyclic_reduction_and_rotations_match_the_replaced_loops():
    # cyclically_reduce gives the core and conjugator keys of the peel that
    # rescanned the word and of the one that pushed both end syllables back,
    # and returns an input that peels nothing as it is; the closure on keys
    # gives the map of the closure on Elements, in the same insertion order
    cyclic_2_3 = parse_presentation(json.dumps({
        "vertices": [{"name": v, "group": g} for v, g in zip("pqrs", ["cyclic 2", "cyclic 3"] * 2)],
        "edges": [["p", "q"], ["q", "r"], ["r", "s"]],
    }))
    presentations = {
        **corpus.corpus_presentations(),
        "s3-path": build_s3_path(),
        "cyclic-2-3": cyclic_2_3,
        "clique-factor-3": clique_factor_presentation(3),
        "clique-factor-4": clique_factor_presentation(4),
        "one-vertex-z": small_graph_product(["Z"], False),
        "one-vertex-s3": small_graph_product(["S3"], False),
        "edgeless-6": z_presentation("abcdef", False),
        "complete-6": z_presentation("abcdef", True),
    }
    rng = random.Random(29)

    def check(g):
        r = cyclically_reduce(g)
        assert (r.reduced.key, r.conjugator.key) == cyclic_reduction_by_rescan(g) == cyclic_reduction_by_repush(g), g
        assert (r.reduced is g) == r.conjugator.is_identity, g
        again = cyclically_reduce(r.reduced)
        assert again.reduced is r.reduced and again.conjugator.is_identity, g
        return r.reduced

    for name, pres in sorted(presentations.items()):
        inputs = [reduce(pres, corpus.random_word(pres, rng, 8)) for _ in range(60)]
        if name.startswith("clique-factor"):
            inputs.append(element_of(pres, " ".join(f"{v}[1]" for v in pres.vertices)))
        for c in inputs:
            u = reduce(pres, corpus.random_word(pres, rng, 10))
            check(conjugate(u, c))
            core = check(c)
            rotations = cyclic_permutation_conjugators(core)
            assert list(rotations.items()) == list(rotation_closure_by_make(core).items()), (name, core)

    # long peels: u of 93, 364 and 1,418 syllables after reduction
    pres = mixed_hexagon()
    alphabet = corpus.syllable_alphabet(pres, 2)
    c = element_of(pres, "a[1] g[r] e[1] b[1]")  # a walk in the complement graph
    assert is_cyclically_reduced(c)
    for length in (150, 600, 2200):
        u = reduce(pres, Word(tuple(rng.choice(alphabet) for _ in range(length))))
        g = conjugate(u, c)
        check(g)
        assert len(g) - len(c) > len(u)  # most of the shell survives, so the peel is long

    # six Z vertices: edgeless, u of 103 and 956 syllables after reduction
    # is peeled; complete, u cancels in the product and nothing is
    for complete in (False, True):
        pres = z_presentation("abcdef", complete)
        alphabet = corpus.syllable_alphabet(pres, 2)
        c = element_of(pres, "a[1] b[1] c[2]")
        for length in (120, 1200):
            u = reduce(pres, Word(tuple(rng.choice(alphabet) for _ in range(length))))
            g = conjugate(u, c)
            assert check(g) in cyclic_permutation_conjugators(c)
            assert g == c if complete else len(g) - len(c) >= len(u)

    # w, the greatest vertex, is the only movable one at 251 of the 501
    # steps: its front syllable comes before every other vertex's, so the
    # scan passes a, b, c and d, all blocked; each separator in u is peeled
    # in the step after it
    pres = z_presentation("abcdw", False)
    c = element_of(pres, "a[1] b[1] c[1]")
    u = element_of(pres, " ".join(f"w[1] {rng.choice('abcd')}[1]" for _ in range(250)) + " w[1]")
    g = conjugate(u, c)
    check(g)
    r = cyclically_reduce(g)
    assert (r.reduced, r.conjugator) == (c, u)


def z_presentation(names, complete):
    """Z vertices on the given names, pairwise adjacent or not at all."""
    edges = [list(e) for e in itertools.combinations(names, 2)] if complete else []
    return parse_presentation(json.dumps({"vertices": [{"name": v, "group": "Z"} for v in names], "edges": edges}))


def random_word_text(pres, rng, length):
    """NAME[VALUE] tokens with signed, zero and out-of-range integer values,
    joined and surrounded by assorted whitespace."""
    tokens = []
    for _ in range(length):
        v = rng.choice(pres.vertices)
        group = pres.groups[v]
        if group.kind == "table":
            value = rng.choice(group.elements)
        else:
            value = rng.choice(["+", "-", ""]) + str(rng.randint(0, 7))
        tokens.append(f"{v}[{value}]")
    return rng.choice(["", " ", "\t"]) + rng.choice([" ", "  "]).join(tokens) + rng.choice(["", " ", "\n"])


def test_text_to_key_matches_the_syllable_loop():
    # parse_word and element_of read text in one pass; over the corpus and an
    # S3 path they give the word, the element and the error message of the
    # loop that built one Syllable per token
    presentations = {**corpus.corpus_presentations(), "s3-path": build_s3_path()}
    fixed = ["1", "", " 1 ", "\t", "x[+2] x[-0]", "a[5] a[-3]", " a[1] ", "zz[1]", "a1", "x[one]", "a[1] 1",
             "u[zz]", "g[r] g[sr2]"]
    rng = random.Random(19)

    def outcome(parse, pres, text):
        try:
            return parse(pres, text)
        except WordError as exc:
            return str(exc)

    for name, pres in sorted(presentations.items()):
        for text in fixed + [random_word_text(pres, rng, rng.randint(0, 12)) for _ in range(200)]:
            expected = outcome(parse_word_by_syllables, pres, text)
            assert outcome(parse_word, pres, text) == expected, (name, text)
            if isinstance(expected, Word):
                assert element_of(pres, text).key == reduce(pres, expected).key, (name, text)
            else:
                with pytest.raises(WordError, match=re.escape(expected)):
                    element_of(pres, text)


def s3_identity_third():
    # S3 with its elements listed so that the identity is element 3
    table = s3_config()["table"]
    order = [3, 4, 5, 0, 1, 2]
    at = {old: new for new, old in enumerate(order)}
    return {
        "table": {
            "elements": [table["elements"][old] for old in order],
            "mul": [[at[table["mul"][a][b]] for b in order] for a in order],
            "identity": at[0],
        }
    }


def push_presentations():
    mixed = [s3_identity_third(), "Z", "cyclic 2", "cyclic 5"]

    def graph(groups, edges):
        names = [f"v{i}" for i in range(len(groups))]
        doc = {"vertices": [{"name": n, "group": g} for n, g in zip(names, groups)], "edges": edges(names)}
        return parse_presentation(json.dumps(doc))

    return {
        **corpus.corpus_presentations(),
        "s3-path": build_s3_path(),
        "one-vertex-cyclic-2": graph(["cyclic 2"], lambda names: []),
        "one-vertex-s3": graph([s3_identity_third()], lambda names: []),
        "complete": graph(mixed, lambda names: [list(e) for e in itertools.combinations(names, 2)]),
        "edgeless": graph(mixed, lambda names: []),
        # pushing v1 onto [v0, v2] scans past v2 on its link and stops at v0
        # off it, so v1 goes in before v2: [v0, v1, v2]
        "insert-before-greater": graph(["Z"] * 3, lambda names: [names[1:]]),
    }


@pytest.mark.parametrize("name", sorted(push_presentations()))
def test_batched_push_matches_the_one_syllable_fold(name):
    # _make, multiply, invert and reduce give the key that pushing the same
    # syllables one at a time with the replaced single-syllable push gives;
    # words carry identity syllables and w w^-1 cancellation cascades
    pres = push_presentations()[name]
    rng = random.Random(19)
    values = [group.nontrivial_keys(3) for group in pres.by_index]

    def raw(length):
        key = []
        for _ in range(length):
            vi = rng.randrange(len(values))
            trivial = rng.random() < 0.15
            key.append((vi, pres.by_index[vi].identity_key if trivial else rng.choice(values[vi])))
        return key

    def inverse(key):
        return [(vi, pres.by_index[vi].inv(val)) for vi, val in reversed(key)]

    def exact(key):  # _push stores the pairs it is given, so every caller must pass (int, int) tuples
        return all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in key)

    for _ in range(60):
        w = raw(rng.randint(0, 12))
        key = tuple(raw(rng.randint(0, 6)) + w + raw(rng.randint(0, 2)) + inverse(w) + raw(rng.randint(0, 6)))
        a = _make(pres, key)
        assert a.key == fold_push(pres, key)
        assert reduce(pres, Word(tuple(pres.decode_syllable(*s) for s in key))).key == a.key
        assert invert(a).key == fold_push(pres, inverse(a.key))
        other = raw(rng.randint(0, 12))
        b = _make(pres, other + inverse(a.key) + raw(rng.randint(0, 4)))
        assert multiply(a, b).key == fold_push(pres, b.key, a.key) == fold_push(pres, key + tuple(b.key))
        # one-vertex-s3's identity key is 3, so its key 0 is a nontrivial syllable
        assert all(exact(e.key) and is_reduced_key(pres, e.key) for e in (a, invert(a), b, multiply(a, b)))

    # one syllable pushed at each step of the settling at the list's last
    # syllable: onto an empty list, a join and a cancel there, an append off
    # the link, and a last syllable on the link of a greater or smaller vertex
    def step(out, vi, val):
        if not out:
            return "empty"
        ui, uval = out[-1]
        if ui == vi:
            return "cancel" if pres.by_index[vi].mul(uval, val) == pres.by_index[vi].identity_key else "join"
        return "off-link" if ui not in pres.iadj[vi] else "greater" if ui > vi else "smaller"

    reached = set()
    for (u, us), (v, vs) in itertools.product(enumerate(values), repeat=2):
        for a, b in itertools.product(us, vs):
            for out in ([], [(u, a)], list(_make(pres, raw(rng.randint(0, 6)) + [(u, a)]).key)):
                reached.add(step(out, v, b))
                before = tuple(out)
                words._push(pres, out, [(v, b)])
                assert tuple(out) == fold_push(pres, [(v, b)], before) and exact(out)
    n = len(values)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    expected = {"empty", "cancel"} | ({"join"} if any(len(vals) > 1 for vals in values) else set())
    expected |= {"off-link"} if any(v not in pres.iadj[u] for u, v in pairs) else set()
    expected |= {"greater", "smaller"} if any(pres.iadj) else set()
    assert reached == expected


def test_cyclic_reduction_conjugator_needs_no_reordering(monkeypatch):
    # a and b commute and are peeled first; c fails to commute with b, so its
    # back syllable is readable only once b's peel cancels b[-1], and c < d
    # is then peeled before d, which was movable from the start
    pres = parse_presentation(json.dumps({
        "vertices": [{"name": v, "group": "Z"} for v in "abcdkl"],
        "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "d"], ["c", "d"]],
    }))
    g = element_of(pres, "a[1] b[1] d[1] c[1] k[1] l[1] c[-1] d[-1] b[-1] a[-1]")
    made = []

    def recording_make(p, syllables):
        made.append(tuple(syllables))
        return words._make(p, made[-1])

    monkeypatch.setattr(cyclic, "_make", recording_make)
    r = cyclically_reduce(g)
    assert r.conjugator.key == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert r.reduced.key == ((4, 1), (5, 1))
    assert made == [r.reduced.key]  # the core only: the conjugator is wrapped as peeled
    assert conjugate(r.conjugator, r.reduced) == g


NORMAL_FORM_PRESENTATIONS = {**corpus.corpus_presentations(), "mixed-hexagon": mixed_hexagon()}


def assert_least_vertex_first(e):
    # is_reduced_key scans the key itself, without _push, so a key wrapped
    # without reduction is checked for reducedness as well as for its order
    assert is_reduced_key(e.pres, e.key)
    assert e.key == greedy_least_vertex_first(e.pres, e.key)


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_PRESENTATIONS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_outputs_match_greedy_least_vertex_first(name, data):
    # every operation that returns an element returns the greedy linearization
    pres = NORMAL_FORM_PRESENTATIONS[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    alphabet = corpus.syllable_alphabet(pres)

    def word():
        return Word(tuple(rng.choice(alphabet) for _ in range(data.draw(st.integers(0, 300)))))

    x, y, u = reduce(pres, word()), reduce(pres, word()), reduce(pres, word())
    shuffled = corpus.shuffled_variant(pres, x.word(), rng, steps=4 * len(x))
    assert canonical_form(pres, shuffled) == x.word()
    assert x.key == greedy_least_vertex_first(pres, key_of_word(pres, shuffled))
    ps = ps_decompose(x)
    g = conjugate(u, x)
    r = cyclically_reduce(g)
    outputs = [x, y, multiply(x, y), invert(x), g, ps.s_part, ps.p_part, r.reduced, r.conjugator]
    outputs += commuting_factors(x).values()
    outputs += commuting_factors(r.reduced).values()
    for e in outputs:
        assert_least_vertex_first(e)


def mixed_clique():
    # mixed_hexagon's vertex groups, every pair adjacent
    names = ["a", "b", "g", "d", "e", "f"]
    groups = ["Z", "cyclic 5", s3_config(), "Z", "cyclic 3", s3_config()]
    doc = {
        "vertices": [{"name": v, "group": group} for v, group in zip(names, groups)],
        "edges": [[u, v] for i, u in enumerate(names) for v in names[i + 1 :]],
    }
    return parse_presentation(json.dumps(doc))


class CountingKey(tuple):
    """A key that counts the positions read from it."""

    reads = 0

    def __getitem__(self, pos):
        self.reads += 1
        return tuple.__getitem__(self, pos)


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_PRESENTATIONS) + ["clique", "random"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_front_letters_match_the_readable_oracle(name, data):
    # the one readable-syllable scan, with its early stop, its start and its
    # removed positions, against the oracle's scan of the positions left
    if name == "random":
        pres = random_graph_product(data)
    else:
        pres = mixed_clique() if name == "clique" else NORMAL_FORM_PRESENTATIONS[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    alphabet = corpus.syllable_alphabet(pres)
    e = reduce(pres, Word(tuple(rng.choice(alphabet) for _ in range(data.draw(st.integers(0, 300))))))
    for key in (e.key, e.key[::-1]):
        n = len(key)
        first = list(_readable(pres, key, range(n)).values())
        removed_sets = [(), set(rng.sample(range(n), rng.randint(0, n)))]
        removed_sets += [set(first[:r]) for r in range(1, len(first) + 1)]
        gone = set()  # rounds that each remove every readable syllable left, as a boundary does
        for _ in range(3):
            gone |= set(_readable(pres, key, [p for p in range(n) if p not in gone]).values())
            removed_sets.append(set(gone))
        for start in (0, rng.randint(0, n)):
            for removed in removed_sets:
                expected = _readable(pres, key, [p for p in range(start, n) if p not in removed])
                assert list(words._front_letters(pres, key, removed, start).items()) == list(expected.items())
        assert list(words._front_letters(pres, key).items()) == list(_readable(pres, key, range(n)).items())


def test_front_letters_stop_once_no_vertex_is_left(free_zz):
    # on a free pair the first syllable commutes with no vertex: one position is read
    key = CountingKey(element_of(free_zz, " ".join(["x[1] y[1]"] * 150)).key)
    assert words._front_letters(free_zz, key) == {0: 0} and key.reads == 1
    key = CountingKey(key[::-1])
    assert words._front_letters(free_zz, key, {0}) == {0: 1} and key.reads == 1  # position 0 is skipped unread
    # on a clique every syllable is readable and the scan reads every position
    clique = mixed_clique()
    for text in ("a[1] b[2] g[r] d[-1] e[1] f[s]", "b[1] d[2] f[sr]"):
        key = CountingKey(element_of(clique, text).key)
        assert list(words._front_letters(clique, key).values()) == list(range(len(key)))
        assert key.reads == len(key)


def test_clique_conjugator_is_the_product_of_its_syllables():
    # a triangle s -- c -- t -- s: S3, Z/3, S3, with names out of index order
    doc = {
        "vertices": [
            {"name": "s", "group": s3_config()},
            {"name": "c", "group": "cyclic 3"},
            {"name": "t", "group": s3_config()},
        ],
        "edges": [["s", "c"], ["c", "t"], ["s", "t"]],
    }
    pres = parse_presentation(json.dumps(doc))
    clique = ["t", "c", "s"]
    a = element_of(pres, "s[r] c[1] t[s]")
    b = element_of(pres, "s[r2] c[1] t[sr]")
    ok, t = conjugate_in_clique_subgroup(pres, clique, a, b)
    assert ok and conjugate(t, a) == b
    assert [vi for vi, _ in t.key] == [0, 2]
    product = identity(pres)
    for syllable in t.key:
        product = multiply(product, reduce(pres, Word((pres.decode_syllable(*syllable),))))
    assert t == product
    assert_least_vertex_first(t)


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_PRESENTATIONS))
def test_ball_elements_match_greedy_least_vertex_first(name):
    pres = NORMAL_FORM_PRESENTATIONS[name]
    for e in ball_elements(pres, 3, window=1):
        assert_least_vertex_first(e)


@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("name", sorted(NORMAL_FORM_PRESENTATIONS))
def test_ball_matches_enumeration(name, subset):
    # the same keys in the same order as all short reduced words, linearized and sorted
    pres = NORMAL_FORM_PRESENTATIONS[name]
    window = 1 if len(pres.vertices) > 3 else 2
    # every other vertex, listed twice: a repeated vertex adds no generators
    vertices = pres.vertices[::2] * 2 if subset else None
    for radius in range(4):
        expected = ball_by_enumeration(pres, radius, window, vertices)
        assert list(iter_ball(pres, radius, window, vertices)) == expected


BALL_PRESENTATIONS = {**corpus.corpus_presentations(), "s3-path": build_s3_path()}


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("name", sorted(BALL_PRESENTATIONS))
def test_ball_predicate_matches_ball(name, radius):
    # checked on a larger ball with a wider window, so that both the length
    # and the values of the syllables can fall outside
    pres = BALL_PRESENTATIONS[name]
    inside = set(iter_ball(pres, radius))
    for key in iter_ball(pres, radius + 1, window=radius + 2):
        assert _in_ball(Element(pres, key), radius) == (key in inside), key


@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("name", sorted(BALL_PRESENTATIONS))
def test_ball_walk_matches_stored_levels_and_carries_products(name, subset):
    # the walk that stores no last level yields what the walk that stored every
    # level did, and with a left factor each carried key is that of left·u
    pres = BALL_PRESENTATIONS[name]
    vertices = pres.vertices[::2] if subset else None
    rng = random.Random(name)
    pool = list(ball_elements(pres, 3, window=2))
    # length 3 where there is one (edge-zz is abelian: its elements have length <= 2)
    lefts = [identity(pres)] + [rng.choice([e for e in pool if len(e) == n]) for n in (2, len(pool[-1]))]
    if name == "s3-path":
        lefts.append(element_of(pres, "g[r] z[1] g[s]"))
    # a pruning rule that reads both of its arguments
    keep = lambda u, product: sum(val for _, val in u + (product or ())) % 3 != 1
    pruned = 0
    for radius in range(4):
        for window in (1, 2, 3):
            expected = ball_by_levels(pres, radius, window, vertices)
            assert list(iter_ball(pres, radius, window, vertices)) == [u.key for u in expected]
            # with keep: the stored ball's elements whose proper prefixes all pass it
            kept = [u.key for u in expected if all(keep(u.key[:i], None) for i in range(len(u)))]
            assert list(iter_ball(pres, radius, window, vertices, keep=keep)) == kept
            pruned += len(expected) - len(kept)
            for left in lefts:
                walked = list(iter_ball(pres, radius, window, vertices, left=left))
                assert [u for u, _ in walked] == [u.key for u in expected]
                assert [product for _, product in walked] == [multiply(left, u).key for u in expected]
                prefix = lambda u, i: (u.key[:i], multiply(left, Element(pres, u.key[:i])).key)
                kept = [u for u in expected if all(keep(*prefix(u, i)) for i in range(len(u)))]
                walked = list(iter_ball(pres, radius, window, vertices, left=left, keep=keep))
                assert walked == [(u.key, multiply(left, u).key) for u in kept]
                pruned += len(expected) - len(kept)
    assert pruned


def test_brute_force_conjugate_matches_the_stored_ball_loop():
    # the first w of the stored ball with w x = y w, found by whole products
    rng = random.Random(2007)
    names = sorted(BALL_PRESENTATIONS)
    pools = {name: list(ball_elements(BALL_PRESENTATIONS[name], 2, window=2)) for name in names}
    found = 0
    for _ in range(200):
        name = rng.choice(names)
        pres, pool = BALL_PRESENTATIONS[name], pools[name]
        radius = rng.randint(0, 2)
        conjugators = ball_by_levels(pres, radius)
        x = rng.choice(pool)
        y = conjugate(rng.choice(conjugators), x) if rng.random() < 0.5 else rng.choice(pool)
        expected = next((w for w in conjugators if multiply(w, x) == multiply(y, w)), None)
        verdict = brute_force_conjugate(x, y, radius)
        assert verdict.status == ("exhausted" if expected is None else "yes")
        assert verdict.conjugator == expected
        found += expected is not None
    assert 50 < found < 200


def build_pentagon(rng):
    # a 5-cycle with one Z vertex, rotated by the seed, and Z/3 elsewhere
    z_at = rng.randrange(5)
    doc = {
        "vertices": [{"name": f"p{i}", "group": "Z" if i == z_at else "cyclic 3"} for i in range(5)],
        "edges": [[f"p{i}", f"p{(i + 1) % 5}"] for i in range(5)],
    }
    return parse_presentation(json.dumps(doc))


KEY_PRODUCT_PRESENTATIONS = {**BALL_PRESENTATIONS, "pentagon": build_pentagon(random.Random(24))}


def compare_centralizer_with_branches(g, radius, predicted, vertices, monkeypatch):
    """`_compare_centralizer`'s report, checked against the multiply loop, and
    the branches that decided its elements: "blocked" (u + g as it stands),
    "refuted-n" and "refuted-n-1" (by the length count, at d = |g·u| - |u|
    equal to n = |g| and to n - 1), and "pushed" (pushed although d >= n - 1)."""
    pushed, push = set(), words._push  # the keys u whose u·g was pushed

    def recording(pres, out, syllables):
        if syllables is g.key:  # the walk's own pushes carry one new syllable
            pushed.add(tuple(out))
        push(pres, out, syllables)

    with monkeypatch.context() as patch:
        patch.setattr(words, "_push", recording)
        report = _compare_centralizer(g, radius, predicted, vertices)
    assert report == compare_centralizer_by_multiply(g, radius, predicted, vertices)
    blocked, n, branches = _blockers(g.pres, g.key), len(g), set()
    for u, gu in iter_ball(g.pres, radius, vertices=vertices, left=g):
        d = len(gu) - len(u)
        if u and u[-1][0] in blocked:
            assert u not in pushed
            branches.add("blocked")
        elif u not in pushed:
            assert n and d >= n - 1, u  # the count refutes nothing below its window
            branches.add("refuted-n" if d == n else "refuted-n-1")
        elif n and d >= n - 1:
            branches.add("pushed")
    return report, branches


@pytest.mark.parametrize("name", sorted(KEY_PRODUCT_PRESENTATIONS))
def test_key_comparisons_match_the_multiply_loops(name, monkeypatch):
    # products of keys find the conjugators, members and violations that
    # products of Elements did, in the same order
    pres = KEY_PRODUCT_PRESENTATIONS[name]
    rng = random.Random(name)
    pool = list(ball_elements(pres, 2, window=2))
    found = violated = 0
    branches = set()
    for _ in range(30):
        radius = rng.randint(0, 3)
        x = rng.choice(pool)
        y = conjugate(rng.choice(pool), x) if rng.random() < 0.5 else rng.choice(pool)
        verdict = brute_force_conjugate(x, y, radius)
        assert verdict == brute_force_conjugate_by_multiply(x, y, radius)
        found += verdict.found
        vertices = rng.sample(pres.vertices, rng.randint(1, len(pres.vertices))) if rng.random() < 0.5 else None
        # wrong on every element of one length, so some violations are members and some are not
        length = rng.randint(0, radius)
        predicted = lambda u, centralizes: centralizes != (len(u) == length)
        report, reached = compare_centralizer_with_branches(x, radius, predicted, vertices, monkeypatch)
        if x.key:  # g = 1 blocks every nontrivial u
            branches |= reached
        violated += bool(report[2])
    assert found and violated
    complete = len(pres.graph.edges) == len(pres.vertices) * (len(pres.vertices) - 1) // 2
    if complete:  # an abelian g has no blocker, and the count refutes only what fails to commute
        assert branches == {"pushed"}
    elif all(group.order == 2 for group in pres.by_index):  # the parity of |w| is a homomorphism: d ≡ n mod 2
        assert branches == {"blocked", "refuted-n", "pushed"}
    else:
        assert branches == {"blocked", "refuted-n", "refuted-n-1", "pushed"}
    if name == "pentagon":
        # the benchmark's shapes at radius 4: an apex syllable times one off
        # its star, and a cyclically reduced g of 3 syllables
        for text in ("p0[1] p2[1]", "p1[2] p3[1]", "p0[1] p2[2] p4[1]"):
            g = element_of(pres, text)
            predicted = lambda u, centralizes: centralizes != (len(u) == 3)
            report, reached = compare_centralizer_with_branches(g, 4, predicted, None, monkeypatch)
            assert report[0] == 9061 and reached == {"blocked", "refuted-n", "refuted-n-1", "pushed"}

    # radius 3-4: the search prunes its walk by word length and still finds the
    # first conjugator of the whole ball, which the oracle walks unpruned
    walked = []  # (|w|, |y·w|) of each element the pruned walk yields

    def recording(*args, **kwargs):
        for w, yw in iter_ball(*args, **kwargs):
            walked.append((len(w), len(yw)))
            yield w, yw

    monkeypatch.setattr(conjugacy, "iter_ball", recording)
    alphabet = corpus.syllable_alphabet(pres)
    balls = {radius: {key: i for i, key in enumerate(iter_ball(pres, radius))} for radius in (3, 4)}
    edges, pruned = set(), 0
    for _ in range(16):
        radius = rng.randint(3, 4)
        x = rng.choice(pool)
        if rng.random() < 0.5:
            y = conjugate(reduce(pres, corpus.random_word(pres, rng, radius + 1)), x)
        else:
            y = reduce(pres, Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(6, 10)))))
        del walked[:]
        verdict = brute_force_conjugate(x, y, radius)
        assert verdict == brute_force_conjugate_by_multiply(x, y, radius)
        ball = balls[radius]
        pruned += len(walked) < (ball[verdict.conjugator.key] + 1 if verdict.found else len(ball))
        n = len(x)
        for m, length in walked:
            if length == m - n:
                edges.add("low")  # on the lower edge of both windows
            if length == m + n:
                edges.add("push")  # the upper edge of the window that pushes x
            if m < radius and length == n + 2 * radius - m:
                edges.add("keep")  # the upper edge of the window that extends w
    complete = len(pres.graph.edges) == len(pres.vertices) * (len(pres.vertices) - 1) // 2
    # an abelian y·w has at most one syllable per vertex, far below the keep edge
    assert edges == ({"low", "push"} if complete else {"low", "push", "keep"})
    # in Z × Z only an element of length 2 can fall out of the window, and it has no children
    assert pruned or name == "edge-zz"


def test_brute_force_walk_count_is_pinned(monkeypatch):
    # a count gate, with no timing: on the pentagon at radius 4, x = p0·p2
    # against w·x'·w^-1 (|w| = 3, x' = p0·p2^2 off x's class) walks 417 of the
    # ball's 9,061 elements before it reports "exhausted"
    pres = KEY_PRODUCT_PRESENTATIONS["pentagon"]
    count = 0

    def counting(*args, **kwargs):
        nonlocal count
        for item in iter_ball(*args, **kwargs):
            count += 1
            yield item

    monkeypatch.setattr(conjugacy, "iter_ball", counting)
    x = element_of(pres, "p0[1] p2[1]")
    y = element_of(pres, "p1[1] p3[2] p4[1] p0[1] p2[2] p4[-1] p3[-2] p1[-1]")
    assert brute_force_conjugate(x, y, 4).status == "exhausted"
    assert count == 417
    assert sum(1 for _ in iter_ball(pres, 4)) == 9061


def test_centralizer_push_count_is_pinned(monkeypatch):
    # a count gate, with no timing: the pentagon structure check of the
    # cyclically reduced g = p0·p2^2·p4 at radius 4 pushes u·g for 1,815 of the
    # ball's 9,061 elements; the length count refutes 2,936 of the 4,751 that
    # end on no blocker of g
    pres = KEY_PRODUCT_PRESENTATIONS["pentagon"]
    g = element_of(pres, "p0[1] p2[2] p4[1]")
    count, push = 0, words._push

    def counting(pres, out, syllables):
        nonlocal count
        count += syllables is g.key  # the walk's own pushes carry one new syllable
        push(pres, out, syllables)

    monkeypatch.setattr(words, "_push", counting)
    report = centralizer_structure_check(g, 4)
    assert report.ok and report.ball_size == 9061 and len(report.centralizer) == 3
    assert count == 1815


@pytest.mark.parametrize("name", sorted(BALL_PRESENTATIONS))
def test_blocked_tail_product_is_the_concatenation(name):
    # a canonical u that ends on a blocker of g: u·g is u + g as it stands,
    # and a nontrivial g has a blocker exactly when the graph has a non-edge
    pres = BALL_PRESENTATIONS[name]
    ball = list(iter_ball(pres, 3, window=2))
    pool = [Element(pres, key) for key in ball if len(key) <= 2]
    if name == "s3-path":
        pool += [element_of(pres, text) for text in ("g[r] z[1] g[s]", "z[1] g[sr] z[-1]", "g[r2] z[2] g[sr2]")]
    blocked = 0
    for g in pool:
        tails = _blockers(pres, g.key)
        for u in ball:
            if u and u[-1][0] in tails:
                assert u + g.key == multiply(Element(pres, u), g).key, (u, g)
                blocked += bool(g.key)
    n = len(pres.vertices)
    assert bool(blocked) == (len(pres.graph.edges) < n * (n - 1) // 2)


FORM_PRESENTATIONS = {**NORMAL_FORM_PRESENTATIONS, "s3-path": build_s3_path()}


@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("name", sorted(FORM_PRESENTATIONS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_alternating_forms_match_restarts(name, subset, data):
    # one apex with its link: the one-pass form has the pieces of the restart
    # loop, on unreduced words.  A vertex subset with its common link: on a
    # reduced key the restart loop keeps a consonant exactly when the key has
    # a syllable in the subset, which is the support test of kernel_sample_check
    pres = FORM_PRESENTATIONS[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if subset:
        c = set(rng.sample(pres.vertices, rng.randint(1, len(pres.vertices) - 1)))
    else:
        c = {rng.choice(pres.vertices)}
    h = [v for v in pres.vertices if v not in c and all(v in pres.graph.link(u) for u in c)]
    c_ids = {pres.vertex_index(v) for v in c}
    h_ids = {pres.vertex_index(v) for v in h}
    alphabet = corpus.syllable_alphabet(pres)
    key = key_of_word(pres, Word(tuple(rng.choice(alphabet) for _ in range(data.draw(st.integers(0, 40))))))
    if subset:
        reduced = _make(pres, key).key
        _, cs = alternating_form_by_restarts(pres, c_ids, h_ids, reduced)
        assert bool(cs) == any(vi in c_ids for vi, _ in reduced)
        return
    (apex,) = c_ids
    xs, cs = _general_form(decompose_at(pres, pres.vertices[apex]), key)
    expected_xs, expected_cs = alternating_form_by_restarts(pres, c_ids, h_ids, key)
    assert [x.key for x in xs] == [x.key for x in expected_xs]
    assert [((apex, c),) for c in cs] == [c.key for c in expected_cs]


# Blocks of two non-adjacent vertices, pairwise joined, and a central z: the
# moving part of a word has one commuting factor per block it touches.
BLOCK_GROUPS = [
    ("Z", "S3"),
    ("Z", "cyclic 3"),
    ("cyclic 4", "Z"),
    ("Z", "cyclic 5"),
    ("cyclic 3", "Z"),
]


@pytest.fixture(scope="module")
def blocks():
    vertices = []
    for b, pair in enumerate(BLOCK_GROUPS):
        for prefix, group in zip("xt", pair):
            vertices.append({"name": f"{prefix}{b}", "group": s3_config() if group == "S3" else group})
    vertices.append({"name": "z", "group": "Z"})
    names = [v["name"] for v in vertices]
    edges = [
        [u, v]
        for i, u in enumerate(names)
        for v in names[i + 1 :]
        if "z" in (u, v) or u[1:] != v[1:]
    ]
    return parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))


def random_syllable(pres, v, rng, avoid=None):
    group = pres.groups[v]
    while True:
        if group.kind == "table":
            value = rng.choice(group.elements[1:])
        elif group.kind == "mod":
            value = rng.randrange(1, group.order)
        else:
            value = rng.choice([-3, -2, -1, 1, 2, 3])
        text = f"{v}[{value}]"
        if text != avoid:
            return text


def interleave(parts, rng):
    """A random merge of syllable lists that keeps each list's order."""
    queues = [list(p) for p in parts if p]
    out = []
    while queues:
        q = rng.choice(queues)
        out.append(q.pop(0))
        if not q:
            queues.remove(q)
    return out


def block_pair(pres, k, mode, rng, lengths):
    """(x, y) with y a conjugate of a rotation of x, factor by factor; mode "p"
    changes one syllable of one factor, mode "s" the central syllable."""
    factors = []
    for b, n in zip(rng.sample(range(len(BLOCK_GROUPS)), k), lengths):
        order = [f"x{b}", f"t{b}"]
        rng.shuffle(order)
        factors.append([random_syllable(pres, order[i % 2], rng) for i in range(n)])
    central = random_syllable(pres, "z", rng)
    x = element_of(pres, " ".join(interleave(factors + [[central]], rng)))
    rotated = []
    for f in factors:
        s = rng.randrange(len(f))
        rotated.append(f[s:] + f[:s])
    if mode == "p":
        f = rng.choice(rotated)
        i = rng.randrange(len(f))
        f[i] = random_syllable(pres, f[i].split("[")[0], rng, avoid=f[i])
    elif mode == "s":
        central = random_syllable(pres, "z", rng, avoid=central)
    w = element_of(pres, " ".join(random_syllable(pres, rng.choice(pres.vertices), rng) for _ in range(6)))
    return x, conjugate(w, element_of(pres, " ".join(interleave(rotated + [[central]], rng))))


def whole_closure_decision(x, y):
    """The cyclic criterion over the rotation closure of the whole moving part:
    (refutation tag or None, conjugator or None)."""
    rx, ry = cyclically_reduce(x), cyclically_reduce(y)
    x0, y0 = rx.reduced, ry.reduced
    if x0.support() != y0.support():
        return "support-mismatch", None
    if len(x0) != len(y0):
        return "length-mismatch", None
    psx, psy = ps_decompose(x0), ps_decompose(y0)
    table = cyclic_permutation_conjugators(psx.p_part)
    if psy.p_part not in table:
        return "p-part-not-cyclic-permutation", None
    ok, t = conjugate_in_clique_subgroup(x.pres, psx.s_vertices, psx.s_part, psy.s_part)
    if not ok:
        return "s-part-not-conjugate", None
    core = multiply(t, invert(table[psy.p_part]))
    return None, multiply(multiply(ry.conjugator, core), invert(rx.conjugator))


def test_factorwise_decision_matches_whole_closure(blocks):
    rng = random.Random(7)
    tags = set()
    factor_counts = set()
    for k in (1, 2, 3, 4):
        for mode in ("", "p", "s"):
            for _ in range(10):
                x, y = block_pair(blocks, k, mode, rng, [rng.randint(2, 5) for _ in range(k)])
                tag, expected = whole_closure_decision(x, y)
                verdict = are_conjugate(x, y)
                assert (verdict.conjugate, verdict.refutation) == (tag is None, tag)
                assert verdict.conjugator == expected
                if verdict.conjugate:
                    assert conjugate(verdict.conjugator, x) == y
                tags.add(tag)
                # every rotation's conjugator is the whole closure's entry
                g = ps_decompose(cyclically_reduce(x).reduced).p_part
                table = cyclic_permutation_conjugators(g)
                factor_counts.add(len(commuting_factors(g)))
                for rotated in rng.sample(sorted(table), min(12, len(table))):
                    p = conjugacy._rotation_conjugator(g, rotated)
                    assert p == table[rotated]
                    assert conjugate(invert(p), g) == rotated
    assert {None, "p-part-not-cyclic-permutation", "s-part-not-conjugate"} <= tags
    assert {1, 2, 3, 4} <= factor_counts
    assert conjugacy._rotation_conjugator(element_of(blocks, "x0[1] t0[r]"), element_of(blocks, "z[1]")) is None


def test_witness_moduli_match_whole_closure(blocks):
    rng = random.Random(11)
    checked = 0
    for k in (2, 3):
        for _ in range(5):
            f, g = block_pair(blocks, k, "p", rng, [rng.randint(2, 4) for _ in range(k)])
            if are_conjugate(f, g).refutation != "p-part-not-cyclic-permutation":
                continue
            witness = conjugacy_witness(f, g, ALL_FINITE)
            assert witness.verify()
            # the moduli built from every rotation of the whole moving part
            sub = induced_presentation(blocks, sorted(f.support() | g.support(), key=blocks.vertex_index))
            f0 = cyclically_reduce(reduce(sub, f.word())).reduced
            g0 = cyclically_reduce(reduce(sub, g.word())).reduced
            constraints = {v: set() for v in sub.vertices}
            _collect_shape_constraints(constraints, [f0, g0])
            elements = [ps_decompose(f0).p_part] + sorted(cyclic_permutation_conjugators(ps_decompose(g0).p_part))
            _collect_shape_constraints(constraints, elements)
            distinctness_by_products(constraints, elements)
            reference = _family_from_constraints(sub, constraints, ALL_FINITE)
            assert witness.family.moduli == reference.moduli
            checked += 1
    assert checked >= 8


def test_rotation_closure_is_a_sum_not_a_product(blocks, monkeypatch):
    # five factors of six syllables: the whole closure has 6^5 = 7776 rotations
    walk = cyclic._rotations
    enumerated = []  # per walk, the rotations it yielded

    def counting(pres, key):
        enumerated.append(0)
        for item in walk(pres, key):
            enumerated[-1] += 1
            yield item

    monkeypatch.setattr(conjugacy, "_rotations", counting)
    rng = random.Random(3)
    for mode in ("", "p"):
        x, y = block_pair(blocks, 5, mode, rng, [6] * 5)
        factors = commuting_factors(ps_decompose(cyclically_reduce(x).reduced).p_part)
        sizes = [len(cyclic_permutation_conjugators(f)) for f in factors.values()]
        assert len(sizes) == 5 and math.prod(sizes) == 6**5
        enumerated.clear()
        verdict = are_conjugate(x, y)
        assert verdict.conjugate == (mode == "")
        if verdict.conjugate:
            assert conjugate(verdict.conjugator, x) == y
        assert 0 < sum(enumerated) <= sum(sizes)
    # the walk stops at its target: the rotation the closure finds i-th costs i + 1
    g = ps_decompose(cyclically_reduce(block_pair(blocks, 1, "", rng, [8])[0]).reduced).p_part
    for i, (rotated, p) in enumerate(cyclic_permutation_conjugators(g).items()):
        enumerated.clear()
        assert conjugacy._rotation_conjugator(g, rotated) == p
        assert enumerated == [i + 1]
    # a negative with one value changed is refuted before any rotation is built
    for _ in range(10):
        x, y = block_pair(blocks, 1, "p", rng, [rng.randint(2, 8)])
        enumerated.clear()
        assert are_conjugate(x, y).refutation == "p-part-not-cyclic-permutation"
        assert sum(enumerated) == 0
    # one 15-syllable factor with 2^14 rotations (0.77 s when the closure was built whole)
    pres = clique_factor_presentation(14)
    xs = " ".join(f"x{i}[1]" for i in range(14))
    enumerated.clear()
    verdict = are_conjugate(element_of(pres, f"b[1] {xs}"), element_of(pres, f"b[2] {xs}"))
    assert verdict.refutation == "p-part-not-cyclic-permutation"
    assert sum(enumerated) == 0
    # every closure rotation keeps its factor's sorted key
    for g in [element_of(clique_factor_presentation(4), "b[1] x0[1] x1[2] x2[-1] x3[1]"), *factors.values()]:
        assert {tuple(sorted(r.key)) for r in cyclic_permutation_conjugators(g)} == {tuple(sorted(g.key))}


def assert_distinctness_matches_products(elements):
    pres = elements[0].pres
    expected = {v: set() for v in pres.vertices}
    distinctness_by_products(expected, elements)
    constraints = {v: set() for v in pres.vertices}
    _collect_distinctness(constraints, elements)
    assert constraints == expected, [e.render() for e in elements]


def closure_list(other, factor):
    """What conjugacy_witness passes on: the other factor, then the sorted rotations."""
    return [other, *sorted(cyclic_permutation_conjugators(factor))]


def test_distinctness_matches_the_product_loop(blocks, free_zz):
    """The boundary values of each pair are the values of its reduced product:
    whole constraint dicts, signs and table values included."""
    rng = random.Random(5)
    checked = 0
    for k in (1, 2, 3, 4):
        for mode in ("", "p", "s"):
            for _ in range(4):
                f, g = block_pair(blocks, k, mode, rng, [rng.randint(2, 6) for _ in range(k)])
                factors_f = commuting_factors(ps_decompose(cyclically_reduce(f).reduced).p_part)
                for root, factor in commuting_factors(ps_decompose(cyclically_reduce(g).reduced).p_part).items():
                    assert_distinctness_matches_products(closure_list(factors_f.get(root, factor), factor))
                    checked += 1
    groups = ["Z", "cyclic 2", "cyclic 3", "cyclic 4", "S3"]
    for _ in range(120):
        n = rng.randint(2, 6)
        vertices = [{"name": f"v{i}", "group": s3_config() if (gr := rng.choice(groups)) == "S3" else gr} for i in range(n)]
        density = rng.random()
        edges = [[f"v{i}", f"v{j}"] for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        pres = parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))
        alphabet = corpus.syllable_alphabet(pres, 3)

        def element(length):
            return reduce(pres, Word(tuple(rng.choice(alphabet) for _ in range(length))))

        g = cyclically_reduce(element(rng.randint(2, 14))).reduced
        for factor in commuting_factors(ps_decompose(g).p_part).values():
            if 1 < len(factor) and len(cyclic_permutation_conjugators(factor)) <= 200:
                other = rng.choice([factor, element(len(factor)), cyclically_reduce(element(len(factor))).reduced])
                assert_distinctness_matches_products(closure_list(other, factor))
                checked += 1
        assert_distinctness_matches_products(list(dict.fromkeys(element(rng.randint(0, 10)) for _ in range(6))))
        checked += 1
    # proper powers: their rotations share long suffixes
    for text, pres in [("x[1] y[2]", free_zz), ("x[1] y[-1] x[2] y[1]", free_zz), ("x0[1] t0[r] x0[-2] t0[s]", blocks)]:
        h = element_of(pres, text)
        for e in (2, 3, 5):
            g = power(h, e)
            changed = _make(pres, g.key[:-1] + ((g.key[-1][0], g.key[0][1]),))
            for other in (g, changed, power(h, e + 1)):
                assert_distinctness_matches_products(closure_list(other, g))
                checked += 1
    # one alternating free-zz factor, and the same with one exponent changed
    for n in (50, 200):
        alternating = element_of(free_zz, " ".join(["x[1] y[1]"] * (n // 2)))
        changed = element_of(free_zz, " ".join(["x[2] y[1]"] + ["x[1] y[1]"] * (n // 2 - 1)))
        assert_distinctness_matches_products(closure_list(alternating, changed))
        checked += 1
    assert checked >= 250


def test_shape_preserving_family_reads_on_the_support():
    # c commutes with x and y, so the scans stop early only on the elements'
    # own support; the family is the one the product loop gives
    doc = {"vertices": [{"name": v, "group": "Z"} for v in "xyc"], "edges": [["x", "c"], ["y", "c"]]}
    pres = parse_presentation(json.dumps(doc))
    g = element_of(pres, " ".join(["x[2] y[1]"] + ["x[1] y[1]"] * 19))
    for elements in (sorted(cyclic_permutation_conjugators(g)), [g, element_of(pres, "c[3] x[1]")]):
        constraints = {v: set() for v in pres.vertices}
        _collect_shape_constraints(constraints, elements)
        distinctness_by_products(constraints, elements)
        expected = _family_from_constraints(pres, constraints, ALL_FINITE).moduli
        assert shape_preserving_family(elements, ALL_FINITE).moduli == expected


WITNESS_GROUPS = ["Z", "cyclic 2", "cyclic 3", "cyclic 5", "S3"]
WITNESS_MODES = {"finite": ALL_FINITE, "p:2": p_group_mode(2), "p:3": p_group_mode(3)}


def random_graph_product(data):
    n = data.draw(st.integers(2, 7))
    groups = data.draw(st.lists(st.sampled_from(WITNESS_GROUPS), min_size=n, max_size=n))
    vertices = [{"name": f"v{i}", "group": s3_config() if g == "S3" else g} for i, g in enumerate(groups)]
    edges = [[f"v{i}", f"v{j}"] for i in range(n) for j in range(i + 1, n) if data.draw(st.booleans())]
    return parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))


def near_conjugate_pair(pres, data):
    """(x, y) with y a conjugate of a rotation of x's word, one syllable of it
    replaced, so that most pairs share support and length."""
    alphabet = corpus.syllable_alphabet(pres, 3)
    letters = st.sampled_from(alphabet)
    word = data.draw(st.lists(letters, min_size=1, max_size=8))
    s = data.draw(st.integers(0, len(word) - 1))
    rotated = word[s:] + word[:s]
    rotated[data.draw(st.integers(0, len(word) - 1))] = data.draw(letters)
    w = reduce(pres, Word(tuple(data.draw(st.lists(letters, max_size=3)))))
    return reduce(pres, Word(tuple(word))), conjugate(w, reduce(pres, Word(tuple(rotated))))


def witness_json_or_error(build):
    try:
        return build()
    except PresentationError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("mode", sorted(WITNESS_MODES))
@pytest.mark.parametrize("graph", ["random", "blocks"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witness_matches_constraints_by_parts(blocks, graph, mode, data):
    class_mode = WITNESS_MODES[mode]
    if graph == "random":
        pres = random_graph_product(data)
        pairs = [near_conjugate_pair(pres, data) for _ in range(3)]
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        k = data.draw(st.integers(1, 3))
        pairs = [
            block_pair(blocks, k, change, rng, [rng.randint(2, 4) for _ in range(k)]) for change in ("p", "s")
        ]
    for f, g in pairs:
        if are_conjugate(f, g).conjugate:
            continue
        sub, constraints = witness_constraints_by_parts(f, g)

        def by_parts():
            family = _family_from_constraints(sub, constraints, class_mode)
            inputs = (reduce(sub, f.word()), reduce(sub, g.word()))
            images = tuple(apply_quotient(family, e) for e in inputs)
            return SeparationWitness(family, inputs, images, are_conjugate(*images).refutation).to_json()

        expected = witness_json_or_error(by_parts)
        assert witness_json_or_error(lambda: conjugacy_witness(f, g, class_mode).to_json()) == expected


@pytest.mark.parametrize(
    "groups, edges",
    [
        (["S3"], []),
        (["Z", "cyclic 3", "S3"], [["v0", "v1"], ["v0", "v2"], ["v1", "v2"]]),
        (["cyclic 2", "cyclic 3", "Z"], []),
    ],
    ids=["single-vertex", "complete", "edgeless"],
)
def test_degenerate_graphs_match_ball_oracle(groups, edges):
    vertices = [
        {"name": f"v{i}", "group": s3_config() if group == "S3" else group}
        for i, group in enumerate(groups)
    ]
    pres = parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))
    rng = random.Random(13)
    elements = corpus.corpus_elements(pres, max_len=2, z_window=1)
    sample = rng.sample(elements, min(5, len(elements)))
    conjugators = rng.sample(elements, min(3, len(elements)))
    sample = sorted(set(sample) | {conjugate(w, x) for w in conjugators for x in sample[:2]})
    yes = 0
    for x in sample:
        for y in sample:
            verdict = are_conjugate(x, y)
            if brute_force_conjugate(x, y, 3).found:
                assert verdict.conjugate
            if verdict.conjugate:
                assert conjugate(verdict.conjugator, x) == y
                yes += 1
    assert len(sample) < yes < len(sample) ** 2


SMALL_GROUPS = {"Z": "Z", "Z2": "cyclic 2", "Z3": "cyclic 3", "S3": s3_config(), "Z1": "cyclic 1"}
# every graph product on one or two vertices over these groups, up to
# isomorphism: 5 on one vertex, 15 pairs with the edge and 15 without
SMALL_SCOPE = [((name,), False) for name in SMALL_GROUPS] + [
    (names, edge) for names in itertools.combinations_with_replacement(SMALL_GROUPS, 2) for edge in (False, True)
]


def small_graph_product(names, edge):
    vertices = [{"name": f"v{i}", "group": SMALL_GROUPS[name]} for i, name in enumerate(names)]
    return parse_presentation(json.dumps({"vertices": vertices, "edges": [["v0", "v1"]] if edge else []}))


@pytest.mark.parametrize(
    "names, edge", SMALL_SCOPE, ids=["-".join(names) + ("-edge" if edge else "") for names, edge in SMALL_SCOPE]
)
def test_every_graph_product_on_two_vertices(names, edge):
    pres = small_graph_product(names, edge)
    conjugators = list(ball_elements(pres, 1))
    for g in ball_elements(pres, 3, window=1):
        check_cyclic_reduction(g)
        check_ps_split(g)
        if not g.is_identity:
            check_parabolic_closure(g, conjugators)
        reachable = conjugacy_class_in_ball(g, 1)
        for w in conjugators:
            check_conjugacy(g, conjugate(w, g), reachable, 1)
    if len(names) < 2 or names == ("Z1", "Z1"):
        return  # no splitting, or no nontrivial syllable to draw
    # the consonants at either vertex, on unreduced words whose apex runs fold and cancel
    rng = random.Random(0)
    for w in corpus.random_words(pres, 20, 8, seed=0):
        variant = corpus.shuffled_variant(pres, w, rng)
        for v in pres.vertices:
            check_consonants(decompose_at(pres, v), w, variant)
