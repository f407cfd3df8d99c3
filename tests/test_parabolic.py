import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import amalgam, corpus, parabolic, parse_presentation
from graphprod.amalgam import centralizer_check, decompose_at
from graphprod.presentation import PresentationError, Word, presentation_from_config
from graphprod.words import (
    conjugate,
    element_of,
    identity,
    key_of_word,
    multiply,
    reduce,
    retract_key,
)
from graphprod.cyclic import cyclically_reduce
from graphprod.parabolic import (
    ParabolicSubgroup,
    centralizer_structure_check,
    full_parabolic,
    maximal_full_avoiding,
    normalizer_membership,
    parabolic_closure_of_cyclic,
    parabolic_generators,
    parabolic_intersection,
    parabolic_intersection_search,
    parabolic_membership,
    parabolics_equal,
)
from graphprod.selftest import check_normalizer, check_parabolic_closure
from oracles import ball_elements, centralizer_structure_check_by_pushes, intersection_by_ball

PRESENTATIONS = corpus.corpus_presentations()


def words_strategy(pres, max_len=6):
    alphabet = corpus.syllable_alphabet(pres, 2)
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(lambda s: Word(tuple(s)))


def test_closure_examples(path_racg):
    closure = parabolic_closure_of_cyclic(element_of(path_racg, "a[1] c[1] a[1]"))
    assert closure.conjugator == element_of(path_racg, "a[1]")
    assert closure.core == {"c"}

    reduced = element_of(path_racg, "a[1] c[1]")
    closure2 = parabolic_closure_of_cyclic(reduced)
    assert closure2.conjugator.is_identity and closure2.core == {"a", "c"}

    trivial = parabolic_closure_of_cyclic(identity(path_racg))
    assert trivial.core == frozenset()


def test_membership_examples(path_racg):
    p = ParabolicSubgroup(element_of(path_racg, "a[1]"), frozenset({"c"}))
    assert parabolic_membership(p, element_of(path_racg, "a[1] c[1] a[1]"))
    assert not parabolic_membership(full_parabolic(path_racg, {"b"}), element_of(path_racg, "a[1]"))
    assert parabolic_membership(p, identity(path_racg))


def test_normalizer_examples(path_racg):
    pb = full_parabolic(path_racg, {"b"})
    for u in ball_elements(path_racg, 3):
        assert normalizer_membership(pb, u)
    pa = full_parabolic(path_racg, {"a"})
    assert not normalizer_membership(pa, element_of(path_racg, "c[1]"))
    assert normalizer_membership(pa, element_of(path_racg, "a[1]"))
    assert normalizer_membership(pa, element_of(path_racg, "b[1]"))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_normalizer_formula_matches_ball_action(name):
    pres = PRESENTATIONS[name]
    cores = [frozenset({pres.vertices[0]}), frozenset(pres.vertices[:2])]
    for core in cores:
        p = full_parabolic(pres, core)
        for u in ball_elements(pres, 3, window=3):
            check_normalizer(p, u)


def test_centralizer_structure_examples(path_racg):
    rep = centralizer_structure_check(element_of(path_racg, "c[1]"), 4)
    assert rep.ok
    assert all(e.support() <= {"b", "c"} for e in rep.centralizer)
    assert {e.render() for e in rep.centralizer} == {"1", "b[1]", "c[1]", "b[1] c[1]"}

    # b is adjacent to both a and c, so it centralizes a*c
    rep2 = centralizer_structure_check(element_of(path_racg, "a[1] c[1]"), 4)
    assert rep2.ok
    assert rep2.halo == {"b"}
    assert element_of(path_racg, "b[1]") in rep2.centralizer
    assert all(e.support() <= rep2.core | rep2.halo for e in rep2.centralizer)

    with pytest.raises(PresentationError):
        centralizer_structure_check(element_of(path_racg, "a[1] c[1] a[1]"), 3)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_centralizer_structure_random(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(13)
    for _ in range(8):
        g = cyclically_reduce(reduce(pres, corpus.random_word(pres, rng, 4))).reduced
        assert centralizer_structure_check(g, 3).ok


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_structure_check_matches_the_pushed_predictions(name):
    # on G_A x G_link(A) the walk's verdicts are the predictions that
    # multiplied each A-retraction with g: the same reports, field by field
    pres = PRESENTATIONS[name]
    rng = random.Random(name)
    for _ in range(8):
        g = cyclically_reduce(reduce(pres, corpus.random_word(pres, rng, 4))).reduced
        radius = rng.randint(0, 3)
        assert centralizer_structure_check(g, radius) == centralizer_structure_check_by_pushes(g, radius)


PENTAGON = parse_presentation(
    json.dumps(
        {
            "vertices": [{"name": f"p{i}", "group": "Z" if i == 3 else "cyclic 3"} for i in range(5)],
            "edges": [[f"p{i}", f"p{(i + 1) % 5}"] for i in range(5)],
        }
    )
)


@pytest.mark.parametrize(
    "pres, text, radius, failing",
    [(presentation_from_config(corpus.STAR_RACG), "l1[1]", 4, False), (PENTAGON, "p0[1] p2[1]", 3, True)],
    ids=["star-leaf", "pentagon"],
)
def test_structure_check_reads_halo_verdicts(pres, text, radius, failing):
    # a nonempty halo: the walk decides the ball elements in the core and the
    # halo that carry halo syllables, as their retractions would.  On the star
    # every retraction (a power of the leaf) centralizes; on the pentagon the
    # core is {p0, p2}, the halo {p1}, and p1·p0 does not
    g = element_of(pres, text)
    report = centralizer_structure_check(g, radius)
    assert report.ok and report.halo
    assert report == centralizer_structure_check_by_pushes(g, radius)
    allowed = report.core | report.halo
    with_halo = [u for u in ball_elements(pres, radius) if u.support() <= allowed and u.support() & report.halo]
    members = set(report.centralizer)
    assert any(u in members for u in with_halo)
    assert any(u not in members for u in with_halo) == failing


def test_split_predictions_refuse_keys_off_their_vertex_sets(monkeypatch):
    # each split prediction is a containment test, so a key off its vertex set
    # is a violation even where the walk says it centralizes.  For g = p0 on
    # the pentagon, p2 lies off {p0} u link(p0), the star of the apex p0
    off = ((PENTAGON.vertex_index("p2"), 1),)
    g = element_of(PENTAGON, "p0[1]")
    verdicts = []

    def stub(g, radius, predicted, vertices=None):
        verdicts.append(predicted(off, True))
        return 0, (), ()

    monkeypatch.setattr(parabolic, "_compare_centralizer", stub)
    centralizer_structure_check(g, 1)
    monkeypatch.setattr(amalgam, "_compare_centralizer", stub)
    assert centralizer_check(decompose_at(PENTAGON, "p0"), g, 1).kind == "product"
    assert verdicts == [False, False]


def test_maximal_full_avoiding_examples(path_racg, free_zz):
    got = maximal_full_avoiding(element_of(path_racg, "a[1] c[1] a[1]"))
    assert got.vertex == "c" and got.consonant_length >= 1

    single = maximal_full_avoiding(element_of(path_racg, "b[1]"))
    assert single.vertex == "b"

    free = maximal_full_avoiding(element_of(free_zz, "x[2] y[1]"))
    assert free.vertex == "x"

    # a cyclically reduced core of 4 syllables, 2 of them at x
    counted = maximal_full_avoiding(element_of(free_zz, "x[2] y[1] x[1] y[1]"))
    assert len(counted.core) == 4
    assert counted.vertex == "x" and counted.consonant_length == 2

    with pytest.raises(ValueError):
        maximal_full_avoiding(identity(path_racg))


def test_intersection_examples(path_racg):
    p_ab = full_parabolic(path_racg, {"a", "b"})
    p_bc = full_parabolic(path_racg, {"b", "c"})
    r = parabolic_intersection_search(p_ab, p_bc, 3)
    assert r.status == "found"
    assert parabolics_equal(r.parabolic, full_parabolic(path_racg, {"b"}))

    r2 = parabolic_intersection_search(full_parabolic(path_racg, {"a"}), full_parabolic(path_racg, {"c"}), 3)
    assert r2.status == "found" and r2.parabolic.core == frozenset()

    r3 = parabolic_intersection_search(p_ab, p_ab, 3)
    assert r3.status == "found" and parabolics_equal(r3.parabolic, p_ab)


def test_intersection_double_inclusion_certificate(path_racg, star_racg):
    for pres, c1, c2 in ((path_racg, {"a", "b"}, {"b", "c"}), (star_racg, {"c", "l1"}, {"c", "l2"})):
        p1, p2 = full_parabolic(pres, c1), full_parabolic(pres, c2)
        r = parabolic_intersection_search(p1, p2, 3)
        assert r.status == "found"
        for g in parabolic_generators(r.parabolic):
            assert parabolic_membership(p1, g) and parabolic_membership(p2, g)
        for u in ball_elements(pres, 3):
            if parabolic_membership(p1, u) and parabolic_membership(p2, u):
                assert parabolic_membership(r.parabolic, u)


def presentation(groups, edges):
    vertices = [{"name": name, "group": group} for name, group in groups.items()]
    return parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))


def in_both(p1, p2, u):
    return parabolic_membership(p1, u) and parabolic_membership(p2, u)


def test_intersection_search_is_exact_wrapper(path_racg):
    p1 = ParabolicSubgroup(element_of(path_racg, "a[1] c[1]"), frozenset({"b", "c"}))
    p2 = full_parabolic(path_racg, {"a", "b"})
    r = parabolic_intersection_search(p1, p2, 0)
    assert r.status == "found" and r.parabolic == parabolic_intersection(p1, p2)
    with pytest.raises(ValueError):
        parabolic_intersection_search(p1, p2, -1)


def test_intersection_false_found_reproducer():
    """The radius-2 ball search answered with the trivial parabolic here."""
    pres = presentation({"x": "Z", "y": "cyclic 3", "z": "cyclic 2"}, [])
    h1 = element_of(pres, "y[2] x[-1] y[2]")
    p1 = ParabolicSubgroup(h1, frozenset({"x", "z"}))
    p2 = ParabolicSubgroup(element_of(pres, "y[-1]"), frozenset({"x", "y"}))
    u = element_of(pres, "y[2] x[-1] y[2] x[1] y[1] x[1] y[1]")
    assert in_both(p1, p2, u)
    assert intersection_by_ball(p1, p2, 2).core == frozenset()
    got = parabolic_intersection(p1, p2)
    assert got == ParabolicSubgroup(h1, frozenset({"x"}))
    assert parabolic_membership(got, u)


def random_graph(rng):
    names = "abcde"[: rng.randint(2, 5)]
    groups = {v: rng.choice(["Z", "cyclic 2", "cyclic 3"]) for v in names}
    edges = [[u, v] for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.5]
    return presentation(groups, edges)


def random_parabolic(pres, rng):
    h = reduce(pres, corpus.random_word(pres, rng, 3))
    return ParabolicSubgroup(h, frozenset(v for v in pres.vertices if rng.random() < 0.6))


def check_exact(p1, p2, probe):
    """The exact answer lies in p1 & p2 and holds every probe element in both."""
    exact = parabolic_intersection(p1, p2)
    assert exact.core <= p1.core & p2.core
    for gen in parabolic_generators(exact):
        assert in_both(p1, p2, gen)
    for u in probe:
        if in_both(p1, p2, u):
            assert parabolic_membership(exact, u)
    return exact


def oracle_within(p1, p2, exact):
    """Check that the radius-2 oracle answer lies in the exact one.

    Returns the oracle answer when it is the same subgroup, else None: a
    strictly smaller answer is one the ball test wrongly certified."""
    found = intersection_by_ball(p1, p2, 2)
    if found is None:
        return None
    for gen in parabolic_generators(found):
        assert parabolic_membership(exact, gen)
    return found if parabolics_equal(found, exact) else None


def test_intersection_against_ball_oracle():
    """300 random pairs: the exact answer is P1 & P2 on a ball and contains the oracle's.

    Where the radius-2 oracle finds the same subgroup it must also give the
    same description, since both are the shortest conjugator with core C.
    """
    rng = random.Random(11)
    equal = 0
    for _ in range(60):
        pres = random_graph(rng)
        probe = list(ball_elements(pres, 3, window=1))
        for _ in range(5):
            p1, p2 = random_parabolic(pres, rng), random_parabolic(pres, rng)
            exact = check_exact(p1, p2, probe)
            found = oracle_within(p1, p2, exact)
            if found:
                equal += 1
                assert found.conjugator.key == exact.conjugator.key and found.core == exact.core
    assert equal >= 280


DEGENERATE = {
    "single": ({"x": "Z"}, []),
    "complete": (
        {"a": "Z", "b": "cyclic 2", "c": "cyclic 3", "d": "Z"},
        [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]],
    ),
    "edgeless": ({"a": "Z", "b": "cyclic 2", "c": "cyclic 3", "d": "Z"}, []),
    "trivial-vertex": ({"t": "cyclic 1", "x": "Z", "y": "cyclic 2", "z": "cyclic 3"}, [["t", "x"], ["x", "y"]]),
}


@pytest.mark.parametrize("kind", sorted(DEGENERATE))
def test_intersection_degenerate_graphs(kind):
    """Single vertex, complete and edgeless graphs, and a cyclic 1 vertex in A & B.

    A trivial vertex group carries no syllables and enlarges normalizers, so
    there the oracle and the exact answer may describe the same subgroup with
    different cores or conjugators: only subgroup equality is compared.
    """
    pres = presentation(*DEGENERATE[kind])
    rng = random.Random(kind)
    probe = list(ball_elements(pres, 3, window=1))
    equal = 0
    for _ in range(25):
        p1, p2 = random_parabolic(pres, rng), random_parabolic(pres, rng)
        if kind == "trivial-vertex":
            p1 = ParabolicSubgroup(p1.conjugator, p1.core | {"t"})
            p2 = ParabolicSubgroup(p2.conjugator, p2.core | {"t"})
        shared = p1.core & p2.core
        exact = check_exact(p1, p2, probe)
        found = oracle_within(p1, p2, exact)
        if found:
            equal += 1
            if kind != "trivial-vertex":
                assert found.conjugator.key == exact.conjugator.key and found.core == exact.core
        if kind in ("single", "complete"):
            # every element normalizes G_(A & B) here
            assert exact == full_parabolic(pres, shared)
        if kind == "edgeless":
            # no vertex is adjacent to a nontrivial d
            assert exact.core in (shared, frozenset())
            # with g = h1^-1 h2 in G_A G_B, the answer is h1 a G_(A & B) a^-1 h1^-1
            a, b = (
                retract_key(pres, key_of_word(pres, corpus.random_word(pres, rng, 2)), {pres.vertex_index(v) for v in c})
                for c in (p1.core, p2.core)
            )
            h1a = multiply(p1.conjugator, a)
            moved = ParabolicSubgroup(multiply(h1a, b), p2.core)
            assert parabolics_equal(parabolic_intersection(p1, moved), ParabolicSubgroup(h1a, shared))
    assert equal >= 15


def test_intersection_trivial_vertex_example():
    """t (cyclic 1) lies in both cores but is not adjacent to y.

    The exact answer drops t from the core, the oracle keeps it; both are the
    trivial subgroup."""
    pres = presentation({"t": "cyclic 1", "x": "Z", "y": "Z"}, [])
    p1 = full_parabolic(pres, {"t", "x"})
    p2 = ParabolicSubgroup(element_of(pres, "y[1]"), frozenset({"t", "x"}))
    exact = parabolic_intersection(p1, p2)
    assert exact == full_parabolic(pres, ())
    found = intersection_by_ball(p1, p2, 2)
    assert found.core == {"t"} and parabolics_equal(found, exact)


def test_generators_skip_a_trivial_vertex_and_take_one_sign_of_z():
    """A cyclic 1 vertex adds no generator, so G_{a} is the trivial subgroup,
    and a Z vertex is generated by one syllable of either sign."""
    pres = presentation({"a": "cyclic 1", "b": "Z"}, [])
    assert parabolics_equal(full_parabolic(pres, ["a"]), full_parabolic(pres, []))
    assert parabolic_generators(full_parabolic(pres, ["a", "b"])) == [element_of(pres, "b[1]")]


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_closure_minimality(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(3)
    elements = [reduce(pres, corpus.random_word(pres, rng, 4)) for _ in range(12)]
    candidates = list(ball_elements(pres, 3, window=3))
    for g in elements:
        if not g.is_identity:
            check_parabolic_closure(g, candidates)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_closure_conjugation_equivariance(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    g = reduce(pres, data.draw(words_strategy(pres)))
    w = reduce(pres, data.draw(words_strategy(pres, max_len=3)))
    moved = conjugate(w, g)
    p1 = parabolic_closure_of_cyclic(moved)
    p2 = parabolic_closure_of_cyclic(g)
    shifted = ParabolicSubgroup(multiply(w, p2.conjugator), p2.core)
    assert parabolics_equal(p1, shifted)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_members_normalize(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    g = reduce(pres, data.draw(words_strategy(pres)))
    p = parabolic_closure_of_cyclic(g)
    assert normalizer_membership(p, g)


def test_maximal_full_avoiding_on_one_vertex(single_z):
    avoiding = maximal_full_avoiding(element_of(single_z, "x[3]"))
    assert avoiding.vertex == "x" and avoiding.consonant_length == 1


def test_parabolic_does_not_import_amalgam():
    # parabolic sits below amalgam, so amalgam can use the parabolic peel
    script = "import sys, graphprod.parabolic; print('graphprod.amalgam' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
