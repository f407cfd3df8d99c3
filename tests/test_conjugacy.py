import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus, parse_presentation
from graphprod.presentation import PresentationError, Word
from graphprod.words import _in_ball, conjugate, element_of, invert, multiply, reduce
from graphprod.cyclic import cyclic_permutation_conjugators, cyclically_reduce
from graphprod.conjugacy import (
    _rotation_conjugator,
    are_conjugate,
    brute_force_conjugate,
    conjugacy_class_in_ball,
    conjugate_in_clique_subgroup,
)

PRESENTATIONS = corpus.corpus_presentations()


def words_strategy(pres, max_len=5):
    alphabet = corpus.syllable_alphabet(pres, 2)
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(lambda s: Word(tuple(s)))


def test_are_conjugate_examples(path_racg, single_z):
    x = element_of(path_racg, "a[1] c[1]")
    y = element_of(path_racg, "c[1] a[1]")
    verdict = are_conjugate(x, y)
    assert verdict.conjugate
    assert conjugate(verdict.conjugator, x) == y
    assert verdict.conjugator == element_of(path_racg, "a[1]")
    # confirmed by exhaustive search over short conjugators
    assert brute_force_conjugate(x, y, 2).found

    assert are_conjugate(x, element_of(path_racg, "b[1]")).refutation == "support-mismatch"
    assert (
        are_conjugate(element_of(single_z, "x[1]"), element_of(single_z, "x[2]")).refutation
        == "s-part-not-conjugate"
    )


def test_refutation_tag_order(path_racg, free_zz):
    # same support, different length -> the length tag fires
    x = element_of(free_zz, "x[1] y[1]")
    y = element_of(free_zz, "x[1] y[1] x[2] y[2]")
    assert are_conjugate(x, y).refutation == "length-mismatch"
    # same support and length, non-rotated moving parts
    x2 = element_of(free_zz, "x[1] y[1] x[2] y[2]")
    y2 = element_of(free_zz, "x[1] y[2] x[2] y[1]")
    assert are_conjugate(x2, y2).refutation == "p-part-not-cyclic-permutation"
    assert all(
        are_conjugate(a, b).refutation
        in ("support-mismatch", "length-mismatch", "p-part-not-cyclic-permutation", "s-part-not-conjugate", None)
        for a in (x, x2)
        for b in (y, y2)
    )


def test_clique_subgroup_examples(star_racg, free_zz, triangle_mixed):
    a = element_of(star_racg, "c[1] l1[1]")
    ok, conj = conjugate_in_clique_subgroup(star_racg, {"c", "l1"}, a, a)
    assert ok and conj.is_identity

    ok2, _ = conjugate_in_clique_subgroup(free_zz, {"x"}, element_of(free_zz, "x[2]"), element_of(free_zz, "x[3]"))
    assert not ok2

    # u (a table group) and v form a clique in the triangle
    x = element_of(triangle_mixed, "u[t] v[1]")
    y = element_of(triangle_mixed, "u[t] v[1]")
    ok3, conj3 = conjugate_in_clique_subgroup(triangle_mixed, {"u", "v"}, x, y)
    assert ok3 and conjugate(conj3, x) == y

    with pytest.raises(PresentationError, match="clique"):
        conjugate_in_clique_subgroup(free_zz, {"x", "y"}, element_of(free_zz, "x[1]"), element_of(free_zz, "x[1]"))


def test_brute_force_examples(path_racg):
    x = element_of(path_racg, "a[1] c[1]")
    y = element_of(path_racg, "c[1] a[1]")
    assert brute_force_conjugate(x, y, 2).found
    same = brute_force_conjugate(x, x, 0)
    assert same.found and same.conjugator.is_identity
    assert brute_force_conjugate(x, element_of(path_racg, "b[1]"), 3).status == "exhausted"


def test_rotation_conjugator_examples(path_racg):
    g = element_of(path_racg, "a[1] c[1]")
    rotated = element_of(path_racg, "c[1] a[1]")
    p = _rotation_conjugator(g, rotated)
    assert multiply(multiply(invert(p), g), p) == rotated
    assert _rotation_conjugator(g, g).is_identity
    assert _rotation_conjugator(g, element_of(path_racg, "b[1]")) is None


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_criterion_agrees_with_ball_oracle(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(5)
    elements = corpus.corpus_elements(pres, max_len=3)
    sample = sorted({elements[rng.randrange(len(elements))] for _ in range(12)})
    radius = 3
    for x in sample:
        reachable = conjugacy_class_in_ball(x, radius)
        for y in sample:
            verdict = are_conjugate(x, y)
            if y in reachable:
                assert verdict.conjugate
            if verdict.conjugate:
                assert conjugate(verdict.conjugator, x) == y
                # the criterion's witness is honored by the oracle when in range
                if _in_ball(verdict.conjugator, radius):
                    assert brute_force_conjugate(x, y, radius).found


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_conjugacy_is_reflexive_symmetric(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    x = reduce(pres, data.draw(words_strategy(pres)))
    y = reduce(pres, data.draw(words_strategy(pres)))
    assert are_conjugate(x, x).conjugate
    forward = are_conjugate(x, y)
    backward = are_conjugate(y, x)
    assert forward.conjugate == backward.conjugate
    if forward.conjugate:
        assert conjugate(invert(forward.conjugator), y) == x
        assert conjugate(backward.conjugator, y) == x


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_conjugacy_is_transitive_via_witnesses(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    x = reduce(pres, data.draw(words_strategy(pres)))
    w1 = reduce(pres, data.draw(words_strategy(pres, max_len=3)))
    w2 = reduce(pres, data.draw(words_strategy(pres, max_len=3)))
    y = conjugate(w1, x)
    z = conjugate(w2, y)
    vxz = are_conjugate(x, z)
    assert vxz.conjugate
    assert conjugate(vxz.conjugator, x) == z
    composed = multiply(w2, w1)
    assert conjugate(composed, x) == z


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_conjugation_invariance(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    x = reduce(pres, data.draw(words_strategy(pres)))
    y = reduce(pres, data.draw(words_strategy(pres)))
    w = reduce(pres, data.draw(words_strategy(pres, max_len=3)))
    assert are_conjugate(conjugate(w, x), y).conjugate == are_conjugate(x, y).conjugate


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rotations_are_conjugate_with_verified_witness(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    g = cyclically_reduce(reduce(pres, data.draw(words_strategy(pres)))).reduced
    for rotated in cyclic_permutation_conjugators(g):
        p = _rotation_conjugator(g, rotated)
        assert multiply(multiply(invert(p), g), p) == rotated
        assert are_conjugate(g, rotated).conjugate


def test_factor_lengths_4_2_against_2_4_are_not_conjugate():
    # two free pairs {x0, t0} and {x1, t1} over Z, every cross pair adjacent:
    # equal supports and lengths, but the commuting factors have lengths 4 + 2
    # against 2 + 4
    names = ["x0", "t0", "x1", "t1"]
    doc = {
        "vertices": [{"name": v, "group": "Z"} for v in names],
        "edges": [["x0", "x1"], ["x0", "t1"], ["t0", "x1"], ["t0", "t1"]],
    }
    pres = parse_presentation(json.dumps(doc))
    x = element_of(pres, "x0[1] t0[1] x0[1] t0[2] x1[1] t1[1]")
    y = element_of(pres, "x0[1] t0[1] x1[1] t1[1] x1[1] t1[2]")
    assert x.support() == y.support() and len(x) == len(y)
    verdict = are_conjugate(x, y)
    assert not verdict.conjugate and verdict.refutation == "p-part-not-cyclic-permutation"
    assert brute_force_conjugate(x, y, 2).status == "exhausted"
