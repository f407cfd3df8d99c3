import random

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus
from graphprod.presentation import PresentationError, Word
from graphprod.words import conjugate, element_of, identity, iter_ball, multiply, reduce
from graphprod.cyclic import cyclically_reduce
from graphprod.parabolic import (
    ParabolicSubgroup,
    centralizer_structure_check,
    full_parabolic,
    maximal_full_avoiding,
    normalizer_membership,
    parabolic_closure_of_cyclic,
    parabolic_generators,
    parabolic_intersection_search,
    parabolic_membership,
    parabolics_equal,
)
from graphprod.selftest import check_normalizer, check_parabolic_closure

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
    for u in iter_ball(path_racg, 3):
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
        for u in iter_ball(pres, 3, window=3):
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


def test_maximal_full_avoiding_examples(path_racg, free_zz):
    got = maximal_full_avoiding(element_of(path_racg, "a[1] c[1] a[1]"))
    assert got.vertex == "c" and got.consonant_length >= 1

    single = maximal_full_avoiding(element_of(path_racg, "b[1]"))
    assert single.vertex == "b"

    free = maximal_full_avoiding(element_of(free_zz, "x[2] y[1]"))
    assert free.vertex == "x"

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
        for u in iter_ball(pres, 3):
            if parabolic_membership(p1, u) and parabolic_membership(p2, u):
                assert parabolic_membership(r.parabolic, u)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_closure_minimality(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(3)
    elements = [reduce(pres, corpus.random_word(pres, rng, 4)) for _ in range(12)]
    candidates = [h for h in iter_ball(pres, 3, window=3)]
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
