import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus, parse_presentation
from graphprod.presentation import Word, WordError
from graphprod.words import (
    conjugate,
    element_of,
    identity,
    is_reduced_key,
    multiply,
    reduce,
)
from graphprod.cyclic import (
    cyclic_permutation_conjugators,
    cyclically_reduce,
    is_cyclically_reduced,
    ps_decompose,
)
from graphprod.selftest import check_cyclic_reduction, check_ps_split

from oracles import all_rotations_reduced, rotations_by_enumeration

PRESENTATIONS = corpus.corpus_presentations()


def words_strategy(pres, max_len=7):
    alphabet = corpus.syllable_alphabet(pres, 2)
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(lambda s: Word(tuple(s)))


def test_ps_decompose_examples(star_racg, path_racg):
    e = element_of(star_racg, "c[1] l1[1]")
    ps = ps_decompose(e)
    assert ps.s_vertices == {"c", "l1"} and ps.p_vertices == set()
    assert ps.s_part == e and ps.p_part.is_identity

    e2 = element_of(path_racg, "a[1] c[1]")
    ps2 = ps_decompose(e2)
    assert ps2.s_vertices == set() and ps2.p_part == e2

    ps3 = ps_decompose(identity(path_racg))
    assert ps3.s_vertices == ps3.p_vertices == frozenset()


def test_is_cyclically_reduced_examples(path_racg, star_racg):
    assert not is_cyclically_reduced(element_of(path_racg, "a[1] c[1] a[1]"))
    assert is_cyclically_reduced(element_of(path_racg, "c[1]"))
    assert is_cyclically_reduced(element_of(star_racg, "c[1] l1[1]"))


def test_cyclically_reduce_examples(path_racg, free_zz):
    r = cyclically_reduce(element_of(path_racg, "a[1] c[1] a[1]"))
    assert r.reduced == element_of(path_racg, "c[1]")
    assert r.conjugator == element_of(path_racg, "a[1]")

    already = element_of(path_racg, "a[1] c[1]")
    r2 = cyclically_reduce(already)
    assert r2.reduced == already and r2.conjugator.is_identity

    g = element_of(free_zz, "x[1] y[2] x[2]")
    r3 = cyclically_reduce(g)
    assert r3.reduced == element_of(free_zz, "y[2] x[3]")
    assert r3.conjugator == element_of(free_zz, "x[1]")
    assert conjugate(r3.conjugator, r3.reduced) == g

    # x's back syllable cancels against the peeled x[1]; only then is y
    # readable at both ends, and both of its syllables cancel
    r4 = cyclically_reduce(element_of(free_zz, "x[1] y[1] x[1] y[-1] x[-1]"))
    assert (r4.reduced.key, r4.conjugator.key) == (((0, 1),), ((0, 1), (1, 1)))


def test_cyclic_permutations_examples(path_racg, free_zz):
    e = element_of(path_racg, "a[1] c[1]")
    perms = cyclic_permutation_conjugators(e).keys()
    assert perms == {e, element_of(path_racg, "c[1] a[1]")}

    single = element_of(free_zz, "x[3]")
    assert cyclic_permutation_conjugators(single).keys() == {single}

    ab = element_of(path_racg, "a[1] b[1]")
    assert cyclic_permutation_conjugators(ab).keys() == {ab}


def test_cyclic_permutations_requires_cyclically_reduced(path_racg):
    with pytest.raises(WordError):
        cyclic_permutation_conjugators(element_of(path_racg, "a[1] c[1] a[1]"))


@pytest.mark.parametrize("k", [3, 4])
def test_one_factor_has_two_to_the_k_rotations(k):
    # b is adjacent to no x and the x's form a clique, so b x0 ... x(k-1) is one
    # commuting factor whose rotations are S b (X - S) for every subset S of X
    xs = [f"x{i}" for i in range(k)]
    doc = {
        "vertices": [{"name": v, "group": "Z"} for v in ["b"] + xs],
        "edges": [[u, v] for i, u in enumerate(xs) for v in xs[i + 1 :]],
    }
    pres = parse_presentation(json.dumps(doc))
    g = element_of(pres, "b[1] " + " ".join(f"{x}[1]" for x in xs))
    perms = cyclic_permutation_conjugators(g).keys()
    assert perms == rotations_by_enumeration(pres, g)
    assert len(perms) == 2**k


def test_rotation_conjugators_verify(path_racg, free_zz, triangle_mixed):
    for pres, text in (
        (path_racg, "a[1] c[1]"),
        (free_zz, "x[1] y[2] x[3] y[-1]"),
        (triangle_mixed, "u[t] v[2]"),
    ):
        e = element_of(pres, text)
        for perm, prefix in cyclic_permutation_conjugators(e).items():
            assert multiply(multiply(conjugate(prefix, perm), identity(pres)), identity(pres)) == e
            assert len(perm) == len(e)
            assert perm.support() == e.support()


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_cyclic_reduction_contract_random(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(7)
    for _ in range(120):
        g = reduce(pres, corpus.random_word(pres, rng, 8))
        check_cyclic_reduction(g)
        r = cyclically_reduce(g)
        again = cyclically_reduce(r.reduced)
        assert again.reduced == r.reduced and again.conjugator.is_identity


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_ps_identities(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    g = reduce(pres, data.draw(words_strategy(pres)))
    check_ps_split(g)
    ps = ps_decompose(g)
    assert len(ps.s_part) + len(ps.p_part) == len(g)
    assert ps.s_part.support() == ps.s_vertices
    assert ps.p_part.support() == ps.p_vertices
    assert ps_decompose(ps.p_part).s_vertices == frozenset()


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_cyclic_criterion_equivalences(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    check_ps_split(reduce(pres, data.draw(words_strategy(pres))))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cyclic_criterion_matches_definition_by_enumeration(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    g = reduce(pres, data.draw(words_strategy(pres, max_len=5)))
    definitional = all_rotations_reduced(pres, g, is_reduced_key)
    assert is_cyclically_reduced(g) == definitional


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_cyclic_permutations_match_enumeration(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    g = reduce(pres, data.draw(words_strategy(pres, max_len=5)))
    if not is_cyclically_reduced(g):
        g = cyclically_reduce(g).reduced
    assert cyclic_permutation_conjugators(g).keys() == rotations_by_enumeration(pres, g)
