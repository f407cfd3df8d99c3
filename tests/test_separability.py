import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from graphprod import corpus, parse_presentation
from graphprod.presentation import CyclicGroup, FiniteTableGroup, PresentationError, Word
from graphprod.words import conjugate, element_of, multiply, reduce, retract_key, shape
from graphprod.cyclic import is_cyclically_reduced
from graphprod.conjugacy import are_conjugate
from graphprod.separability import (
    ALL_FINITE,
    QuotientFamily,
    _is_prime,
    _smallest_modulus,
    apply_quotient,
    conjugacy_witness,
    p_group_mode,
    parse_mode,
    residual_witness,
    shape_preserving_family,
)
from graphprod.selftest import check_witness
from oracles import is_prime_by_trial_division, smallest_modulus_by_scan

PRESENTATIONS = corpus.corpus_presentations()


def words_strategy(pres, max_len=5):
    alphabet = corpus.syllable_alphabet(pres, 2)
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(lambda s: Word(tuple(s)))


def test_apply_quotient_examples(single_z, path_racg):
    fam = QuotientFamily(single_z, {"x": 4}, ALL_FINITE)
    assert apply_quotient(fam, element_of(single_z, "x[6]")).render() == "x[2]"
    assert apply_quotient(fam, element_of(single_z, "x[4]")).is_identity

    keep = QuotientFamily(path_racg, {v: 2 for v in "abc"}, ALL_FINITE)
    e = element_of(path_racg, "a[1] c[1] a[1]")
    assert apply_quotient(keep, e).render() == e.render()


def test_family_validation(single_z, triangle_mixed):
    with pytest.raises(PresentationError):
        QuotientFamily(single_z, {"x": 0}, ALL_FINITE)
    with pytest.raises(PresentationError):
        QuotientFamily(single_z, {}, ALL_FINITE)
    with pytest.raises(PresentationError, match="power"):
        QuotientFamily(single_z, {"x": 6}, p_group_mode(2))
    # the C3 table-free vertex survives only in compatible modes
    moduli = {"u": None, "v": 3, "w": 4}
    QuotientFamily(triangle_mixed, moduli, ALL_FINITE)
    with pytest.raises(PresentationError):
        QuotientFamily(triangle_mixed, {"u": None, "v": 3, "w": 3}, ALL_FINITE)


def test_shape_preserving_examples(single_z, path_racg):
    fam = shape_preserving_family(
        [element_of(single_z, "x[1]"), element_of(single_z, "x[2]")], ALL_FINITE
    )
    assert fam.moduli == {"x": 3}

    fam2 = shape_preserving_family([element_of(single_z, "x[6]")], p_group_mode(2))
    assert fam2.moduli == {"x": 4}

    racg = shape_preserving_family([element_of(path_racg, "a[1] b[1] c[1]")], ALL_FINITE)
    assert racg.moduli == {"a": 2, "b": 2, "c": 2}
    racg2 = shape_preserving_family([element_of(path_racg, "a[1] b[1] c[1]")], p_group_mode(2))
    assert racg2.moduli == {"a": 2, "b": 2, "c": 2}


def test_residual_witness_examples(path_racg, single_z, free_zz):
    w = residual_witness(element_of(path_racg, "a[1] c[1] a[1]"))
    assert w.verify() and w.certificate_tag == "nontrivial-image"
    assert w.family.moduli == {"a": 2, "b": 2, "c": 2}

    w2 = residual_witness(element_of(single_z, "x[6]"), p_group_mode(2))
    assert w2.verify() and w2.family.moduli == {"x": 4}
    assert w2.images[0].render() == "x[2]"

    w3 = residual_witness(element_of(free_zz, "x[1] y[1]"), ALL_FINITE)
    assert w3.verify() and not w3.images[0].is_identity

    with pytest.raises(ValueError):
        residual_witness(reduce(path_racg, Word(())))


def test_conjugacy_witness_examples(single_z, path_racg, free_zz):
    w = conjugacy_witness(element_of(single_z, "x[1]"), element_of(single_z, "x[2]"), ALL_FINITE)
    assert w.verify()
    assert w.family.moduli == {"x": 3}
    assert w.certificate_tag == "s-part-not-conjugate"

    w2 = conjugacy_witness(element_of(path_racg, "a[1] c[1]"), element_of(path_racg, "b[1]"))
    assert w2.verify() and w2.certificate_tag == "support-mismatch"

    f = element_of(free_zz, "x[1] y[1] x[-1] y[-1]")
    g = element_of(free_zz, "x[2] y[2] x[-2] y[-2]")
    w3 = conjugacy_witness(f, g, p_group_mode(3))
    assert w3.verify()
    for m in w3.family.moduli.values():
        k = m
        while k % 3 == 0:
            k //= 3
        assert k == 1

    with pytest.raises(ValueError, match="conjugate"):
        conjugacy_witness(element_of(path_racg, "a[1] c[1]"), element_of(path_racg, "c[1] a[1]"))

    # The distinctness products r_i r_j^-1 (i < j) run over f's factor and then
    # the sorted rotations of g's: that order decides which side of each
    # product is inverted, and so which residues the error lists.
    doc = {"vertices": [{"name": "a", "group": "cyclic 5"}, {"name": "b", "group": "Z"}], "edges": []}
    free_c5_z = parse_presentation(json.dumps(doc))
    f = element_of(free_c5_z, "a[3] b[1] a[3] b[-1]")
    g = element_of(free_c5_z, "a[3] b[1] a[2] b[-1]")
    with pytest.raises(PresentationError, match=r"no admissible modulus at 'a' keeps \[1, 2, 3, 4\] nonzero"):
        conjugacy_witness(f, g, p_group_mode(2))


def test_witness_serialization_is_stable(single_z):
    w = conjugacy_witness(element_of(single_z, "x[1]"), element_of(single_z, "x[2]"), p_group_mode(2))
    assert w.to_json() == (
        '{"certificate_tag": "s-part-not-conjugate", "images": ["x[1]", "x[2]"], '
        '"mode": "p:2", "per_vertex_moduli": {"x": 4}}'
    )
    assert parse_mode("p:2") == p_group_mode(2)
    assert parse_mode("finite") == ALL_FINITE
    for text in ("prime:2", "p:4", "p:1"):
        with pytest.raises(ValueError):
            parse_mode(text)
    # "\u00b2".isdigit() holds, but int() cannot read it
    with pytest.raises(ValueError, match="unknown class mode"):
        parse_mode("p:\u00b2")


def test_retraction_examples(path_racg):
    e = element_of(path_racg, "a[1] c[1] b[1]")
    a, b, c = (path_racg.vertex_index(v) for v in "abc")
    assert retract_key(path_racg, e.key, {a, b}).render() == "a[1] b[1]"
    assert retract_key(path_racg, e.key, set()).is_identity
    assert retract_key(path_racg, e.key, {a, b, c}) == e


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_retraction_is_idempotent_homomorphism(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    sub = data.draw(st.sets(st.sampled_from(range(len(pres.vertices)))))
    a = reduce(pres, data.draw(words_strategy(pres)))
    b = reduce(pres, data.draw(words_strategy(pres)))
    ra = retract_key(pres, a.key, sub)
    assert retract_key(pres, ra.key, sub) == ra
    assert retract_key(pres, multiply(a, b).key, sub) == multiply(ra, retract_key(pres, b.key, sub))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_quotient_homomorphism_law(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    a = reduce(pres, data.draw(words_strategy(pres)))
    b = reduce(pres, data.draw(words_strategy(pres)))
    nontrivial = [e for e in (a, b, multiply(a, b)) if not e.is_identity]
    if not nontrivial:
        return
    fam = shape_preserving_family(nontrivial, ALL_FINITE)
    assert apply_quotient(fam, multiply(a, b)) == multiply(apply_quotient(fam, a), apply_quotient(fam, b))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_shape_preservation(data):
    pres = PRESENTATIONS[data.draw(st.sampled_from(sorted(PRESENTATIONS)))]
    elements = [reduce(pres, data.draw(words_strategy(pres))) for _ in range(2)]
    fam = shape_preserving_family(elements, ALL_FINITE)
    for e in elements:
        image = apply_quotient(fam, e)
        assert len(image) == len(e)
        assert image.support() == e.support()
        assert shape(image).first_letters == shape(e).first_letters
        if is_cyclically_reduced(e):
            assert is_cyclically_reduced(image)
    if elements[0] != elements[1]:
        assert apply_quotient(fam, elements[0]) != apply_quotient(fam, elements[1])


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_witness_soundness_random(name):
    pres = PRESENTATIONS[name]
    rng = random.Random(29)
    elements = corpus.corpus_elements(pres, max_len=3)
    sample = sorted({elements[rng.randrange(len(elements))] for _ in range(10)})
    modes = [ALL_FINITE]
    if name in ("free-zz", "edge-zz"):
        modes += [p_group_mode(2), p_group_mode(3)]
    elif name in ("path-racg", "star-racg"):
        modes.append(p_group_mode(2))
    for mode in modes:
        for x in sample:
            if not x.is_identity:
                check_witness(residual_witness(x, mode))
        built = 0
        for x in sample:
            for y in sample:
                if built >= 8:
                    break
                if not are_conjugate(x, y).conjugate:
                    check_witness(conjugacy_witness(x, y, mode))
                    built += 1


def test_smallest_modulus_matches_divisor_scan():
    """Every Z/n with n <= 2000, and n = 2q, 6q, 12q and p^2 whose trial division
    stops early, in modes finite, p:2 and p:3, against the 1..n divisor list."""
    needed_sets = [set(), {1}, {2, 3}, {4, 9, 25}, {6, 10, 15, 49}, {12, 60, 7, 1024}, set(range(1, 13))]
    modes = [(ALL_FINITE, None), (p_group_mode(2), 2), (p_group_mode(3), 3)]
    q, p = 10007, 1009
    for n in [*range(1, 2001), 2 * q, 6 * q, 12 * q, 2 * 65537, p * p, 4 * p * p]:
        group = CyclicGroup(n)
        for needed in needed_sets:
            for mode, p in modes:
                expected = smallest_modulus_by_scan(n, needed, p)
                if expected is None:
                    with pytest.raises(PresentationError):
                        _smallest_modulus(group, needed, mode, "a")
                else:
                    assert _smallest_modulus(group, needed, mode, "a") == expected, (n, needed, p)


def test_smallest_modulus_of_z_and_table_vertices():
    """A Z vertex gets the least m >= 1 (in p-mode the least power of p) dividing no
    needed value, by a plain increasing scan; a table vertex is kept."""
    needed_sets = [set(), {1}, {2, 3}, {-4, 9, 25}, {6, -10, 15, 49}, {12, 60, 7, 1024}, set(range(1, 40))]
    for mode in [ALL_FINITE, p_group_mode(2), p_group_mode(3)]:
        for needed in needed_sets:
            m = 1
            while any(d % m == 0 for d in needed):
                m = m * mode.p if mode.is_p_mode else m + 1
            assert _smallest_modulus(CyclicGroup(), needed, mode, "a") == m, (needed, mode)
    table = FiniteTableGroup(["e", "t", "tt"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    for mode in [ALL_FINITE, p_group_mode(3)]:
        assert _smallest_modulus(table, {1, 2}, mode, "t") is None


def test_primality_matches_trial_division():
    assert [p for p in range(10**5) if _is_prime(p)] == [p for p in range(10**5) if is_prime_by_trial_division(p)]
    with pytest.raises(ValueError, match="prime"):
        p_group_mode(3825123056546413051)  # a strong pseudoprime to the bases 2 to 23
    assert p_group_mode(2**61 - 1).p == 2**61 - 1
    start = time.perf_counter()
    assert parse_mode("p:1000000000000000003").p == 1000000000000000003
    assert time.perf_counter() - start < 0.1


def test_verify_rejects_swapped_images(free_zz):
    w = conjugacy_witness(element_of(free_zz, "x[1] y[1]"), element_of(free_zz, "x[1] y[2]"))
    assert w.verify()
    assert not w._replace(images=w.images[::-1]).verify()


def dihedral_table(n):
    """The dihedral group of order 2n as a table; r^i s^j is named r<i> followed by j s's."""
    elements = [(i, j) for j in (0, 1) for i in range(n)]
    index = {e: k for k, e in enumerate(elements)}
    mul = [[index[((i - k if a else i + k) % n, a ^ b)] for k, b in elements] for i, a in elements]
    return {"table": {"elements": [f"r{i}" + "s" * j for i, j in elements], "mul": mul, "identity": 0}}


# Vertex groups that are p-HCS in each mode: Z, and finite p-groups (D4 has
# order 8); in mode finite, Z and any finite group (S3 is the dihedral group of order 6).
HCS_VERTEX_GROUPS = {
    "p:2": ["Z", "cyclic 2", "cyclic 4", "cyclic 8", dihedral_table(4)],
    "p:3": ["Z", "cyclic 3", "cyclic 9"],
    "finite": ["Z", "cyclic 2", "cyclic 3", dihedral_table(3)],
}
REFUTATION_TAGS = {"support-mismatch", "length-mismatch", "p-part-not-cyclic-permutation", "s-part-not-conjugate"}


@pytest.mark.parametrize("mode_text", sorted(HCS_VERTEX_GROUPS))
def test_graph_products_of_hcs_groups_have_every_witness(mode_text):
    """The paper's theorem: graph products of p-HCS groups are p-HCS, and in
    mode finite graph products of HCS groups are HCS.  So over the mode's
    vertex groups every nontrivial element has a residual witness and every
    non-conjugate pair a conjugacy witness, on 200 seeded presentations of 2-5
    vertices (edge probability 0.45).  Half the pairs are an element and a
    conjugate of it with one syllable changed, so that supports and lengths
    often agree."""
    mode, groups, rng = parse_mode(mode_text), HCS_VERTEX_GROUPS[mode_text], random.Random(2014)
    tags = set()
    for _ in range(200):
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        doc = {
            "vertices": [{"name": v, "group": rng.choice(groups)} for v in names],
            "edges": [[u, v] for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.45],
        }
        pres = parse_presentation(json.dumps(doc))
        alphabet = corpus.syllable_alphabet(pres)
        elements = []
        for _ in range(3):
            word = list(corpus.random_word(pres, rng, 6).syllables)
            elements.append(reduce(pres, Word(tuple(word))))
            if word:
                i = rng.randrange(len(word))
                word[i] = rng.choice([s for s in alphabet if s.vertex == word[i].vertex])
            elements.append(conjugate(reduce(pres, corpus.random_word(pres, rng, 3)), reduce(pres, Word(tuple(word)))))
        for g in set(elements):
            if not g.is_identity:
                check_witness(residual_witness(g, mode))
        for i in range(0, len(elements), 2):
            for f, g in ((elements[i], elements[i + 1]), (elements[i], elements[i - 1])):
                verdict = are_conjugate(f, g)
                if not verdict.conjugate:
                    witness = conjugacy_witness(f, g, mode)
                    check_witness(witness)
                    tags.add(verdict.refutation)
    assert tags == REFUTATION_TAGS
