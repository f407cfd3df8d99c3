"""Conjugacy decisions: the cyclic criterion, witnesses, and a brute-force oracle."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Set, Tuple

from .presentation import GroupPresentation, InvariantError, PresentationError
from .words import (
    Element,
    _blockers,
    _check_same,
    _push,
    _supported_in,
    conjugate,
    identity,
    invert,
    iter_ball,
    multiply,
)
from .cyclic import _rotations, commuting_factors, cyclically_reduce, ps_decompose


class ConjugacyVerdict(NamedTuple):
    conjugate: bool
    conjugator: Optional[Element]  # w with w x w^-1 = y when conjugate
    refutation: Optional[str]  # first failing condition otherwise


def conjugate_in_clique_subgroup(
    pres: GroupPresentation, clique: Iterable[str], a: Element, b: Element
) -> Tuple[bool, Optional[Element]]:
    """Componentwise conjugacy inside the direct product over a clique.

    Both elements must be supported in the clique; on success the product of
    the per-vertex conjugators is returned.
    """
    ids = sorted({pres.vertex_index(v) for v in clique})
    for i, ui in enumerate(ids):
        for vi in ids[i + 1 :]:
            if vi not in pres.iadj[ui]:
                u, v = pres.vertices[ui], pres.vertices[vi]
                raise PresentationError(f"{u!r} and {v!r} are not adjacent: not a clique")
    for e in (a, b):
        if not _supported_in(e.key, ids):
            raise PresentationError("element not supported in the clique")
    values_a = {vi: val for vi, val in a.key}
    values_b = {vi: val for vi, val in b.key}
    conj_key = []
    for vi in ids:
        group = pres.by_index[vi]
        va = values_a.get(vi, group.identity_key)
        vb = values_b.get(vi, group.identity_key)
        t = group.conjugator_key(va, vb)
        if t is None:
            return False, None
        if t != group.identity_key:
            conj_key.append((vi, t))
    return True, Element(pres, tuple(conj_key))  # commuting, ascending: canonical


def are_conjugate(x: Element, y: Element) -> ConjugacyVerdict:
    """Decide x ~ y, returning a verified conjugator or the first failed test.

    Both inputs are cyclically reduced first; the reduced cores are conjugate
    iff they share support and length, their moving parts are cyclic
    permutations of each other, and their clique parts are conjugate
    componentwise.  The moving parts are matched per commuting factor, so the
    rotations enumerated are the sum, not the product, of the factor closures.
    """
    _check_same(x, y)
    pres = x.pres
    rx = cyclically_reduce(x)
    ry = cyclically_reduce(y)
    x0, y0 = rx.reduced, ry.reduced
    if x0.support() != y0.support():
        return ConjugacyVerdict(False, None, "support-mismatch")
    if len(x0) != len(y0):
        return ConjugacyVerdict(False, None, "length-mismatch")
    psx = ps_decompose(x0)
    psy = ps_decompose(y0)
    rotation = _rotation_conjugator(psx.p_part, psy.p_part)  # rotation^-1 p(x0) rotation = p(y0)
    if rotation is None:
        return ConjugacyVerdict(False, None, "p-part-not-cyclic-permutation")
    ok, t = conjugate_in_clique_subgroup(pres, psx.s_vertices, psx.s_part, psy.s_part)
    if not ok:
        return ConjugacyVerdict(False, None, "s-part-not-conjugate")
    core = multiply(t, invert(rotation))  # core x0 core^-1 = y0
    w = multiply(multiply(ry.conjugator, core), invert(rx.conjugator))
    if conjugate(w, x) != y:
        raise InvariantError("the conjugator fails its re-check")
    return ConjugacyVerdict(True, w, None)


class BruteForceConjugacy(NamedTuple):
    status: str  # "yes" or "exhausted"
    conjugator: Optional[Element]

    @property
    def found(self) -> bool:
        return self.status == "yes"


def brute_force_conjugate(x: Element, y: Element, radius: int) -> BruteForceConjugacy:
    """Search the whole conjugator ball of the given radius for w x w^-1 = y.

    Integer-vertex exponents of candidate conjugators range over
    [-radius, radius].  A hit is certified; running out of candidates is
    reported as "exhausted", which is weaker than a non-conjugacy proof.

    The first hit in ball order is returned without walking the whole ball.
    Reduced words have minimal length, so |a| - |b| <= |a·b| <= |a| + |b|,
    and a hit w·x = y·w needs |y·w| = |w·x|: x is pushed onto w only when
    |w| - |x| <= |y·w| <= |w| + |x|.  The walk extends w to elements w·q
    with |q| <= radius - |w|, each within |q| of |y·w|, so w is extended
    only while |w| - |x| <= |y·w| <= |x| + 2·radius - |w|.
    """
    _check_same(x, y)
    pres, x_key, blocked = x.pres, x.key, _blockers(x.pres, x.key)
    n, reach = len(x_key), len(x_key) + 2 * radius

    def keep(w, yw):
        return len(w) - n <= len(yw) <= reach - len(w)

    for w, yw in iter_ball(pres, radius, left=y, keep=keep):
        if not len(w) - n <= len(yw) <= len(w) + n:
            continue
        if w and w[-1][0] in blocked:  # w·x is the concatenation
            hit = w + x_key == yw
        else:
            wx = list(w)  # w·x, as one _push of x's key onto w's
            _push(pres, wx, x_key)
            hit = tuple(wx) == yw
        if hit:
            return BruteForceConjugacy("yes", Element(pres, w))
    return BruteForceConjugacy("exhausted", None)


def conjugacy_class_in_ball(x: Element, radius: int) -> Set[Element]:
    """All conjugates of x under conjugators from the radius ball."""
    return {conjugate(Element(x.pres, w), x) for w in iter_ball(x.pres, radius)}


def _rotation_conjugator(g: Element, g_prime: Element) -> Optional[Element]:
    """The p with p^-1 g p = g_prime for a cyclically reduced g, or None if
    g_prime is not a cyclic permutation of g.

    Rotating one commuting factor leaves the others in place, so g_prime is a
    cyclic permutation of g iff each factor of g_prime is a cyclic
    permutation of the matching factor of g.  A rotation of a cyclically
    reduced factor only permutes its syllables, so a factor whose sorted key
    differs from its target's is refuted before any rotation is built.
    Otherwise the factor's closure is walked until it reaches the target.  p
    is the product of the per-factor conjugators: the same element that the
    closure of the whole of g records.
    """
    factors = commuting_factors(g)
    factors_prime = commuting_factors(g_prime)
    if factors.keys() != factors_prime.keys():
        return None
    pres = g.pres
    p = identity(pres)
    for root, factor in factors.items():
        target = factors_prime[root].key
        if sorted(factor.key) != sorted(target):
            return None
        conj = next((c for key, c in _rotations(pres, factor.key) if key == target), None)
        if conj is None:
            return None
        p = multiply(p, Element(pres, conj))
    return p
