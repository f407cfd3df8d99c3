"""Finite-quotient witnesses: vertex-wise quotients that separate elements.

A quotient family keeps finite-table vertex groups and replaces integer-type
vertex groups by integers mod m; the vertex maps extend to the graph products
because the graph is unchanged.  Witnesses record such a family together with
a certificate that the images stay distinct or non-conjugate, re-checkable in
the target from the stored data alone.
"""

from __future__ import annotations

import json
import math
from itertools import count, takewhile
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from .presentation import (
    CyclicGroup,
    GroupPresentation,
    InvariantError,
    PresentationError,
    induced_presentation,
)
from .words import Element, Key, _check_same, _front_letters, _make
from .cyclic import commuting_factors, cyclic_permutation_conjugators, cyclically_reduce
from .conjugacy import are_conjugate


class ClassMode(NamedTuple):
    """All finite quotients, or only quotients of p-power order."""

    p: Optional[int] = None

    @property
    def is_p_mode(self) -> bool:
        return self.p is not None

    def render(self) -> str:
        return "finite" if self.p is None else f"p:{self.p}"


ALL_FINITE = ClassMode()


# The first 13 primes, and the least strong pseudoprime to all of them as bases
# (Sorenson and Webster, Math. Comp. 86 (2017)): below it Miller-Rabin is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over _MR_BASES; exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_group_mode(p: int) -> ClassMode:
    if p >= _MR_BOUND:
        raise ValueError(f"p must be below {_MR_BOUND} to be tested for primality exactly, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    return ClassMode(p)


def parse_mode(text: str) -> ClassMode:
    if text == "finite":
        return ALL_FINITE
    if text.startswith("p:") and text[2:].isdecimal():
        return p_group_mode(int(text[2:]))
    raise ValueError(f"unknown class mode {text!r} (expected finite or p:<prime>)")


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class QuotientFamily:
    """Per-vertex quotient choices over a fixed source presentation.

    moduli maps each vertex to an int (integer-type vertex groups map onto
    the integers mod that value) or None (finite-table group kept as is).
    """

    def __init__(self, pres: GroupPresentation, moduli: Dict[str, Optional[int]], mode: ClassMode):
        if set(moduli) != set(pres.vertices):
            raise PresentationError("need one quotient choice per vertex")
        groups = {}
        for v in pres.vertices:
            group = pres.groups[v]
            m = moduli[v]
            if group.kind == "table":
                if m is not None:
                    raise PresentationError("finite-table vertex groups are kept, not quotiented")
                if mode.is_p_mode and not _is_p_power(group.order, mode.p):
                    raise PresentationError(
                        f"table group at {v!r} has order {group.order}, not a power of {mode.p}"
                    )
                groups[v] = group
                continue
            if not isinstance(m, int) or m < 1:
                raise PresentationError(f"modulus at {v!r} must be a positive integer")
            if group.kind == "mod" and group.order % m != 0:
                raise PresentationError(f"modulus {m} does not divide {group.order} at {v!r}")
            if mode.is_p_mode and not _is_p_power(m, mode.p):
                raise PresentationError(f"modulus {m} at {v!r} is not a power of {mode.p}")
            groups[v] = CyclicGroup(m)
        self.pres = pres
        self.moduli = dict(moduli)
        self.mode = mode
        self.target = GroupPresentation(pres.graph, groups)


def apply_quotient(family: QuotientFamily, e: Element) -> Element:
    """Map an element through the family's extension homomorphism."""
    if e.pres is not family.pres:
        raise PresentationError("element does not belong to the family's presentation")
    target = family.target
    syllables = []
    for vi, val in e.key:
        group = target.by_index[vi]
        syllables.append((vi, val if group.kind == "table" else val % group.order))
    return _make(target, syllables)


def _collect_shape_constraints(constraints: Dict[str, set], elements: Iterable[Element]) -> None:
    for e in elements:
        names = e.pres.vertices
        for vi, val in e.key:
            constraints[names[vi]].add(val)


def _boundary(pres: GroupPresentation, a: Key, b: Key, back_a: Dict[int, int], back_b: Dict[int, int]):
    """Cancel equal back-readable syllables of a and b, two reversed keys with
    their `_front_letters` back_a and back_b, until none are left.

    Returns m, the positions of a and of b cancelled beyond the first m, and
    the (a, b) position pairs left to join.  The common prefix of the two
    reversed keys, of length m, cancels as it stands, so it is taken at once.
    """
    m, end = 0, min(len(a), len(b))
    while m < end and a[m] == b[m]:
        m += 1
    gone_a, gone_b = set(), set()
    if m:
        back_a, back_b = _front_letters(pres, a, gone_a, m), _front_letters(pres, b, gone_b, m)
    while equal := [vi for vi, pos in back_a.items() if vi in back_b and a[pos] == b[back_b[vi]]]:
        for vi in equal:
            gone_a.add(back_a[vi])
            gone_b.add(back_b[vi])
        back_a, back_b = _front_letters(pres, a, gone_a, m), _front_letters(pres, b, gone_b, m)
    return m, gone_a, gone_b, [(pos, back_b[vi]) for vi, pos in back_a.items() if vi in back_b]


def _collect_distinctness(constraints: Dict[str, set], elements: Sequence[Element]) -> None:
    """Add the syllable values of each reduced a·b^-1, a = elements[i] and
    b = elements[j] for i < j, without forming the product.

    The boundary lemma (Green, thesis, 1990; Hermiller and Meier, J. Algebra
    171 (1995)): cancel equal back-readable syllables of a and b until none
    are left, so that a = a'd and b = b'd.  Then a·b^-1 = a'·b'^-1, and its
    reduced form is a' followed by b'^-1, except that where a' and b' have
    back-readable syllables x and y on one vertex, the two meet and join to
    x·y^-1, which is not trivial since x != y.  A join removes no syllable,
    so no other pair meets and nothing more cancels.  The values are
    therefore the joins, the values of a's syllables and the inverses of
    b's, less the syllables that the pair cancels or joins.

    The union is exact.  A pair removes, per vertex, syllables from the back
    only, so it removes every copy of a syllable iff it removes the copy
    nearest the front.  The value of a's syllable s is in the product of
    some pair (i, j) iff some such pair keeps a copy of s, that is, iff s is
    not among the syllables that every pair (i, j) removes all copies of;
    likewise for b.  So each pair looks only at its boundary, and each
    element adds its values once, at the end.
    """
    if len(elements) < 2:
        return
    pres = elements[0].pres
    names, groups = pres.vertices, pres.by_index
    keys = [e.key[::-1] for e in elements]
    backs = [_front_letters(pres, key) for key in keys]
    lasts = [{syl: pos for pos, syl in enumerate(key)} for key in keys]  # syllable -> its frontmost copy
    # per element, as a and as b: the syllables that each of its pairs so far removes all copies of
    lost_a = [set(last) for last in lasts]
    lost_b = [set(last) for last in lasts]
    for i, a in enumerate(keys):
        for j, b in enumerate(keys[i + 1 :], i + 1):
            m, gone_a, gone_b, joins = _boundary(pres, a, b, backs[i], backs[j])
            for pa, pb in joins:
                (vi, x), (_, y) = a[pa], b[pb]
                constraints[names[vi]].add(groups[vi].mul(x, groups[vi].inv(y)))
                gone_a.add(pa)
                gone_b.add(pb)
            if lost_a[i]:
                lost_a[i] = {syl for syl in lost_a[i] if lasts[i][syl] < m or lasts[i][syl] in gone_a}
            if lost_b[j]:
                lost_b[j] = {syl for syl in lost_b[j] if lasts[j][syl] < m or lasts[j][syl] in gone_b}
    for last, lost in zip(lasts[:-1], lost_a):
        for vi, val in last.keys() - lost:
            constraints[names[vi]].add(val)
    for last, lost in zip(lasts[1:], lost_b[1:]):
        for vi, val in last.keys() - lost:
            constraints[names[vi]].add(groups[vi].inv(val))


def _on_support(elements: Sequence[Element]) -> List[Element]:
    """The elements on the presentation induced on their joint support, which keeps the vertex
    order and the edges among the kept vertices, so renumbering keeps each key canonical."""
    pres = elements[0].pres
    joint = sorted({vi for e in elements for vi, _ in e.key})
    sub = induced_presentation(pres, (pres.vertices[vi] for vi in joint))
    renumber = {vi: i for i, vi in enumerate(joint)}
    return [Element(sub, tuple((renumber[vi], val) for vi, val in e.key)) for e in elements]


def _family_from_constraints(
    pres: GroupPresentation, constraints: Dict[str, set], mode: ClassMode
) -> QuotientFamily:
    moduli = {v: _smallest_modulus(pres.groups[v], constraints.get(v, set()), mode, v) for v in pres.vertices}
    return QuotientFamily(pres, moduli, mode)


def _smallest_modulus(group, needed: set, mode: ClassMode, vertex: str) -> Optional[int]:
    """The vertex's modulus: None for a finite-table group, which is kept, and
    otherwise the first candidate, in increasing order, that keeps every
    constraint value nonzero.

    The candidates are every m >= 1 for Z, and for Z/n each divisor d up to
    sqrt(n) as trial division finds it, then the larger divisors in
    increasing order; in p-mode only the powers of p (that divide n).  Trial
    division divides each prime it finds out of the cofactor rest and stops
    once rest is 1 or `_is_prime(rest)`: the primes found and rest then give
    every divisor, unless rest >= _MR_BOUND is a strong pseudoprime to all 13
    bases, whose divisors a stop would skip; each candidate still divides n.
    An unconstrained Z/n vertex keeps its group whenever the mode allows, so
    already-finite presentations get the identity family.
    """
    if group.kind == "table":
        return None
    n, p = group.order, mode.p
    if n is not None and not needed and (p is None or _is_p_power(n, p)):
        return n
    if p is not None:
        candidates = (p**k for k in count())
        if n is not None:
            candidates = takewhile(lambda m: n % m == 0, candidates)
    elif n is None:
        candidates = count(1)
    else:
        def divisors():
            rest, known = n, [1]  # known: the divisors of n // rest
            for d in range(1, math.isqrt(n) + 1):
                if n % d == 0:
                    yield d
                    e = 0
                    while d > 1 and rest % d == 0:  # only a prime d divides rest
                        rest, e = rest // d, e + 1
                    if e:
                        known = [k * d**i for k in known for i in range(e + 1)]
                    if (e or d == 1) and (rest == 1 or _is_prime(rest)):
                        break
            every = known if rest == 1 else known + [k * rest for k in known]
            yield from sorted(m for m in every if m > d)

        candidates = divisors()
    for m in candidates:
        if all(d % m for d in needed):
            return m
    raise PresentationError(f"no admissible modulus at {vertex!r} keeps {sorted(needed)} nonzero")


def shape_preserving_family(elements: Sequence[Element], mode: ClassMode) -> QuotientFamily:
    """Smallest per-vertex quotients under which every listed element keeps its
    length, support and end-letter data, and distinct listed elements stay
    distinct."""
    if not elements:
        raise ValueError("need at least one element")
    pres = elements[0].pres
    for e in elements:
        _check_same(elements[0], e)
    constraints: Dict[str, set] = {v: set() for v in pres.vertices}
    _collect_shape_constraints(constraints, elements)
    distinct = list(dict.fromkeys(elements))  # read on their support, where the scans can stop early
    _collect_distinctness(constraints, _on_support(distinct) if len(distinct) > 1 else distinct)
    return _family_from_constraints(pres, constraints, mode)


class SeparationWitness(NamedTuple):
    """A quotient family with re-checkable evidence that images separate."""

    family: QuotientFamily
    inputs: tuple  # source elements, in the family's presentation
    images: tuple  # their images in the target
    certificate_tag: str  # refutation tag, or "nontrivial-image"

    def verify(self) -> bool:
        """Recompute the images and re-run the certificate in the target."""
        recomputed = tuple(apply_quotient(self.family, e) for e in self.inputs)
        if recomputed != self.images:
            return False
        if self.certificate_tag == "nontrivial-image":
            return len(self.images) == 1 and not self.images[0].is_identity
        verdict = are_conjugate(self.images[0], self.images[1])
        return not verdict.conjugate and verdict.refutation == self.certificate_tag

    def to_json(self) -> str:
        return json.dumps(
            {
                "certificate_tag": self.certificate_tag,
                "images": [img.render() for img in self.images],
                "mode": self.family.mode.render(),
                "per_vertex_moduli": self.family.moduli,  # sort_keys orders these too
            },
            sort_keys=True,
        )


def residual_witness(g: Element, mode: ClassMode = ALL_FINITE) -> SeparationWitness:
    """A finite-vertex quotient in which g survives as a nontrivial element."""
    if g.is_identity:
        raise ValueError("the identity cannot be separated from itself")
    family = shape_preserving_family([g], mode)
    image = apply_quotient(family, g)
    if image.is_identity:
        raise InvariantError("the element dies in its shape-preserving quotient")
    return SeparationWitness(family, (g,), (image,), "nontrivial-image")


def conjugacy_witness(f: Element, g: Element, mode: ClassMode = ALL_FINITE) -> SeparationWitness:
    """A finite-vertex quotient in which the images stay non-conjugate.

    The inputs are retracted to their joint support, cyclically reduced, and
    the quotient is chosen per the failing conjugacy test: shape preservation
    for support/length failures; for rotation failures, also the rotations of
    each commuting factor of more than one syllable stay distinct from each
    other and from the other input's factor; and for clique-part failures,
    vertex-level separation of the one-syllable factors, which are the
    clique part.  The certificate re-runs the target decision.
    """
    _check_same(f, g)
    verdict = are_conjugate(f, g)
    if verdict.conjugate:
        raise ValueError("inputs are conjugate; no witness exists")
    f_sub, g_sub = _on_support([f, g])
    sub = f_sub.pres
    f0 = cyclically_reduce(f_sub).reduced
    g0 = cyclically_reduce(g_sub).reduced
    constraints: Dict[str, set] = {v: set() for v in sub.vertices}
    _collect_shape_constraints(constraints, [f0, g0])
    tag = verdict.refutation
    factors_f = commuting_factors(f0)
    for root, factor_g in commuting_factors(g0).items():
        if len(factor_g) > 1 and tag == "p-part-not-cyclic-permutation":
            # A rotation only permutes the syllables of a cyclically reduced factor, so
            # [f0, g0] already gave its values.  Two whole rotations differ only in the
            # factors where they differ, so the per-factor products give the values of the
            # whole closure up to sign, which no modulus test d % m can see.  On the
            # factor's own support, the readable-syllable scans stop once nothing is left.
            other, factor_g = _on_support([factors_f[root], factor_g])
            rotations = sorted(cyclic_permutation_conjugators(factor_g))
            _collect_distinctness(constraints, [other, *rotations])
        elif len(factor_g) == 1 and tag == "s-part-not-conjugate":
            (vi, a), (_, b) = factors_f[root].key[0], factor_g.key[0]
            if sub.by_index[vi].conjugator_key(a, b) is None:
                constraints[sub.vertices[vi]].update(x for x in (a, b, a - b) if x != 0)
    family = _family_from_constraints(sub, constraints, mode)
    images = (apply_quotient(family, f_sub), apply_quotient(family, g_sub))
    target_verdict = are_conjugate(images[0], images[1])
    if target_verdict.conjugate:
        raise InvariantError("the images are conjugate in the chosen quotient")
    return SeparationWitness(family, (f_sub, g_sub), images, target_verdict.refutation)
