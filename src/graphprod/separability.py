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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .presentation import (
    GroupPresentation,
    IntegersModGroup,
    InvariantError,
    PresentationError,
    induced_presentation,
)
from .words import Element, Key, _check_same, _make
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
            groups[v] = IntegersModGroup(m)
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


class _FromBack(NamedTuple):
    """A key read from its back: positions count from the back syllable."""

    pres: GroupPresentation
    syllables: Key  # the key reversed
    support: frozenset  # the vertex indices
    last: Dict[Tuple[int, int], int]  # syllable -> the position of its frontmost copy
    back: Dict[int, int]  # vertex -> the position of its back-readable syllable


def _from_back(pres: GroupPresentation, key: Key) -> _FromBack:
    syllables = key[::-1]
    last = {syl: pos for pos, syl in enumerate(syllables)}
    read = _FromBack(pres, syllables, frozenset(vi for vi, _ in key), last, {})
    return read._replace(back=_heads(read, 0, set()))


def _heads(read: _FromBack, m: int, gone: set) -> Dict[int, int]:
    """Each vertex -> the position of its back-readable syllable once the
    first m positions and those in gone are removed.

    A syllable is back-readable when every syllable left behind it lies on
    its link.  The candidates are the vertices whose link holds every vertex
    met so far; the scan stops when none is left.
    """
    heads, candidates, iadj, syllables = {}, set(read.support), read.pres.iadj, read.syllables
    for pos in range(m, len(syllables)):
        if not candidates:
            break
        if pos not in gone:
            vi = syllables[pos][0]
            if vi in candidates:
                heads[vi] = pos
            candidates &= iadj[vi]
    return heads


def _boundary(a: _FromBack, b: _FromBack):
    """Cancel equal back-readable syllables of a and b until none are left.

    Returns m, the positions of a and of b cancelled beyond the first m, and
    the (a, b) position pairs left to join.  The common prefix of the two
    reversed keys, of length m, cancels as it stands, so it is taken at once.
    """
    x, y = a.syllables, b.syllables
    m, end = 0, min(len(x), len(y))
    while m < end and x[m] == y[m]:
        m += 1
    gone_a, gone_b = set(), set()
    heads_a, heads_b = (_heads(a, m, gone_a), _heads(b, m, gone_b)) if m else (a.back, b.back)
    while equal := [vi for vi, pos in heads_a.items() if vi in heads_b and x[pos] == y[heads_b[vi]]]:
        for vi in equal:
            gone_a.add(heads_a[vi])
            gone_b.add(heads_b[vi])
        heads_a, heads_b = _heads(a, m, gone_a), _heads(b, m, gone_b)
    return m, gone_a, gone_b, [(pos, heads_b[vi]) for vi, pos in heads_a.items() if vi in heads_b]


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
    reads = [_from_back(pres, e.key) for e in elements]
    # per element, as a and as b: the syllables that each of its pairs so far removes all copies of
    lost_a = [set(read.last) for read in reads]
    lost_b = [set(read.last) for read in reads]
    for i, a in enumerate(reads):
        for j in range(i + 1, len(reads)):
            b = reads[j]
            m, gone_a, gone_b, joins = _boundary(a, b)
            for pa, pb in joins:
                (vi, x), (_, y) = a.syllables[pa], b.syllables[pb]
                constraints[names[vi]].add(groups[vi].mul(x, groups[vi].inv(y)))
                gone_a.add(pa)
                gone_b.add(pb)
            if lost_a[i]:
                lost_a[i] = {syl for syl in lost_a[i] if a.last[syl] < m or a.last[syl] in gone_a}
            if lost_b[j]:
                lost_b[j] = {syl for syl in lost_b[j] if b.last[syl] < m or b.last[syl] in gone_b}
    for read, lost in zip(reads[:-1], lost_a):
        for vi, val in read.last.keys() - lost:
            constraints[names[vi]].add(val)
    for read, lost in zip(reads[1:], lost_b[1:]):
        for vi, val in read.last.keys() - lost:
            constraints[names[vi]].add(groups[vi].inv(val))


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
    once rest is 1 or a prime (always so past sqrt(n); `_is_prime` decides it
    below _MR_BOUND, where it is exact): the primes found and rest then give
    every divisor.  An unconstrained Z/n vertex keeps its group whenever the
    mode allows, so already-finite presentations get the identity family.
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
                    if (e or d == 1) and (rest == 1 or rest < _MR_BOUND and _is_prime(rest)):
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
    _collect_distinctness(constraints, list(dict.fromkeys(elements)))
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
    pres = f.pres
    joint = sorted(pres.vertex_index(v) for v in f.support() | g.support())
    sub = induced_presentation(pres, (pres.vertices[vi] for vi in joint))
    # the induced presentation keeps the vertex order and the edges among
    # the kept vertices, so renumbering maps a canonical key to a canonical key
    renumber = {vi: i for i, vi in enumerate(joint)}
    f_sub = Element(sub, tuple((renumber[vi], val) for vi, val in f.key))
    g_sub = Element(sub, tuple((renumber[vi], val) for vi, val in g.key))
    f0 = cyclically_reduce(f_sub).reduced
    g0 = cyclically_reduce(g_sub).reduced
    constraints: Dict[str, set] = {v: set() for v in sub.vertices}
    _collect_shape_constraints(constraints, [f0, g0])
    tag = verdict.refutation
    factors_f = commuting_factors(f0)
    for root, factor_g in commuting_factors(g0).items():
        if len(factor_g) > 1 and tag == "p-part-not-cyclic-permutation":
            # A rotation only permutes the syllables of a cyclically reduced
            # factor, so [f0, g0] already gave its values.  Two whole
            # rotations differ only in the factors where they differ, so the
            # per-factor products give the values of the whole closure up to
            # sign, which no modulus test d % m can see.
            rotations = sorted(cyclic_permutation_conjugators(factor_g))
            _collect_distinctness(constraints, [factors_f[root], *rotations])
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
