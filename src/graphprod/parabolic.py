"""Parabolic subgroups: closures of cyclic subgroups, normalizers, centralizers.

A parabolic subgroup is a conjugate h G_A h^-1 of a full subgroup; membership
is the syntactic test supp(h^-1 u h) <= A, which is exact because full
subgroups are closed under taking canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional

from .presentation import GroupPresentation, InvariantError, PresentationError, link_of
from .words import (
    Element,
    _check_same,
    _supported_in,
    conjugate,
    identity,
    invert,
    iter_ball,
    multiply,
    retract_key,
)
from .cyclic import cyclically_reduce, is_cyclically_reduced
from .amalgam import AmalgamView, amalgam_form


@dataclass(frozen=True)
class ParabolicSubgroup:
    """h G_A h^-1, stored as the conjugator h and the core vertex set A."""

    conjugator: Element
    core: frozenset

    @property
    def pres(self) -> GroupPresentation:
        return self.conjugator.pres

    @cached_property
    def conjugator_inverse(self) -> Element:
        return invert(self.conjugator)


def full_parabolic(pres: GroupPresentation, core: Iterable[str]) -> ParabolicSubgroup:
    return ParabolicSubgroup(identity(pres), frozenset(core))


def parabolic_closure_of_cyclic(g: Element) -> ParabolicSubgroup:
    """The minimal parabolic subgroup containing <g>.

    Cyclically reduce g = h g' h^-1; the closure is h G_supp(g') h^-1.
    The identity yields the trivial parabolic.
    """
    reduction = cyclically_reduce(g)
    return ParabolicSubgroup(reduction.conjugator, reduction.reduced.support())


def parabolic_membership(p: ParabolicSubgroup, u: Element) -> bool:
    _check_same(p.conjugator, u)
    moved = multiply(multiply(p.conjugator_inverse, u), p.conjugator)
    return moved.support() <= p.core


def normalizer_membership(p: ParabolicSubgroup, u: Element) -> bool:
    """u normalizes h G_S h^-1 iff h^-1 u h is supported in S union link(S)."""
    _check_same(p.conjugator, u)
    pres = p.pres
    allowed = p.core | link_of(pres.graph, p.core)
    moved = multiply(multiply(p.conjugator_inverse, u), p.conjugator)
    return moved.support() <= allowed


def parabolic_generators(p: ParabolicSubgroup) -> List[Element]:
    """One generating syllable list per core vertex, conjugated into place."""
    pres = p.pres
    gens = []
    for v in sorted(p.core, key=pres.vertex_index):
        vi = pres.vertex_index(v)
        group = pres.by_index[vi]
        if group.kind == "Z":
            keys = [1, -1]
        elif group.kind == "mod":
            keys = [1] if group.order > 1 else []
        else:
            keys = group.nontrivial_keys()
        for val in keys:
            gens.append(conjugate(p.conjugator, Element(pres, ((vi, val),))))
    return gens


def parabolics_equal(p1: ParabolicSubgroup, p2: ParabolicSubgroup) -> bool:
    """Mutual membership of generators; avoids canonicalizing the (h, A) pair."""
    return all(parabolic_membership(p2, g) for g in parabolic_generators(p1)) and all(
        parabolic_membership(p1, g) for g in parabolic_generators(p2)
    )


@dataclass(frozen=True)
class CentralizerStructureReport:
    core: frozenset  # the support of g, a full-subgroup core
    halo: frozenset  # link of the core
    ball_size: int
    centralizer: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def centralizer_structure_check(g: Element, radius: int) -> CentralizerStructureReport:
    """Check C(g) = C_{G_A}(g) * G_link(A) on a ball, for A the support of g.

    Requires g cyclically reduced, so that G_A is the parabolic closure of
    <g>.  Every centralizing ball element must be supported in A union
    link(A) with its A-retraction centralizing g; the factorization direction
    back is automatic and checked as well.
    """
    if not is_cyclically_reduced(g):
        raise PresentationError("element must be cyclically reduced; conjugate first")
    pres = g.pres
    core = g.support()
    halo = link_of(pres.graph, core)
    allowed_ids = {pres.vertex_index(v) for v in core | halo}
    core_ids = {pres.vertex_index(v) for v in core}
    members, violations = [], []
    count = 0
    for u in iter_ball(pres, radius):
        count += 1
        centralizes = multiply(u, g) == multiply(g, u)
        if _supported_in(u, allowed_ids):
            u_core = retract_key(pres, u.key, core_ids)
            factored = multiply(u_core, g) == multiply(g, u_core)
        else:
            factored = False
        if centralizes:
            members.append(u)
        if centralizes != factored:
            violations.append(u)
    return CentralizerStructureReport(
        core, halo, count, tuple(members), tuple(violations)
    )


@dataclass(frozen=True)
class AvoidingVertex:
    """A vertex certified to carry a maximal full subgroup missing g^G."""

    vertex: str
    core: Element  # the cyclically reduced conjugate of g
    consonant_length: int  # >= 1 certifies non-conjugacy into the complement


def maximal_full_avoiding(g: Element) -> AvoidingVertex:
    """A vertex v with g not conjugate into the full subgroup missing v.

    Take the cyclically reduced core g'; any vertex of its support works and
    the least is returned.  The certificate is the consonant count of g' at
    that apex: one or more consonants pin g' (hence g) outside every
    conjugate of the complementary maximal full subgroup.
    """
    if g.is_identity:
        raise ValueError("the identity lies in every full subgroup")
    pres = g.pres
    core = cyclically_reduce(g).reduced
    v = min(core.support(), key=pres.vertex_index)
    if len(pres.vertices) == 1:
        return AvoidingVertex(v, core, len(core))
    form = amalgam_form(AmalgamView(pres, v), core)
    if form.consonant_length < 1:
        raise InvariantError("the core has no consonant at a vertex of its support")
    return AvoidingVertex(v, core, form.consonant_length)


@dataclass(frozen=True)
class IntersectionResult:
    status: str  # "found" or "unknown"
    parabolic: Optional[ParabolicSubgroup]


def parabolic_intersection_search(
    p1: ParabolicSubgroup, p2: ParabolicSubgroup, radius: int
) -> IntersectionResult:
    """Search for a parabolic equal to p1 intersect p2, certified on a ball.

    Candidate cores run over subsets of core1 intersect core2, largest first;
    candidate conjugators over the radius ball.  A candidate is accepted when
    its generators lie in both parabolics and every ball element of the
    intersection lies in it.
    """
    _check_same(p1.conjugator, p2.conjugator)
    pres = p1.pres
    ball_elements = list(iter_ball(pres, radius))
    in_both = [u for u in ball_elements if parabolic_membership(p1, u) and parabolic_membership(p2, u)]
    common = sorted(p1.core & p2.core, key=pres.vertex_index)
    subsets: List[tuple] = [()]
    for v in common:
        subsets += [s + (v,) for s in subsets]
    subsets.sort(key=lambda s: (-len(s), tuple(pres.vertex_index(v) for v in s)))
    for core in subsets:
        for h in ball_elements:
            candidate = ParabolicSubgroup(h, frozenset(core))
            if not all(
                parabolic_membership(p1, gen) and parabolic_membership(p2, gen)
                for gen in parabolic_generators(candidate)
            ):
                continue
            if all(parabolic_membership(candidate, u) for u in in_both):
                return IntersectionResult("found", candidate)
    return IntersectionResult("unknown", None)
