"""Parabolic subgroups: closures of cyclic subgroups, normalizers, centralizers, intersections.

A parabolic subgroup is a conjugate h G_A h^-1 of a full subgroup; membership
is the syntactic test supp(h^-1 u h) <= A, which is exact because full
subgroups are closed under taking canonical forms.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple

from .presentation import GroupPresentation, PresentationError, link_of
from .words import (
    Element,
    _check_same,
    _compare_centralizer,
    _make,
    _supported_in,
    conjugate,
    identity,
    invert,
    multiply,
)
from .cyclic import cyclically_reduce, is_cyclically_reduced


class ParabolicSubgroup(NamedTuple):
    """h G_A h^-1, stored as the conjugator h and the core vertex set A."""

    conjugator: Element
    core: frozenset

    @property
    def pres(self) -> GroupPresentation:
        return self.conjugator.pres

    @property
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
    normal = p.core | link_of(p.pres.graph, p.core)
    return parabolic_membership(ParabolicSubgroup(p.conjugator, normal), u)


def parabolic_generators(p: ParabolicSubgroup) -> List[Element]:
    """One generating syllable list per core vertex, conjugated into place."""
    pres = p.pres
    gens = []
    for v in sorted(p.core, key=pres.vertex_index):
        vi = pres.vertex_index(v)
        group = pres.by_index[vi]
        if group.kind == "table":
            keys = group.nontrivial_keys()
        else:
            keys = [1] if group.order != 1 else []  # 1 generates Z and Z/n; Z/1 is trivial
        for val in keys:
            gens.append(conjugate(p.conjugator, Element(pres, ((vi, val),))))
    return gens


def parabolics_equal(p1: ParabolicSubgroup, p2: ParabolicSubgroup) -> bool:
    """Mutual membership of generators; avoids canonicalizing the (h, A) pair."""
    return all(parabolic_membership(p2, g) for g in parabolic_generators(p1)) and all(
        parabolic_membership(p1, g) for g in parabolic_generators(p2)
    )


class CentralizerStructureReport(NamedTuple):
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
    link(A); the factorization C_{G_A}(g) * G_link(A) then follows.

    The halo is adjacent to every core vertex, so the full subgroup on A
    union link(A) is the direct product G_A x G_link(A), and there u commutes
    with g exactly when its A-part does.  The walk decides that, so the
    formula asserts only that centralizers lie in A union link(A).
    """
    if not is_cyclically_reduced(g):
        raise PresentationError("element must be cyclically reduced; conjugate first")
    pres = g.pres
    core = g.support()
    halo = link_of(pres.graph, core)
    allowed_ids = {pres.vertex_index(v) for v in core | halo}

    def factored(u, centralizes):
        return centralizes and _supported_in(u, allowed_ids)

    return CentralizerStructureReport(core, halo, *_compare_centralizer(g, radius, factored))


class AvoidingVertex(NamedTuple):
    """A vertex certified to carry a maximal full subgroup missing g^G."""

    vertex: str
    core: Element  # the cyclically reduced conjugate of g
    consonant_length: int  # >= 1 certifies non-conjugacy into the complement


def maximal_full_avoiding(g: Element) -> AvoidingVertex:
    """A vertex v with g not conjugate into the full subgroup missing v.

    Take the cyclically reduced core g'; any vertex of its support works and
    the least is returned.  The certificate is the number of syllables of v
    in g'.  In a reduced key each of them is its own consonant at v, since
    two v-syllables with only link syllables between them would join; one or
    more consonants pin g' (hence g) outside every conjugate of the
    complementary maximal full subgroup.
    """
    if g.is_identity:
        raise ValueError("the identity lies in every full subgroup")
    core = cyclically_reduce(g).reduced
    vi = min(wi for wi, _ in core.key)
    return AvoidingVertex(g.pres.vertices[vi], core, sum(wi == vi for wi, _ in core.key))


def _peel_front(pres: GroupPresentation, key, ids):
    """Split key into its front-readable syllables on vertices in ids and the rest.

    One left-to-right pass: a syllable is peeled when its vertex is in ids and
    commutes with every syllable kept before it (the blockers).  On a reversed
    key it peels the back-readable syllables instead."""
    iadj = pres.iadj
    blockers: set = set()
    peeled, rest = [], []
    for vi, val in key:
        if vi in ids and blockers <= iadj[vi]:
            peeled.append((vi, val))
        else:
            rest.append((vi, val))
            blockers.add(vi)
    return peeled, rest


def parabolic_intersection(p1: ParabolicSubgroup, p2: ParabolicSubgroup) -> ParabolicSubgroup:
    """The parabolic p1 intersect p2, exactly, with its shortest conjugator.

    For p1 = h1 G_A h1^-1 and p2 = h2 G_B h2^-1, let g = h1^-1 h2, so that
    p1 intersect p2 = h1 (G_A intersect g G_B g^-1) h1^-1.  Peel off the
    front-readable syllables of g on A (their product is a), then the
    back-readable syllables of what is left on B (their product is b), so
    g = a d b as a reduced product.  The answer is (h1 a) G_C (h1 a)^-1 with
    C = {v in A & B : v is adjacent to every vertex of supp d}.  This is
    Antolin and Minasyan, "Tits alternatives for graph products", J. reine
    angew. Math. 704 (2015), section 3; the Coxeter case is Kilmoyer's
    W_I intersect d W_J d^-1 = W_(I intersect d J d^-1) for the minimal
    double-coset representative d.

    Sketch of proof, in the heap (trace) of a reduced word:

    * d is the shortest element of G_A g G_B.  The back peel exposes no new
      front syllable on A: a syllable blocked from the front by a syllable
      the back peel removed does not commute with it and comes after it, so
      it was removed too.  For x in G_A and y in G_B, x.d is reduced, since
      d has no front syllable on A, and y can only cancel against syllables
      of x that commute with all of d, since d has no back syllable on B.
      So every syllable of d survives in x d y, and |x d y| >= |d|.
    * G_A intersect d G_B d^-1 = G_C.  Each v in C commutes with d, so G_C
      lies in both.  Conversely let u d = d y with u in G_A and y in G_B.
      Both u.d and d.y are reduced, so they are one heap.  The u-part U and
      the d-part D' of d.y are down-sets; a minimal syllable of U & D' would
      be a front syllable of d on A, so U misses D' and, as |u| = |y|, U is
      exactly the y-part.  U is then both a down-set and an up-set, so no
      syllable of u is comparable with one of d: supp u lies in A & B and
      every vertex of it is adjacent to all of supp d.  Hence u is in G_C.
    * The conjugator is canonical.  k G_C k^-1 = k' G_C k'^-1 iff k^-1 k'
      normalizes G_C, and the normalizer of G_C is G_(C | link C) (see
      normalizer_membership).  The valid conjugators are the coset
      (h1 a) G_(C | link C); peeling the back-readable syllables of h1 a on
      C | link C leaves its unique shortest element.  When C is empty,
      link C is every vertex, so every element is a valid conjugator and the
      identity is returned.

    A vertex with a trivial group (cyclic 1) carries no syllables, so it may
    sit in C without changing the subgroup, and it enlarges the normalizer.
    For such inputs the returned pair is a correct parabolic, but neither
    its core nor its conjugator need be the shortest description.
    """
    _check_same(p1.conjugator, p2.conjugator)
    pres = p1.pres
    a_ids = {pres.vertex_index(v) for v in p1.core}
    b_ids = {pres.vertex_index(v) for v in p2.core}
    g = multiply(p1.conjugator_inverse, p2.conjugator)
    a, rest = _peel_front(pres, g.key, a_ids)
    _, d = _peel_front(pres, rest[::-1], b_ids)
    d_ids = {vi for vi, _ in d}
    core = frozenset(pres.vertices[vi] for vi in a_ids & b_ids if d_ids <= pres.iadj[vi])
    k = _make(pres, p1.conjugator.key + tuple(a))
    normal_ids = {pres.vertex_index(v) for v in core | link_of(pres.graph, core)}
    _, kept = _peel_front(pres, k.key[::-1], normal_ids)
    # dropping back-readable syllables of a canonical key leaves it canonical
    return ParabolicSubgroup(Element(pres, tuple(kept[::-1])), core)


class IntersectionResult(NamedTuple):
    status: str  # always "found"
    parabolic: ParabolicSubgroup


def parabolic_intersection_search(
    p1: ParabolicSubgroup, p2: ParabolicSubgroup, radius: int
) -> IntersectionResult:
    """The former ball search, kept under its name: always ("found", exact answer).

    Only perfbench/ and the tests call it.  It returns parabolic_intersection's
    answer, which needs no radius; a negative radius is rejected as before.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return IntersectionResult("found", parabolic_intersection(p1, p2))
