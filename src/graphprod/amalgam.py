"""The splitting of a graph product over one vertex, and what it decides.

Removing a vertex v splits the group as an amalgam of the full subgroup on
the remaining vertices (the A-side) with the vertex group of v (the C-side),
glued along the full subgroup on link(v) (the H-side, which commutes with
the C-side).  Every element then has an essentially unique alternating form
x0 c1 x1 ... cn xn whose C-factors -- the consonants -- depend only on the
group element.
"""

from __future__ import annotations

import functools
from itertools import groupby
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .presentation import (
    GroupPresentation,
    InvariantError,
    PresentationError,
    SimplicialGraph,
    Word,
)
from .words import (
    Element,
    _check_same,
    _compare_centralizer,
    _make,
    _push,
    _supported_in,
    conjugate,
    identity,
    invert,
    iter_ball,
    key_of_word,
    multiply,
    power,
    reduce,
    retract_key,
)
from .cyclic import cyclically_reduce
from .conjugacy import are_conjugate


class AmalgamError(ValueError):
    """Bad splitting data or a violated amalgam precondition."""


class AmalgamView:
    """The splitting of the presentation over a single apex vertex."""

    def __init__(self, pres: GroupPresentation, apex: str):
        if len(pres.vertices) < 2:
            raise AmalgamError("single-vertex presentation does not split")
        self.pres = pres
        self.apex = apex
        self.apex_index = pres.vertex_index(apex)
        self.a_vertices = frozenset(v for v in pres.vertices if v != apex)
        self.h_vertices = pres.graph.link(apex)
        self.a_ids = frozenset(pres.vertex_index(v) for v in self.a_vertices)
        self.h_ids = frozenset(pres.vertex_index(v) for v in self.h_vertices)


def decompose_at(pres: GroupPresentation, apex: str) -> AmalgamView:
    return AmalgamView(pres, apex)


# ---------------------------------------------------------------------------
# Alternating forms.
# ---------------------------------------------------------------------------


class AmalgamForm(NamedTuple):
    """x0 c1 x1 ... cn xn with A-side pieces and single-vertex consonants."""

    x_pieces: tuple  # n+1 Elements supported on the A-side
    consonants: tuple  # n nontrivial keys of the apex vertex group

    @property
    def consonant_length(self) -> int:
        return len(self.consonants)


def _general_form(view: AmalgamView, key) -> AmalgamForm:
    """The alternating form of a key, interior x-pieces pushed out of the H-side.

    Each consonant is a nontrivial apex key, each interior x-piece has support
    outside the H-side, and the consonants depend only on the element.

    One left-to-right pass over the runs of A- and apex syllables, each x-piece
    a plain list.  An A-run is pushed onto the last piece.  An apex run becomes
    the product of its values, in order, and is skipped when that is the
    identity, so the pieces on either side of it merge.  Any other apex run
    first absorbs the previous consonant when the piece between them lies in
    the H-side, which commutes with the apex (that piece is pushed onto the one
    before it), and is kept unless that cancelled it.
    """
    pres, apex = view.pres, view.apex_index
    group, one = pres.by_index[apex], pres.identity_keys[apex]
    xs: List[list] = [[]]
    cs: List[int] = []
    for on_c, run in groupby(key, lambda s: s[0] == apex):
        if not on_c:
            _push(pres, xs[-1], run)
            continue
        c = functools.reduce(group.mul, (val for _, val in run))
        if c == one:
            continue
        if cs and _supported_in(xs[-1], view.h_ids):
            _push(pres, xs[-2], xs.pop())
            c = group.mul(cs.pop(), c)
            if c == one:
                continue
        cs.append(c)
        xs.append([])
    return AmalgamForm(tuple(Element(pres, tuple(x)) for x in xs), tuple(cs))


def amalgam_form(view: AmalgamView, e: Element) -> AmalgamForm:
    """The reduced alternating form of an element at the view's apex."""
    if e.pres is not view.pres:
        raise PresentationError("element does not belong to the view's presentation")
    return _general_form(view, e.key)


def amalgam_form_of_word(view: AmalgamView, word: Word) -> AmalgamForm:
    """Same, computed directly from an arbitrary (possibly unreduced) word."""
    return _general_form(view, key_of_word(view.pres, word))


def multiply_out(view: AmalgamView, form: AmalgamForm) -> Element:
    return multiply(form.x_pieces[0], _prefixes(view, form)[-1])


def is_amalgam_cyclically_reduced(view: AmalgamView, form: AmalgamForm) -> bool:
    """True for consonant-leading forms whose tail piece leaves the H-side.

    A leading x-piece inside the H-side is allowed: it commutes past the
    first consonant and folds into the next piece.  With n = 1 the tail
    condition is vacuous.
    """
    n = form.consonant_length
    if n == 0:
        return False
    if not _supported_in(form.x_pieces[0].key, view.h_ids):
        return False
    if n >= 2 and _supported_in(form.x_pieces[-1].key, view.h_ids):
        return False
    return True


def consonant_leading_form(view: AmalgamView, e: Element) -> AmalgamForm:
    """The form with the leading piece folded away: c1 x1 ... cn xn."""
    form = amalgam_form(view, e)
    if form.consonant_length == 0:
        raise AmalgamError("element lies in the A-side: no consonant-leading form")
    x0 = form.x_pieces[0]
    if not _supported_in(x0.key, view.h_ids):
        raise AmalgamError("leading piece does not commute past the first consonant")
    pieces = (identity(view.pres), multiply(x0, form.x_pieces[1])) + form.x_pieces[2:]
    return AmalgamForm(pieces, form.consonants)


def _prefixes(view: AmalgamView, form: AmalgamForm) -> List[Element]:
    """Cumulative products c1 x1 ... cl xl for l = 0..n of a consonant-leading form."""
    pres, apex = view.pres, view.apex_index
    acc, result = [], [identity(pres)]
    for c, piece in zip(form.consonants, form.x_pieces[1:]):
        _push(pres, acc, ((apex, c),) + piece.key)
        result.append(Element(pres, tuple(acc)))
    return result


# ---------------------------------------------------------------------------
# Conjugator classification.
# ---------------------------------------------------------------------------


class ConjugatorClass(NamedTuple):
    case: str  # "a", "b" or "c"
    h: Element  # H-side factor of the decomposition
    piece: Optional[Element]  # the prefix (case b) or suffix (case c)
    exponent: Optional[int]


def conjugator_classify(
    view: AmalgamView, g_form: AmalgamForm, f_form: AmalgamForm, u: Element
) -> ConjugatorClass:
    """Decompose a verified conjugator u (with u g u^-1 = f) into its case.

    Case a: u lies in the H-side.  Case b: u = h p^-1 g^-l for a prefix p.
    Case c: u = h s g^l for a suffix s.  Consonants are apex syllables, and
    u has l n + j of them when p (or s) carries j of g's n, so l, j =
    divmod(m, n) fixes both pieces; for j = 0 the reading (l - 1, n) gives
    the same h.
    """
    for form in (g_form, f_form):
        if not is_amalgam_cyclically_reduced(view, form):
            raise AmalgamError("forms must be consonant-leading and cyclically reduced")
    if _supported_in(g_form.x_pieces[-1].key, view.h_ids):
        raise AmalgamError("tail piece of g must leave the H-side")
    g = multiply_out(view, g_form)
    f = multiply_out(view, f_form)
    if conjugate(u, g) != f:
        raise AmalgamError("u does not conjugate g to f")
    u_form = amalgam_form(view, u)
    m = u_form.consonant_length
    if m == 0:
        if not _supported_in(u.key, view.h_ids):
            raise AmalgamError("A-side conjugator outside the H-side: broken precondition")
        return ConjugatorClass("a", u, None, None)
    n = g_form.consonant_length
    l, j = divmod(m, n)
    prefixes = _prefixes(view, g_form)
    z_last = u_form.x_pieces[-1]
    found = None
    if _supported_in(z_last.key, view.h_ids):
        p = prefixes[j]
        found = ConjugatorClass("b", multiply(multiply(u, power(g, l)), p), p, l)
    elif _supported_in(multiply(g_form.x_pieces[-1], invert(z_last)).key, view.h_ids):
        s = multiply(invert(prefixes[n - j]), g)
        found = ConjugatorClass("c", multiply(multiply(u, power(g, -l)), invert(s)), s, l)
    if found is None or not _supported_in(found.h.key, view.h_ids):
        raise AmalgamError("no conjugator case matched: this is a bug")
    return found


# ---------------------------------------------------------------------------
# Conjugacy by a subgroup of the A-side.
# ---------------------------------------------------------------------------


class SubgroupConjugacy(NamedTuple):
    status: str  # "yes", "no" or "unknown"
    conjugator: Optional[Element]
    failed_condition: Optional[int]  # 1, 2 or 3 on certified no


def amalgam_conjugate_by(
    view: AmalgamView,
    b_vertices: Iterable[str],
    f: Element,
    g: Element,
    radius: int,
) -> SubgroupConjugacy:
    """Decide f in g^B for the full subgroup B of the A-side.

    Consonant sequences must match (condition 1), and the A-side
    retractions must be conjugate in the A-side (condition 2); either
    failure is a certified refutation.  By the normal form theorem for
    amalgams, every conjugator b in the A-side has the form y0 h x0^-1,
    where x0 and y0 are the leading pieces of g and f and h lies in the
    H-side.  So h runs over the H-side ball up to the radius, and the first
    b supported in B with b g = f b is the certified "yes".  Exhaustion
    yields "unknown", never a false "no", unless the ball was the whole
    H-side (condition 3): every H-side vertex group is finite, the H-side
    vertices are pairwise adjacent, and the radius is at least their number.
    """
    pres = view.pres
    _check_same(f, g)
    b_set = frozenset(b_vertices)
    if not b_set <= view.a_vertices:
        raise AmalgamError("B must be a vertex subset of the A-side")
    b_ids = frozenset(pres.vertex_index(v) for v in b_set)
    gf = amalgam_form(view, g)
    if gf.consonant_length < 1:
        raise AmalgamError("g must have at least one consonant")
    ff = amalgam_form(view, f)
    if ff.consonants != gf.consonants:
        return SubgroupConjugacy("no", None, 1)
    xp = retract_key(pres, g.key, view.a_ids)
    yp = retract_key(pres, f.key, view.a_ids)

    # Conjugacy of A-side elements is intrinsic to the A-side, so a negative
    # ambient verdict certifies failure for every subgroup B.
    if not are_conjugate(xp, yp).conjugate:
        return SubgroupConjugacy("no", None, 2)

    x0_inv = invert(gf.x_pieces[0])
    y0 = ff.x_pieces[0]
    for _, y0h in iter_ball(pres, radius, vertices=view.h_vertices, left=y0):
        b = multiply(Element(pres, y0h), x0_inv)
        if _supported_in(b.key, b_ids) and multiply(b, g) == multiply(f, b):
            return SubgroupConjugacy("yes", b, None)
    # a finite clique has at most one syllable per vertex: the ball was all of it
    if (
        radius >= len(view.h_ids)
        and all(pres.by_index[vi].order is not None for vi in view.h_ids)
        and all(view.h_ids <= pres.istar[vi] for vi in view.h_ids)
    ):
        return SubgroupConjugacy("no", None, 3)
    return SubgroupConjugacy("unknown", None, None)


# ---------------------------------------------------------------------------
# Centralizer structure at the apex.
# ---------------------------------------------------------------------------


class OmegaDescription(NamedTuple):
    prefixes: tuple  # the prefixes whose rotation is H-conjugate back to g
    matched: tuple  # the H-side conjugators, aligned with prefixes
    omega: tuple  # the resulting centralizing elements h p^-1


class CentralizerReport(NamedTuple):
    kind: str  # "product" (n=1, tail in H) or "rotations"
    omega: Optional[OmegaDescription]
    unresolved: tuple  # prefix lengths with inconclusive rotation tests
    ball_size: int
    centralizer: tuple  # centralizing ball elements, sorted
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def centralizer_check(view: AmalgamView, g: Element, radius: int) -> CentralizerReport:
    """Compare the predicted centralizer shape with a ball enumeration.

    For n = 1 with the tail piece in the H-side, the centralizer is the
    direct product of the apex-side and H-side centralizers.  Otherwise every
    centralizing element must factor as h g^l omega with h a centralizing
    H-side element and omega built from the matching rotation prefixes.
    Then u omega^-1 = h g^l has |l| n apex syllables, which fixes l up to
    sign; the radius bounds the ball and the H-side searches, not l.
    """
    pres = view.pres
    form = consonant_leading_form(view, g)
    if not is_amalgam_cyclically_reduced(view, form):
        raise AmalgamError("element is not cyclically reduced at this apex")
    n = form.consonant_length

    if n == 1 and _supported_in(form.x_pieces[-1].key, view.h_ids):
        star_ids = pres.istar[view.apex_index]

        def factored(u, centralizes):
            # g lies in the star's direct product G_apex x G_H, where u commutes
            # with g exactly when each factor of u does: the walk decides that
            return centralizes and _supported_in(u, star_ids)

        return CentralizerReport("product", None, (), *_compare_centralizer(g, radius, factored))

    prefixes = _prefixes(view, form)
    matched_prefixes, matched_h, omegas = [], [], []
    unresolved = []
    for l, p in enumerate(prefixes):
        rotated = multiply(multiply(invert(p), g), p)
        answer = amalgam_conjugate_by(view, view.h_vertices, g, rotated, radius)
        if answer.status == "yes":
            h = answer.conjugator
            omega = multiply(h, invert(p))
            if conjugate(omega, g) != g:
                raise InvariantError("omega does not centralize g")
            matched_prefixes.append(p)
            matched_h.append(h)
            omegas.append(omega)
        elif answer.status == "unknown":
            unresolved.append(l)
    omega_invs = [invert(omega) for omega in omegas]

    def factored(u, centralizes):
        # an unresolved prefix excuses a miss, so there is nothing to search for
        if not centralizes or unresolved:
            return centralizes
        for omega_inv in omega_invs:
            base = multiply(Element(pres, u), omega_inv)
            q, rest = divmod(sum(vi == view.apex_index for vi, _ in base.key), n)
            if rest:
                continue
            for l in (q, -q):
                h = multiply(base, power(g, -l))
                # h centralizes g, since u, omega and g^l do
                if _supported_in(h.key, view.h_ids):
                    return True
        return False

    description = OmegaDescription(tuple(matched_prefixes), tuple(matched_h), tuple(omegas))
    return CentralizerReport(
        "rotations",
        description,
        tuple(unresolved),
        *_compare_centralizer(g, radius, factored),
    )


# ---------------------------------------------------------------------------
# The sigma map of an amalgam of two finite graph products.
# ---------------------------------------------------------------------------


class KernelSampleReport(NamedTuple):
    samples: int
    nontrivial: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


class SigmaAmalgam:
    """Q amalgamated with S over the full subgroup R, as one graph product.

    Both factors must have finite vertex groups; sigma sends an element to
    its pair of retractions onto the factors, so the kernel misses both.
    """

    def __init__(self, q_pres: GroupPresentation, s_pres: GroupPresentation, r_vertices):
        r_set = frozenset(r_vertices)
        if not r_set <= set(q_pres.vertices):
            raise AmalgamError("R must be a vertex subset of Q")
        for pres in (q_pres, s_pres):
            for v in pres.vertices:
                if pres.groups[v].order is None:
                    raise AmalgamError("factor vertex groups must be finite")
        if set(q_pres.vertices) & set(s_pres.vertices):
            raise AmalgamError("factor vertex names must be disjoint")
        names = list(q_pres.vertices) + list(s_pres.vertices)
        edges = sorted(q_pres.graph.edges | s_pres.graph.edges)
        edges += [(r, s) for r in sorted(r_set) for s in s_pres.vertices]
        groups = dict(q_pres.groups)
        groups.update(s_pres.groups)
        self.q_pres = q_pres
        self.s_pres = s_pres
        self.presentation = GroupPresentation(SimplicialGraph(names, edges), groups)
        pres = self.presentation
        self.q_ids = frozenset(pres.vertex_index(v) for v in q_pres.vertices)
        self.s_ids = frozenset(pres.vertex_index(v) for v in s_pres.vertices)
        self.r_ids = frozenset(pres.vertex_index(v) for v in r_set)

    def sigma(self, e: Element) -> Tuple[Element, Element]:
        """The image (retraction to Q, retraction to S) in the factors."""
        shift = len(self.q_pres.vertices)  # Q's vertices come first, then S's
        q_key = (s for s in e.key if s[0] < shift)
        s_key = ((vi - shift, val) for vi, val in e.key if vi >= shift)
        return _make(self.q_pres, q_key), _make(self.s_pres, s_key)

    def kernel_element_from(self, w: Element) -> Element:
        """Push an arbitrary element into ker(sigma) by factor corrections."""
        u = multiply(w, invert(retract_key(self.presentation, w.key, self.s_ids)))
        k = multiply(u, invert(retract_key(self.presentation, u.key, self.q_ids)))
        q_img, s_img = self.sigma(k)
        if not (q_img.is_identity and s_img.is_identity):
            raise InvariantError("the corrected element is not in the kernel of sigma")
        return k

    def kernel_sample_check(self, words: Sequence[Word]) -> KernelSampleReport:
        """Push each word into ker(sigma) and fail the samples conjugate into a factor.

        A nontrivial sample fails when its cyclically reduced core has its
        support in Q or in R u S.  That also fails every core with no consonant
        of the splitting over S (H-side R): a reduced core has one exactly when
        it has an S-syllable, since two S-runs separated only by R-syllables
        never multiply to 1 (R commutes with S, and a reduced word has the
        fewest syllables: Green, thesis, 1990).
        """
        pres = self.presentation
        failures = []
        nontrivial = 0
        for w in words:
            k = self.kernel_element_from(reduce(pres, w))
            if k.is_identity:
                continue
            nontrivial += 1
            core_ids = {vi for vi, _ in cyclically_reduce(k).reduced.key}
            if core_ids <= self.q_ids or core_ids <= self.r_ids | self.s_ids:
                failures.append(k)
        return KernelSampleReport(len(words), nontrivial, tuple(failures))
