"""Cyclic reduction: the S/P factorization, cyclic permutations, conjugator recovery.

S(g) collects the support vertices adjacent to everything else in the support;
the corresponding syllables commute with the whole word and split off as a
central "clique part" s(g), leaving the "moving part" p(g).  An element is
cyclically reduced when no vertex outside S(g) can start and end a reduced
expression at the same time.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Tuple

from .presentation import GroupPresentation, WordError
from .words import (
    Element,
    Key,
    _front_letters,
    _make,
    _push,
    identity,
)


class PSDecomposition(NamedTuple):
    s_part: Element
    p_part: Element
    s_vertices: frozenset
    p_vertices: frozenset


class CyclicReduction(NamedTuple):
    reduced: Element
    conjugator: Element  # input = conjugator * reduced * conjugator^-1


def ps_decompose(e: Element) -> PSDecomposition:
    """The unique factorization e = s_part * p_part as a reduced product."""
    pres = e.pres
    supp = {vi for vi, _ in e.key}
    s_ids = {vi for vi in supp if supp <= pres.istar[vi]}
    s_key = tuple(s for s in e.key if s[0] in s_ids)
    p_key = tuple(s for s in e.key if s[0] not in s_ids)
    names = pres.vertices
    return PSDecomposition(
        Element(pres, s_key),
        Element(pres, p_key),
        frozenset(names[vi] for vi in s_ids),
        frozenset(names[vi] for vi, _ in p_key),
    )


def is_cyclically_reduced(e: Element) -> bool:
    """True iff no vertex outside S(e) lies in both FL(e) and LL(e).

    The front syllable of a vertex is its first and the back one its last.  A
    vertex lies in S exactly when the two coincide: one syllable readable at
    both ends commutes with the rest, and a vertex of S has one syllable.
    """
    front = _front_letters(e.pres, e.key)
    back = _front_letters(e.pres, e.key[::-1])
    last = len(e.key) - 1
    return not any(vi in back and pos < last - back[vi] for vi, pos in front.items())


def cyclically_reduce(e: Element) -> CyclicReduction:
    """Conjugate away end syllables until the element is cyclically reduced.

    Each step conjugates by the front syllable a of the least movable vertex
    v: e = a w becomes w a.  Everything after the back syllable of v commutes
    with v, so a joins that syllable, the length strictly drops and the loop
    terminates.

    The steps never rescan the word.  The syllables keep their positions in
    e's key, a removed one leaves a hole, and each vertex keeps the positions
    of its first and last live syllable.  The live syllables in position
    order are the word each step reaches: a step removes v's front syllable
    and changes or removes v's back syllable, so the others keep their order.
    v is movable when it has two live syllables and no vertex outside its
    star has a first position before v's or a last position after v's; a
    vertex with no live syllable is dropped and blocks nothing.  The vertices
    are tested in ascending order, so the first movable one is the least.
    The live syllables are linearized once at the end; an element that
    peels nothing is returned as it is.

    The conjugator is the peeled syllables in peel order, and that list is
    already canonical:
    - Reduced.  A later peel of the same vertex v becomes front-readable
      only after every syllable that blocked it has been peeled; removing a
      back syllable never unblocks a front syllable, since a back-readable
      syllable has nothing after it that it fails to commute with.  So a
      peel that does not commute with v lies between the two peels, and
      they cannot join.
    - Least-vertex-first.  Suppose a later peel x has a smaller vertex than
      an earlier peel y, and x commutes with y and with every peel in
      between.  Then x's vertex was not movable when y was taken; it became
      movable only when a peel exposed its front syllable, or when a
      cancellation exposed its back syllable.  Either needs a peel that does
      not commute with x, taken at y or after it, a contradiction.  The
      absence of such a factor is what least-vertex-first order means.
    - The least choice carries the order: peeling the greatest movable
      vertex gives the same element, but its appended key is out of order.
    """
    pres = e.pres
    key = e.key
    groups, istar = pres.by_index, pres.istar
    vals: list = [val for _, val in key]  # None marks a removed syllable
    at: Dict[int, List[int]] = {}  # vertex -> the positions of its syllables
    for pos, (vi, _) in enumerate(key):
        at.setdefault(vi, []).append(pos)
    lo = dict.fromkeys(at, 0)  # at[v][lo[v]:] are v's live syllables
    first = {vi: at[vi][0] for vi in sorted(at)}  # ascending, the live vertices only
    last = {vi: p[-1] for vi, p in at.items()}

    def is_movable(v: int) -> bool:
        f, l = first[v], last[v]
        if f == l:
            return False
        star = istar[v]
        for u, fu in first.items():
            if u not in star and (fu < f or last[u] > l):
                return False
        return True

    conj: List[Tuple[int, int]] = []
    while (v := next((u for u in first if is_movable(u)), None)) is not None:
        a = vals[first[v]]
        conj.append((v, a))
        vals[first[v]] = None
        lo[v] += 1
        first[v] = at[v][lo[v]]
        group = groups[v]
        merged = group.mul(vals[last[v]], a)
        if merged != group.identity_key:
            vals[last[v]] = merged
            continue
        vals[last[v]] = None
        at[v].pop()
        if lo[v] == len(at[v]):  # every syllable of v is gone
            del first[v], last[v]
        else:
            last[v] = at[v][-1]
    if not conj:
        return CyclicReduction(e, identity(pres))
    live = [(vi, val) for (vi, _), val in zip(key, vals) if val is not None]
    return CyclicReduction(_make(pres, live), Element(pres, tuple(conj)))


def cyclic_permutation_conjugators(e: Element) -> Dict[Element, Element]:
    """All cyclic permutations of a cyclically reduced element, with witnesses.

    Returns a map g' -> p such that p^-1 e p = g', in the order in which
    `_rotations` finds them.

    The closure can be exponential in the length of one commuting factor:
    with b adjacent to none of x0 ... x(k-1) and the x's pairwise adjacent,
    b x0 ... x(k-1) has the 2^k rotations S b (X - S), one for each subset S
    of the x's (16,384 at 15 syllables: 0.7-0.8 s, Python 3.11, 2 vCPUs).
    """
    if not is_cyclically_reduced(e):
        raise WordError("element is not cyclically reduced")
    pres = e.pres
    return {Element(pres, key): Element(pres, conj) for key, conj in _rotations(pres, e.key)}


def _rotations(pres: GroupPresentation, key: Key) -> Iterator[Tuple[Key, Key]]:
    """Walk the rotation closure of a cyclically reduced key lazily: yield each
    rotation with its conjugator p (p^-1 key p = rotation) when it is first
    found, starting with the key itself and ().

    The closure moves one front-readable syllable to the end at a time, so it
    does not depend on a choice of reduced expression, and it records each
    conjugator once, so a walk stopped early yields the same pairs as a whole
    one.  A cut before the front syllable at position pos keeps key[:pos],
    the greedy order's first picks, and pushes the rest of the key and the
    moved syllable onto it.  At position 0 it keeps key[1:] instead, since the
    greedy order goes on after its first pick as it would on the rest alone,
    and pushes one syllable.
    """
    found: Dict[Key, Key] = {key: ()}  # rotation -> conjugator
    yield key, ()
    queue: List[Key] = [key]
    for key in queue:
        prefix = found[key]
        for pos in _front_letters(pres, key).values():
            head, tail = (key[:pos], key[pos + 1 :]) if pos else (key[1:], ())
            out = list(head)
            syl = key[pos]
            _push(pres, out, tail + (syl,))
            rotated = tuple(out)
            if rotated not in found:
                conj = list(prefix)
                _push(pres, conj, (syl,))
                found[rotated] = conj = tuple(conj)
                queue.append(rotated)
                yield rotated, conj


def commuting_factors(e: Element) -> Dict[int, Element]:
    """Split a reduced element into its commuting factors, keyed by least vertex.

    A factor is the projection of e onto one connected component of the
    non-commutation graph on its support.  Factors from different components
    commute, and a vertex of S(e) is a component of its own, so e is the
    product of its factors in any order and each factor of a cyclically
    reduced element is cyclically reduced.
    """
    pres = e.pres
    support = sorted({vi for vi, _ in e.key})
    root_of: Dict[int, int] = {}
    for root in support:
        if root in root_of:
            continue
        root_of[root] = root
        stack = [root]
        while stack:
            u = stack.pop()
            for v in support:
                if v not in root_of and v not in pres.iadj[u]:
                    root_of[v] = root
                    stack.append(v)
    parts: Dict[int, List[Tuple[int, int]]] = {}
    for syl in e.key:
        parts.setdefault(root_of[syl[0]], []).append(syl)
    return {root: Element(pres, tuple(part)) for root, part in sorted(parts.items())}
