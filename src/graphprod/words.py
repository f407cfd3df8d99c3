"""The reduction engine: normal forms, shapes, products, and a rewriting oracle.

Internally a word is a tuple of (vertex_index, value_key) pairs, and every
value key is an exact int: a table index, an exponent or a residue.  An Element
wraps the canonical fully-reduced form: no trivial syllables, no two joinable
syllables, linearized greedily so that the least available vertex always comes
first.  Two elements are equal in the graph product iff their canonical forms
are identical.  `key_of_word`, `Element.word` and `invert` translate each
distinct syllable once per call, in a dict that lives only for that call.

Reduction produces that form in one pass: `_push`, the one reduction loop,
multiplies syllables onto a reduced list and keeps it in least-vertex-first
order after each one.  A new syllable is inserted where the greedy order of
the longer word picks it, a join changes a value in place, and a cancellation
deletes a syllable that commutes with everything after it, a maximal element
of the trace, whose removal leaves the greedy order of the rest as it was.

`_make` and `multiply` call it once per word; `iter_ball` carries its products,
the rotation closure pushes onto the canonical part of each cut, and `amalgam`
pushes runs and folded pieces onto x-pieces and each c·x onto the last prefix.
Keys that are canonical by construction are wrapped as `Element(pres, key)`:
- the S and P parts of `cyclic.ps_decompose` and `cyclic.commuting_factors`
  (a canonical key restricted to a union of commuting components);
- the conjugators of `cyclic.cyclically_reduce` (its peeled syllables, in
  peel order) and `conjugacy.conjugate_in_clique_subgroup` (commuting, in
  vertex order);
- an input of `cyclic.cyclically_reduce` that peels nothing, returned as it
  is;
- a canonical key cut before a front syllable, in the rotation walk
  `cyclic._rotations`: the part before the cut (the greedy order's first
  picks), or at position 0 the part after it;
- the keys that `iter_ball` yields (it builds no Element), and the back peel
  in `parabolic.parabolic_intersection`;
- u·x = u + x for a canonical u that ends on a vertex of `_blockers(pres, x)`;
- the inputs of `separability.conjugacy_witness` and their factors,
  renumbered onto the presentation induced on their joint support (it keeps
  the vertex order and the edges among the kept vertices).
These cuts break the order and go back through `_make`: the cyclic core
after a peel, the reversal in `invert`, retraction onto an arbitrary vertex
set, and raw or unreduced syllables.
"""

from __future__ import annotations

import functools
import sys
from collections import deque
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .presentation import (
    GroupPresentation,
    Word,
    WordError,
    _parse_key,
)

Key = Tuple[Tuple[int, int], ...]
_EXACT = frozenset((int, str))  # equal values of these types are interchangeable; True == 1 and 2.0 == 2 are not


class BudgetExceededError(RuntimeError):
    """The rewriting search ran out of its state budget before deciding."""


class PresentationMismatchError(ValueError):
    """Operands belong to different presentations."""


class Element:
    """A group element in canonical reduced form."""

    __slots__ = ("pres", "key")

    def __init__(self, pres: GroupPresentation, key: Key):
        self.pres = pres
        self.key = key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.pres is other.pres
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __len__(self) -> int:
        return len(self.key)

    def __lt__(self, other: "Element") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (len(self.key), self.key)

    @property
    def is_identity(self) -> bool:
        return not self.key

    def support(self) -> frozenset:
        names = self.pres.vertices
        return frozenset(names[vi] for vi, _ in self.key)

    def word(self) -> Word:
        memo, out, decode = {}, [], self.pres.decode_syllable  # memo: key pair -> its Syllable; key values are exact ints
        for p in self.key:
            s = memo.get(p)
            if s is None:
                s = memo[p] = decode(*p)
            out.append(s)
        return Word(tuple(out))

    def render(self) -> str:
        """The word text of the normal form, as parse_word reads it; "1" when empty."""
        if not self.key:
            return "1"
        names, groups = self.pres.vertices, self.pres.by_index
        return " ".join(f"{names[vi]}[{groups[vi].decode(val)}]" for vi, val in self.key)

    def __repr__(self) -> str:
        return f"<{self.render()}>"


class ShapeReport(NamedTuple):
    """Length, support and the sets of possible first/last letters."""

    length: int
    support: frozenset
    first_letters: frozenset
    last_letters: frozenset


def _check_same(a: Element, b: Element) -> None:
    if a.pres is not b.pres:
        raise PresentationMismatchError("elements come from different presentations")


def _supported_in(key: Sequence[Tuple[int, int]], ids) -> bool:
    """True iff every syllable of the key lies on a vertex with index in ids."""
    for vi, _ in key:
        if vi not in ids:
            return False
    return True


def key_of_word(pres: GroupPresentation, word: Word) -> Key:
    ids, groups, memo, key = pres.graph.ids, pres.by_index, {}, []  # memo: syllable -> its pair, for values in _EXACT
    get = memo.get  # bound once: most syllables of a short word miss
    for s in word.syllables:
        exact = type(s.value) in _EXACT
        pair = get(s) if exact else None
        if pair is None:
            vi = ids.get(s.vertex)
            if vi is None:
                vi = pres.vertex_index(s.vertex)  # raises on an unknown vertex
            pair = (vi, groups[vi].encode(s.value))
            if exact:
                memo[s] = pair
        key.append(pair)
    return tuple(key)


def _push(pres: GroupPresentation, out: List[Tuple[int, int]], syllables: Iterable) -> None:
    """Multiply syllables onto a reduced word, one at a time, in least-vertex-first order.

    Most syllables are settled at the list's last syllable, which a syllable of
    its own vertex joins; a syllable is appended to an empty list, or when that
    last syllable lies on another vertex off its link.  Otherwise it scans back
    over the syllables that commute with its vertex and joins one of its own
    vertex that it reaches, or else is a new maximal element of the trace,
    available once the syllable that stopped the scan is emitted; the greedy
    order emits it before the first scanned syllable of a greater vertex, so it
    is inserted there (or appended).  A join keeps the order, and a cancelling
    one deletes a maximal element, which leaves the greedy order of the rest as
    it was; by the commutation constraints no new join appears, so no fixpoint
    pass is needed.  Pairs are stored as the caller passed them."""
    groups, iadj, identities = pres.by_index, pres.iadj, pres.identity_keys
    for pair in syllables:
        vi, val = pair
        if val == identities[vi]:  # keys are canonical, so one key is the identity
            continue
        i = len(out) - 1
        ui, uval = out[i] if out else (-1, None)  # an empty list ends on vertex -1, in no link
        if ui == vi:
            merged = groups[vi].mul(uval, val)
            if merged == identities[vi]:
                out.pop()
            else:
                out[i] = (vi, merged)
            continue
        link = iadj[vi]
        if ui not in link:
            out.append(pair)
            continue
        at = i if ui > vi else i + 1
        i -= 1
        while i >= 0:
            ui, uval = out[i]
            if ui == vi:
                merged = groups[vi].mul(uval, val)
                if merged == identities[vi]:
                    del out[i]
                else:
                    out[i] = (vi, merged)
                break
            if ui not in link:
                out.insert(at, pair)
                break
            if ui > vi:
                at = i
            i -= 1
        else:
            out.insert(at, pair)


def _front_letters(pres: GroupPresentation, key: Sequence[Tuple[int, int]], removed=(), start=0) -> Dict[int, int]:
    """Each vertex with a front-readable syllable -> that position, in position
    order, skipping the positions before start and those in removed.

    A syllable is front-readable when every syllable before it lies on its
    link.  The scan keeps the vertices on the link of every syllable read so
    far, and ends once none is left.  On the reversed key: the back-readable
    syllables, counted from the end."""
    iadj, front, common = pres.iadj, {}, None
    for pos in range(start, len(key)):
        if pos in removed:
            continue
        vi = key[pos][0]
        if common is None or vi in common:
            front[vi] = pos
        if common is None or not common <= iadj[vi]:
            common = iadj[vi] if common is None else common & iadj[vi]
            if not common:
                break
    return front


def _blockers(pres: GroupPresentation, key: Key) -> set:
    """The vertices t with t != f and t off link(f) for every front letter f of the
    key: a canonical word that ends on one, times the key, is their concatenation."""
    iadj, front = pres.iadj, _front_letters(pres, key)
    return {t for t in range(len(iadj)) if all(t != f and t not in iadj[f] for f in front)}


def _make(pres: GroupPresentation, syllables: Iterable[Tuple[int, int]]) -> Element:
    """The element of any syllable sequence, reduced and in canonical order."""
    out: List[Tuple[int, int]] = []
    _push(pres, out, syllables)
    return Element(pres, tuple(out))


def identity(pres: GroupPresentation) -> Element:
    return Element(pres, ())


def reduce(pres: GroupPresentation, word: Word) -> Element:
    """The canonical reduced element equal to the given word."""
    return _make(pres, key_of_word(pres, word))


def element_of(pres: GroupPresentation, text: str) -> Element:
    """Parse a word string and reduce it."""
    return _make(pres, _parse_key(pres, text))


def _joinable_pairs(pres: GroupPresentation, key: Sequence[Tuple[int, int]]):
    """Yield each (i, j), i < j, where key[i] and key[j] lie on one vertex and
    every syllable between them on its link: the pairs a join can merge.

    Scans the key itself, without `_push`, so the checks built on it stay
    independent of the reduction engine."""
    iadj = pres.iadj
    for i, (vi, _) in enumerate(key):
        link = iadj[vi]
        for j in range(i + 1, len(key)):
            uj = key[j][0]
            if uj == vi:
                yield i, j
                break
            if uj not in link:
                break


def is_reduced_key(pres: GroupPresentation, key: Sequence[Tuple[int, int]]) -> bool:
    """No trivial syllables and no two joinable syllables."""
    identities = pres.identity_keys
    if any(val == identities[vi] for vi, val in key):
        return False
    return next(_joinable_pairs(pres, key), None) is None


def canonical_form(pres: GroupPresentation, word: Word) -> Word:
    """Canonical linearization of a reduced word, one that reduction does not shorten."""
    key = key_of_word(pres, word)
    e = _make(pres, key)
    if len(e.key) != len(key):
        raise WordError("word is not reduced")
    return e.word()


def shape(e: Element) -> ShapeReport:
    names = e.pres.vertices
    fl = frozenset(names[vi] for vi in _front_letters(e.pres, e.key))
    ll = frozenset(names[vi] for vi in _front_letters(e.pres, e.key[::-1]))
    return ShapeReport(len(e.key), e.support(), fl, ll)


def multiply(a: Element, b: Element) -> Element:
    _check_same(a, b)
    out = list(a.key)
    _push(a.pres, out, b.key)
    return Element(a.pres, tuple(out))


def invert(a: Element) -> Element:
    groups, memo, key = a.pres.by_index, {}, []  # memo: key pair -> its inverse; equal pairs have equal int inverses
    for p in reversed(a.key):
        q = memo.get(p)
        if q is None:
            q = memo[p] = (p[0], groups[p[0]].inv(p[1]))
        key.append(q)
    return _make(a.pres, key)


def conjugate(w: Element, x: Element) -> Element:
    """w x w^-1."""
    return multiply(multiply(w, x), invert(w))


def power(e: Element, n: int) -> Element:
    result = identity(e.pres)
    step = e if n >= 0 else invert(e)
    for _ in range(abs(n)):
        result = multiply(result, step)
    return result


def is_reduced_product(parts: Sequence[Element]) -> bool:
    """True iff the lengths add up, i.e. no cancellation or join across parts."""
    if not parts:
        return True
    return len(functools.reduce(multiply, parts)) == sum(len(p) for p in parts)


def brute_force_equal(pres: GroupPresentation, w1: Word, w2: Word, budget: int) -> bool:
    """Decide w1 = w2 by breadth-first closure of w1 w2^-1 under the elementary
    moves, in this order: drop a trivial syllable (by position), then for each
    adjacent pair merge two syllables of one vertex or swap two of adjacent
    vertices.  Succeeds iff the empty word is reached.

    Raises BudgetExceededError, an outcome distinct from "not equal", when the
    closure is not exhausted within the given number of states.  A state is a
    str, one character per distinct syllable, so slicing and hashing run in C.
    On n syllables in all, a call interns at most n + budget * (n - 1) distinct
    ones; past the 1,114,112 characters of a str it raises BudgetExceededError.

    Each queued state is followed by how its parent P, whose expansion first
    queued it, made it: 3 * position + kind, kind 0 a removal (the start is a
    removal at 0), 1 a merge, 2 a swap.  A successor is skipped when its move
    is disjoint from P's and that move's counterpart on P comes first in P's
    order.  P queued the counterpart's state Q before this one (Q differs, or
    the tag would name its move), so Q was expanded first, and its move on the
    same syllables gave the skipped state.  By induction on the expansions,
    each skipped state is already in `seen`: the expanded states, their order,
    the answer and the count are those of the full scan.  Skipped after
    - a swap at i: every removal (off the pair a removal of P, which comes
      before all pair moves; on it a removal of P itself), the pairs before
      i - 1 and the swap back at i;
    - a merge at i: every removal but the merged syllable's, and the pairs
      before i - 1;
    - a removal at k: the removals before k.  No pair is skipped, since all
      of P's pair moves come after its removals.
    Fewer pairs scanned intern fewer merged syllables, so the code-space error
    can come later than under a full scan, never earlier.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    groups, iadj = pres.by_index, pres.iadj
    k1, k2 = key_of_word(pres, w1), key_of_word(pres, w2)
    start = k1 + tuple((vi, groups[vi].inv(val)) for vi, val in reversed(k2))
    if not start:
        return True
    syllables, codes, trivial, moves = [], {}, set(), {}  # by character, by syllable, trivial, by pair

    def code(s: Tuple[int, int]) -> str:
        if s not in codes:
            if len(syllables) > sys.maxunicode:
                raise BudgetExceededError("more distinct syllables than a str has characters")
            codes[s] = chr(len(syllables))
            syllables.append(s)
            if s[1] == groups[s[0]].identity_key:  # keys are canonical, so one key is the identity
                trivial.add(codes[s])
        return codes[s]

    state = "".join(map(code, start))
    seen = {state}
    queue = deque([state, 0])  # each state, then how it was made
    explored = 0
    while queue:
        state, (at, kind) = queue.popleft(), divmod(queue.popleft(), 3)
        explored += 1
        if explored > budget:
            raise BudgetExceededError(f"budget of {budget} states exhausted")
        if len(state) == 1 and state in trivial:
            return True
        if kind:
            removals, first = (at,) if kind == 1 else (), max(at - 1, 0)
        else:
            removals, first = range(at, len(state)), 0
        for i in removals:
            if state[i] in trivial:
                nxt = state[:i] + state[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.extend((nxt, 3 * i))
        back = at if kind == 2 else -1
        for i in range(first, len(state) - 1):
            if i == back:
                continue
            pair = state[i : i + 2]
            try:
                m = moves[pair]  # the merged character, the swapped pair, or "" for no move
            except KeyError:
                (ui, uval), (wi, wval) = syllables[ord(pair[0])], syllables[ord(pair[1])]
                if ui == wi:
                    m = code((ui, groups[ui].mul(uval, wval)))
                else:
                    m = pair[::-1] if wi in iadj[ui] else ""
                moves[pair] = m
            if m:
                nxt = state[:i] + m + state[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.extend((nxt, 3 * i + len(m)))  # a merge leaves one character, a swap two
    return False


# ---------------------------------------------------------------------------
# Ball enumeration, used by the bounded searches.
# ---------------------------------------------------------------------------


def iter_ball(
    pres: GroupPresentation,
    radius: int,
    window: Optional[int] = None,
    vertices: Optional[Iterable[str]] = None,
    left: Optional[Element] = None,
    keep=None,
):
    """Yield the key of each element of length <= radius, sorted by (length, key).

    Integer-vertex syllable exponents range over [-window, window]; the window
    defaults to the radius.  With a vertex subset, enumerates the ball of the
    corresponding full subgroup.  With a left factor, yields pairs (u, the key
    of left·u) instead, in the same order.  It builds no Element.

    keep(u, product) prunes the walk: product is the key of left·u, or None
    without a left factor.  An element u that keep rejects is still yielded,
    but never extended, so the walk yields exactly the ball elements whose
    proper prefixes (the empty key included) all pass keep.

    Each element is generated once, from its canonical prefix (a reverse
    search).  Deleting the last syllable of a least-vertex-first key deletes a
    maximal element of the trace and leaves a least-vertex-first key, so an
    element of length n + 1 has exactly one parent, key[:-1].  A parent is
    therefore extended only by the syllables that `_push` would append: the
    backward scan over syllables commuting with the new vertex must reach a
    non-commuting syllable, or the start, before it meets the same vertex (a
    join) or a greater one (an insertion).  Parents run in key order and
    syllables in (vertex, value) order, so each level comes out sorted
    (`nontrivial_keys` is ascending, and lazy on a `Z/n` vertex).

    The product is carried along the same tree: left·(p·s) = (left·p)·s.  When
    the parent's product is empty, or its last vertex is neither the child's
    last vertex nor in that vertex's link, the syllable is appended, which is
    what `_push` does at the last syllable; otherwise it is pushed.  Only the
    levels that are extended are kept; the last one is yielded but not stored.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    window = radius if window is None else window
    if window < 0:
        raise ValueError("window must be nonnegative")
    if vertices is None:
        indices = range(len(pres.vertices))
    else:
        indices = sorted({pres.vertex_index(v) for v in vertices})
    gens = [(vi, pres.iadj[vi], pres.by_index[vi].nontrivial_keys(window)) for vi in indices]
    if left is not None and left.pres is not pres:
        raise PresentationMismatchError("the left factor comes from another presentation")
    # (key, key of left·u), the product None when nothing is carried
    root = ((), None if left is None else left.key)
    yield () if left is None else root
    level = [root] if keep is None or keep(*root) else []
    for depth in range(1, radius + 1):
        grown = [] if depth < radius else None
        for key, product in level:
            tail = product[-1][0] if product else -1  # the product's last vertex, -1 if none
            back = key[::-1]
            for vi, link, vals in gens:
                # a copy of _push's scan: sharing it slowed reduction, testing with _push slowed the ball
                for ui, _ in back:
                    if ui not in link:
                        appends = ui != vi  # a vertex is not in its own link
                        break
                    if ui > vi:  # _push would insert before ui
                        appends = False
                        break
                else:
                    appends = True
                if appends:
                    fast = tail != vi and tail not in link  # _push would append at once
                    for val in vals:
                        last = ((vi, val),)
                        child = key + last
                        if product is None:
                            yield child
                            carried = None
                        else:
                            if fast:
                                carried = product + last
                            else:
                                out = list(product)
                                _push(pres, out, last)
                                carried = tuple(out)
                            yield child, carried
                        if grown is not None and (keep is None or keep(child, carried)):
                            grown.append((child, carried))
        level = grown


def _in_ball(e: Element, radius: int) -> bool:
    """True iff iter_ball(e.pres, radius) yields e: at most radius syllables,
    each value among the `nontrivial_keys(radius)` of its vertex group."""
    groups = e.pres.by_index
    return len(e.key) <= radius and all(val in groups[vi].nontrivial_keys(radius) for vi, val in e.key)


def _compare_centralizer(g: Element, radius: int, predicted, vertices: Optional[Iterable[str]] = None):
    """Walk the radius ball (of the full subgroup on the vertices, if given)
    once: (size, members, violations) are its size, the elements u that
    commute with g, and those where predicted(u, centralizes) is not
    centralizes (it gets u's key).  Every centralizer check is this loop and its
    own prediction.  g·u comes from the walk, and each u is decided in one of
    three ways:

    - u ends on a `_blockers` vertex of g: u·g is u + g as it stands.
    - A length count refutes u·g = g·u.  If they are equal, then (g·u)·g⁻¹ = u,
      and pushing the n = |g| syllables of g⁻¹ onto g·u one at a time, the last
      syllable (v, a) of g's key first, changes the length by +1, 0 or -1 each
      time; the pushes add up to -d, where d = |g·u| - |u| <= n.  At d = n
      every push cancels, so the first needs a back-readable syllable of g·u
      (one whose followers all lie on its vertex's link) equal to (v, a); at
      d = n - 1 one push joins and the rest cancel, so the first cannot
      insert, and g·u needs a back-readable syllable on v.  Finding it is
      `_push`'s backward scan, read only; g = 1 has no last syllable.
    - Otherwise u·g is one `_push` of g's key onto u's."""
    pres, g_key, blocked = g.pres, g.key, _blockers(g.pres, g.key)
    n = len(g_key)
    last_vi, last_val = g_key[-1] if n else (-1, None)
    last_link = pres.iadj[last_vi] if n else ()
    size, members, violations = 0, [], []
    for u, gu in iter_ball(pres, radius, vertices=vertices, left=g):
        size += 1
        if u and u[-1][0] in blocked:
            centralizes = u + g_key == gu
        else:
            d = len(gu) - len(u)
            refuted = n and d >= n - 1
            if refuted:  # unless g·u has a fitting back-readable syllable on last_vi
                for vi, val in reversed(gu):
                    if vi == last_vi:
                        refuted = d == n and val != last_val
                        break
                    if vi not in last_link:
                        break
            if refuted:
                centralizes = False
            else:
                ug = list(u)
                _push(pres, ug, g_key)
                centralizes = tuple(ug) == gu
        if centralizes:
            members.append(Element(pres, u))
        if predicted(u, centralizes) != centralizes:
            violations.append(Element(pres, u))
    return size, tuple(members), tuple(violations)


def retract_key(pres: GroupPresentation, key: Key, vertex_indices) -> Element:
    """Drop syllables outside vertex_indices, then reduce.  vertex_indices is
    any container that supports `in`; it is used as given, without a copy."""
    return _make(pres, (s for s in key if s[0] in vertex_indices))
