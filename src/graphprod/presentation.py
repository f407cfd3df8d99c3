"""Presentations of graph products: simplicial graphs, vertex groups, words.

A presentation is a simplicial graph together with one concrete group per
vertex: a finite multiplication table, or a cyclic group (the integers, or
the integers mod n).
Everything is immutable after construction and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[([^\[\]\s]+)\]$")
_INT_RE = re.compile(r"^[+-]?\d+$")


class PresentationError(ValueError):
    """Invalid presentation document, graph, or vertex-group table."""


class WordError(ValueError):
    """Malformed word text or a syllable outside its vertex group."""


class InvariantError(RuntimeError):
    """A computed certificate or internal invariant failed its check: a bug, not bad input."""


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true and false load as bools); encoders try `type(value) is int` first."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Vertex groups: FiniteTableGroup and CyclicGroup (Z or Z/n).  Element
# "keys" are the internal representation: table indices for table groups,
# plain ints for Z, residues in [0, n) for Z/n.  Keys are canonical, so a key
# is trivial exactly when it equals the group's identity_key.  Public values
# are element names (table groups) or ints (cyclic groups).
# ---------------------------------------------------------------------------


def _is_associative(rows: Sequence[Tuple[int, ...]], identity: int) -> bool:
    """Light's associativity test on a Latin square with identity.

    The elements a with (xa)y = x(ay) for all x and y are closed under
    products: for two of them, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y).  So it is enough to test a set that generates the table by
    right products.  Generators are chosen greedily, each the first element
    that right products of the earlier ones do not reach, and each is tested
    before it is used.  Once the earlier ones pass, what they reach is a
    subgroup (a finite cancellative monoid), so each new generator at least
    doubles it: at most log2(n) + 1 tests of n^2 products each.
    """
    n = len(rows)
    reached = {identity}
    gens: List[int] = []
    for a in range(n):
        if a in reached:
            continue
        row_a = rows[a]
        for row_x in rows:
            if rows[row_x[a]] != tuple(row_x[b] for b in row_a):
                return False
        gens.append(a)
        stack = list(reached)
        while stack:
            row_x = rows[stack.pop()]
            for g in gens:
                if row_x[g] not in reached:
                    reached.add(row_x[g])
                    stack.append(row_x[g])
    return True


class FiniteTableGroup:
    """Finite group given by named elements and a multiplication table.

    The table is validated to be a genuine group at construction time: a
    Latin square with a two-sided identity that passes Light's associativity
    test.  Each inverse is then read off its row.
    """

    kind = "table"

    def __init__(self, elements: Sequence[str], table: Sequence[Sequence[int]], identity: int):
        if not isinstance(table, (list, tuple)) or not all(isinstance(x, (list, tuple)) for x in (elements, *table)):
            raise PresentationError("table group needs a list of elements and a list of rows")
        names = tuple(elements)
        for name in names:
            if not isinstance(name, str) or not name or any(c in "[]" or c.isspace() for c in name):
                raise PresentationError(f"bad element name {name!r}")
        n = len(names)
        if n == 0:
            raise PresentationError("table group needs at least one element")
        if len(set(names)) != n:
            raise PresentationError("duplicate element names in table group")
        if not _is_int(identity) or not 0 <= identity < n:
            raise PresentationError("identity index out of range")
        rows = tuple(tuple(row) for row in table)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise PresentationError("multiplication table must be square")
        for r in rows:
            for x in r:
                if not _is_int(x) or not 0 <= x < n:
                    raise PresentationError("table entry out of range")
        for i in range(n):
            if sorted(rows[i]) != list(range(n)) or sorted(r[i] for r in rows) != list(range(n)):
                raise PresentationError("multiplication table is not a Latin square")
        for i in range(n):
            if rows[identity][i] != i or rows[i][identity] != i:
                raise PresentationError("identity row/column not fixed")
        if not _is_associative(rows, identity):
            raise PresentationError("multiplication table is not associative")
        # in a group the right inverse in each row is two-sided
        inverse = [row.index(identity) for row in rows]
        self.elements = names
        self.table = rows
        self.identity_key = identity
        self.order = n
        self._inverse = tuple(inverse)
        self._index = {name: i for i, name in enumerate(names)}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def nontrivial_keys(self, window: Optional[int] = None) -> Sequence[int]:
        """Every key but the identity's, in ascending order."""
        return [i for i in range(self.order) if i != self.identity_key]

    def encode(self, value) -> int:
        key = self._index.get(value)
        if key is None:
            raise WordError(f"{value!r} is not an element of this table group")
        return key

    def decode(self, key: int):
        return self.elements[key]

    def parse_value(self, text: str) -> int:
        if text not in self._index:
            raise WordError(f"unknown table element {text!r}")
        return self._index[text]

    def conjugator_key(self, a: int, b: int) -> Optional[int]:
        """First t (in table order) with t a t^-1 == b, or None."""
        if a == b:
            return self.identity_key
        for t in range(self.order):
            if self.mul(self.mul(t, a), self._inverse[t]) == b:
                return t
        return None


class CyclicGroup:
    """The additive group Z (order None) or Z/n (order n >= 1); a key is an
    int, and a residue in [0, n) when the order is finite."""

    identity_key = 0

    def __init__(self, order: Optional[int] = None):
        if order is not None and (not _is_int(order) or order < 1):
            raise PresentationError("modulus must be a positive integer")
        self.order = order
        self.kind = "Z" if order is None else "mod"
        self._noun = "exponent" if order is None else "residue"

    def mul(self, a: int, b: int) -> int:
        n = self.order
        return a + b if n is None else (a + b) % n

    def inv(self, a: int) -> int:
        n = self.order
        return -a if n is None else -a % n

    def nontrivial_keys(self, window: Optional[int] = None) -> Sequence[int]:
        """The nonzero keys in ascending order: every residue, as a lazy
        range, or the exponents in [-window, window]."""
        if self.order is not None:
            return range(1, self.order)
        if window is None:
            raise ValueError("integer vertex group needs an exponent window")
        return [e for e in range(-window, window + 1) if e != 0]

    def encode(self, value) -> int:
        if type(value) is not int:
            if not _is_int(value):
                raise WordError(f"{value!r} is not an integer {self._noun}")
            value = int(value)  # keys are exact ints
        return value if self.order is None else value % self.order

    def decode(self, key: int) -> int:
        return key

    def parse_value(self, text: str) -> int:
        if not _INT_RE.match(text):
            raise WordError(f"expected an integer {self._noun}, got {text!r}")
        return self.encode(int(text))

    def conjugator_key(self, a: int, b: int) -> Optional[int]:
        return 0 if a == b else None  # keys are canonical and the group abelian


VertexGroup = Union[FiniteTableGroup, CyclicGroup]


def vertex_group_from_config(config) -> VertexGroup:
    """Build a vertex group from its document form.

    Accepted forms: "Z", "cyclic n" (sugar for {"mod": n}), {"mod": n},
    {"table": {"elements": [...], "mul": [[...]], "identity": i}}.
    """
    if config == "Z":
        return CyclicGroup()
    if isinstance(config, str):
        parts = config.split()
        if len(parts) == 2 and parts[0] == "cyclic" and parts[1].isdecimal():
            return CyclicGroup(int(parts[1]))
        raise PresentationError(f"unknown vertex group {config!r}")
    if isinstance(config, dict):
        if set(config) == {"mod"}:
            return CyclicGroup(config["mod"] or 0)  # null is rejected like 0, not read as order None (Z)
        if set(config) == {"table"}:
            t = config["table"]
            if not isinstance(t, dict) or set(t) != {"elements", "mul", "identity"}:
                raise PresentationError("table group needs elements, mul, identity")
            return FiniteTableGroup(t["elements"], t["mul"], t["identity"])
    raise PresentationError(f"unknown vertex group description {config!r}")


# ---------------------------------------------------------------------------
# Graphs and presentations.
# ---------------------------------------------------------------------------


class SimplicialGraph:
    """A finite simplicial graph: named vertices, loop-free unordered edges."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[Sequence[str]]):
        names = tuple(vertices)
        if len(set(names)) != len(names):
            raise PresentationError("duplicate vertex names")
        for name in names:
            if not _NAME_RE.match(name):
                raise PresentationError(f"bad vertex name {name!r}")
        index = {v: i for i, v in enumerate(names)}
        pairs = set()
        for edge in edges:
            u, v = edge
            if u not in index or v not in index:
                raise PresentationError(f"edge {edge!r} mentions an unknown vertex")
            if u == v:
                raise PresentationError(f"loop edge at {u!r}")
            key = (min(u, v), max(u, v))
            if key in pairs:
                raise PresentationError(f"duplicate edge {key!r}")
            pairs.add(key)
        self.vertices = names
        self.edges = frozenset(pairs)
        self.ids = index  # vertex name -> index
        adj = [set() for _ in names]
        for u, v in pairs:
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        self.iadj = tuple(frozenset(s) for s in adj)  # vertex index -> indices of its neighbours

    def index(self, vertex: str) -> int:
        if vertex not in self.ids:
            raise PresentationError(f"unknown vertex {vertex!r}")
        return self.ids[vertex]

    def link(self, vertex: str) -> frozenset:
        return frozenset(self.vertices[j] for j in self.iadj[self.index(vertex)])

    def star(self, vertex: str) -> frozenset:
        return self.link(vertex) | {vertex}


def link_of(graph: SimplicialGraph, vertices: Iterable[str]) -> frozenset:
    """link(A) = intersection of the links; link of the empty set is all of V."""
    result = set(graph.vertices)
    for v in vertices:
        result &= graph.link(v)
    return frozenset(result)


def star_of(graph: SimplicialGraph, vertices: Iterable[str]) -> frozenset:
    """star(A) = intersection of the stars; star of the empty set is all of V."""
    result = set(graph.vertices)
    for v in vertices:
        result &= graph.star(v)
    return frozenset(result)


class GroupPresentation:
    """A simplicial graph with one vertex group per vertex."""

    def __init__(self, graph: SimplicialGraph, groups: dict):
        if set(groups) != set(graph.vertices):
            raise PresentationError("need exactly one vertex group per vertex")
        self.graph = graph
        self.groups = dict(groups)
        self.by_index = tuple(groups[v] for v in graph.vertices)
        self.iadj = graph.iadj
        self.istar = tuple(adj | {i} for i, adj in enumerate(graph.iadj))
        self.identity_keys = tuple(group.identity_key for group in self.by_index)

    @property
    def vertices(self):
        return self.graph.vertices

    def vertex_index(self, vertex: str) -> int:
        return self.graph.index(vertex)

    def decode_syllable(self, vi: int, key) -> "Syllable":
        return Syllable(self.graph.vertices[vi], self.by_index[vi].decode(key))


def presentation_from_config(config) -> GroupPresentation:
    if not isinstance(config, dict) or set(config) - {"vertices", "edges"}:
        raise PresentationError("document must be {vertices: [...], edges: [...]}")
    entries = config.get("vertices")
    if not isinstance(entries, list) or not entries:
        raise PresentationError("need a nonempty vertex list")
    names, groups = [], {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"name", "group"}:
            raise PresentationError(f"bad vertex entry {entry!r}")
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise PresentationError(f"bad vertex name {name!r}")
        names.append(name)
        groups[name] = vertex_group_from_config(entry["group"])
    edges = config.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in edges
    ):
        raise PresentationError("edges must be a list of vertex pairs")
    graph = SimplicialGraph(names, edges)
    return GroupPresentation(graph, groups)


def parse_presentation(text: str) -> GroupPresentation:
    """Parse and validate the JSON presentation document."""
    try:
        config = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise PresentationError(f"not valid JSON: {exc}") from None
    return presentation_from_config(config)


def load_presentation(path) -> GroupPresentation:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_presentation(handle.read())


# ---------------------------------------------------------------------------
# Words.
# ---------------------------------------------------------------------------


class Syllable(NamedTuple):
    """One vertex-group element used as a letter of a word."""

    vertex: str
    value: object  # element name for table groups, int otherwise


class Word(NamedTuple):
    """A finite, possibly unreduced, sequence of syllables."""

    syllables: tuple

    def __len__(self) -> int:  # the syllable count; _replace checks len(), so build a new Word instead
        return len(self.syllables)


def _parse_key(pres: GroupPresentation, text: str, make=lambda vi, key: (vi, key)) -> list:
    """make(vertex index, value key) of each whitespace-separated NAME[VALUE]
    token, unreduced; "1" or "" gives none."""
    stripped = text.strip()
    if stripped == "1":
        return []
    ids, groups, key = pres.graph.ids, pres.by_index, []
    for token in stripped.split():
        match = _TOKEN_RE.match(token)
        if not match:
            raise WordError(f"bad token {token!r} (expected NAME[VALUE])")
        name, value_text = match.groups()
        vi = ids.get(name)
        if vi is None:
            raise WordError(f"unknown vertex {name!r}")
        key.append(make(vi, groups[vi].parse_value(value_text)))
    return key


def parse_word(pres: GroupPresentation, text: str) -> Word:
    """Parse whitespace-separated NAME[VALUE] tokens; "1" or "" is the identity."""
    return Word(tuple(_parse_key(pres, text, pres.decode_syllable)))


def render_word(pres: GroupPresentation, word: Word) -> str:
    """Inverse of parse_word on canonical values; the empty word renders as "1"."""
    if not word.syllables:
        return "1"
    parts = []
    for syl in word.syllables:
        group = pres.by_index[pres.vertex_index(syl.vertex)]
        parts.append(f"{syl.vertex}[{group.decode(group.encode(syl.value))}]")
    return " ".join(parts)


def vertex_mul(group: VertexGroup, a, b):
    """Product of two public values in a vertex group."""
    return group.decode(group.mul(group.encode(a), group.encode(b)))


def vertex_conjugate_test(group: VertexGroup, a, b):
    """Decide b = t a t^-1 in the vertex group; returns (found, t or None)."""
    key = group.conjugator_key(group.encode(a), group.encode(b))
    if key is None:
        return False, None
    return True, group.decode(key)


def induced_presentation(pres: GroupPresentation, vertices: Iterable[str]) -> GroupPresentation:
    """The presentation of the full subgroup on the given vertex subset."""
    keep = set(vertices)
    for v in keep:
        pres.vertex_index(v)
    names = [v for v in pres.vertices if v in keep]
    edges = [e for e in sorted(pres.graph.edges) if e[0] in keep and e[1] in keep]
    graph = SimplicialGraph(names, edges)
    return GroupPresentation(graph, {v: pres.groups[v] for v in names})
