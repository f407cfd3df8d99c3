"""Seeded inputs whose answers are known by construction, and the independent
checks that confirm them.

Nothing here calls graphprod.  Words are lists of ``(vertex_index, value)``
pairs with public values (ints for ``Z`` and ``Z/n``, element names for
table groups), so a word can be handed to the library as ``Word(Syllable...)``
and its answer checked without asking the library.

The constructions:

* a *strict* word has consecutive syllables on distinct, non-adjacent
  vertices, so no two syllables of one vertex can ever meet: it is reduced;
  if its first and last vertices also differ it is cyclically reduced;
* a *free* reduced word lets neighbours commute; each syllable is kept only
  if no earlier syllable of its vertex is reachable through commuting ones,
  so it is reduced too, and its least-vertex-first linearization is built
  here from the commutation order alone;
* commutation shuffles (adjacent swaps of syllables on distinct adjacent
  vertices), inserted cancelling pairs and split syllables keep the element;
* changing one syllable's exponent at a ``Z`` or ``Z/n`` vertex changes the
  abelianization, so the result is neither equal nor conjugate to the input.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random

# S3 as permutations of {0, 1, 2}; element i is PERMS[i], composed left to right.
_PERMS = list(itertools.permutations(range(3)))
S3_NAMES = ["e", "r", "rr", "s", "sr", "srr"]
_PIDX = {p: i for i, p in enumerate(_PERMS)}
S3_MUL = [[_PIDX[tuple(p[q[i]] for i in range(3))] for q in _PERMS] for p in _PERMS]
S3_CONFIG = {"table": {"elements": S3_NAMES, "mul": S3_MUL, "identity": 0}}


class VGroup:
    """Vertex-group arithmetic on public values, independent of graphprod."""

    def __init__(self, config):
        self.config = config
        if config == "Z":
            self.kind, self.n = "Z", None
        elif isinstance(config, str):
            self.kind, self.n = "mod", int(config.split()[1])
        elif "mod" in config:
            self.kind, self.n = "mod", config["mod"]
        else:
            table = config["table"]
            self.kind, self.n = "table", len(table["elements"])
            self.names = list(table["elements"])
            self.table = table["mul"]
            self.unit = table["identity"]

    def random_value(self, rng: random.Random, window: int = 3):
        if self.kind == "Z":
            return rng.choice([e for e in range(-window, window + 1) if e])
        if self.kind == "mod":
            return rng.randrange(1, self.n)
        return rng.choice([x for i, x in enumerate(self.names) if i != self.unit])

    def mul(self, a, b):
        if self.kind == "Z":
            return a + b
        if self.kind == "mod":
            return (a + b) % self.n
        return self.names[self.table[self.names.index(a)][self.names.index(b)]]

    def inv(self, a):
        if self.kind == "Z":
            return -a
        if self.kind == "mod":
            return (-a) % self.n
        i = self.names.index(a)
        return self.names[next(j for j in range(self.n) if self.table[i][j] == self.unit)]

    def is_identity(self, a) -> bool:
        if self.kind == "Z":
            return a == 0
        if self.kind == "mod":
            return a % self.n == 0
        return a == self.names[self.unit]

    def other_value(self, a, rng: random.Random):
        """A different nontrivial value with a different abelian image."""
        if self.kind == "Z":
            return rng.choice([e for e in range(-3, 4) if e and e != a])
        return rng.choice([v for v in range(1, self.n) if v != a % self.n])


class Graph:
    """Vertex names, vertex groups and adjacency: the benchmark's own copy."""

    def __init__(self, names, groups, edges):
        self.names = list(names)
        self.groups = [VGroup(g) for g in groups]
        self.configs = list(groups)
        self.index = {v: i for i, v in enumerate(self.names)}
        self.adj = [set() for _ in self.names]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)

    def commute(self, u: int, v: int) -> bool:
        return u != v and v in self.adj[u]

    def non_commuting(self, u: int) -> list:
        """Vertices that block u: itself excluded, neighbours excluded."""
        return [v for v in range(len(self.names)) if v != u and v not in self.adj[u]]

    def document(self) -> str:
        return json.dumps(
            {
                "vertices": [{"name": n, "group": g} for n, g in zip(self.names, self.configs)],
                "edges": [[self.names[u], self.names[v]] for u, v in self.edges],
            }
        )

    # -- words ---------------------------------------------------------

    def syllable(self, v: int, rng: random.Random, window: int = 3):
        return (v, self.groups[v].random_value(rng, window))

    def random_word(self, length: int, rng: random.Random) -> list:
        n = len(self.names)
        return [self.syllable(rng.randrange(n), rng) for _ in range(length)]

    def strict_word(self, length: int, rng: random.Random, first=None) -> list:
        """A reduced word: consecutive syllables on distinct non-adjacent
        vertices; ``first`` pins the first vertex."""
        v = rng.randrange(len(self.names)) if first is None else first
        out = [self.syllable(v, rng)]
        while len(out) < length:
            v = rng.choice(self.non_commuting(v))
            out.append(self.syllable(v, rng))
        return out

    def can_join(self, word: list, v: int) -> bool:
        """Would a syllable on ``v`` appended to ``word`` meet an earlier
        syllable of ``v`` through syllables that commute with ``v``?"""
        i = len(word) - 1
        while i >= 0 and self.commute(v, word[i][0]):
            i -= 1
        return i >= 0 and word[i][0] == v

    def reduced_word(self, length: int, rng: random.Random) -> list:
        """A reduced word whose neighbours may commute: each next vertex is
        any vertex that cannot join an earlier syllable (the previous
        vertex's non-neighbours always qualify)."""
        n = len(self.names)
        out = [self.syllable(rng.randrange(n), rng)]
        while len(out) < length:
            v = rng.choice([v for v in range(n) if not self.can_join(out, v)])
            out.append(self.syllable(v, rng))
        return out

    def least_vertex_first(self, word: list) -> list:
        """The least-vertex-first linearization of a reduced word: a
        topological order of its commutation order that always takes the
        smallest available vertex."""
        last = {}  # vertex -> position of its latest syllable so far
        successors = [[] for _ in word]
        waiting = [0] * len(word)
        for j, (v, _) in enumerate(word):
            for u, i in last.items():
                if not self.commute(u, v):
                    successors[i].append(j)
                    waiting[j] += 1
            last[v] = j
        ready = [(v, j) for j, (v, _) in enumerate(word) if not waiting[j]]
        heapq.heapify(ready)
        out = []
        while ready:
            _, i = heapq.heappop(ready)
            out.append(word[i])
            for j in successors[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    heapq.heappush(ready, (word[j][0], j))
        return out

    def shuffled_reduced(self, length: int, rng: random.Random):
        """(shuffled, canonical): a reduced word in least-vertex-first form and
        a commutation shuffle of it that differs from it, so returning the
        input unchanged cannot pass for canonicalization."""
        canonical = self.least_vertex_first(self.reduced_word(length, rng))
        for _ in range(100):
            shuffled = self.shuffle(canonical, rng, 2 * length)
            if shuffled != canonical:
                return shuffled, canonical
        raise ValueError("no commuting neighbours to shuffle")

    def invert(self, word: list) -> list:
        return [(v, self.groups[v].inv(val)) for v, val in reversed(word)]

    def shuffle(self, word: list, rng: random.Random, swaps: int) -> list:
        """Random legal adjacent swaps; the element does not change."""
        out = list(word)
        if len(out) < 2:
            return out
        for _ in range(swaps):
            i = rng.randrange(len(out) - 1)
            if self.commute(out[i][0], out[i + 1][0]):
                out[i], out[i + 1] = out[i + 1], out[i]
        return out

    def inflate(self, word: list, extra: int, rng: random.Random) -> list:
        """Insert cancelling pairs and split syllables until ``extra`` syllables
        were added, then shuffle; the element does not change."""
        out = list(word)
        added = 0
        while added < extra:
            pos = rng.randrange(len(out) + 1)
            if out and rng.random() < 0.3:
                i = min(pos, len(out) - 1)
                v, val = out[i]
                group = self.groups[v]
                part = group.random_value(rng)
                rest = group.mul(group.inv(part), val)
                if group.is_identity(rest):
                    continue
                out[i : i + 1] = [(v, part), (v, rest)]
                added += 1
            else:
                s = self.syllable(rng.randrange(len(self.names)), rng)
                out[pos:pos] = [s, (s[0], self.groups[s[0]].inv(s[1]))]
                added += 2
        return self.shuffle(out, rng, 2 * len(out))

    def change_abelian(self, word: list, rng: random.Random) -> list:
        """Change one syllable's value at a Z or Z/n (n > 2) vertex: a different
        abelian image, so the result is neither equal nor conjugate to the input."""
        spots = [
            i
            for i, (v, _) in enumerate(word)
            if self.groups[v].kind == "Z" or (self.groups[v].kind == "mod" and self.groups[v].n > 2)
        ]
        i = rng.choice(spots)
        v, val = word[i]
        out = list(word)
        out[i] = (v, self.groups[v].other_value(val, rng))
        return out

    def conjugated_core(self, length: int, rng: random.Random):
        """(u, c) with |u| = 1 and |u c u^-1| = length: c is a cyclically
        reduced strict word and u sits on a vertex that blocks both ends of c,
        so u c u^-1 is reduced as written and cyclically reduces to length |c|.

        The shell is one syllable because ``cyclically_reduce`` peels one
        pair per step and re-canonicalizes the whole word each time.
        """
        while True:
            core = self.strict_word(length - 2, rng)
            first, last = core[0][0], core[-1][0]
            joints = [v for v in self.non_commuting(first) if v != last and v not in self.adj[last]]
            if first != last and joints:
                return [self.syllable(rng.choice(joints), rng)], core

    # -- independent checks ------------------------------------------------

    def projections(self, word: list) -> dict:
        """Projections onto every non-commuting vertex pair (and each vertex).

        Two reduced words are equal in the graph product iff they are related
        by commutation swaps, iff all these projections agree.
        """
        n = len(self.names)
        by_vertex = [[] for _ in range(n)]
        for pos, syl in enumerate(word):
            by_vertex[syl[0]].append(pos)
        out = {}
        for u in range(n):
            for v in range(u, n):
                if u != v and v in self.adj[u]:
                    continue
                positions = sorted(by_vertex[u] + (by_vertex[v] if v != u else []))
                out[(u, v)] = tuple(word[p] for p in positions)
        return out

    def same_trace(self, a: list, b: list) -> bool:
        return len(a) == len(b) and self.projections(a) == self.projections(b)

    def is_least_vertex_first(self, word: list) -> bool:
        """The greedy least-vertex-first linearization (lexicographic normal form):
        every syllable is preceded, back to the last syllable it does not
        commute with, only by syllables of smaller vertices."""
        for j, (v, _) in enumerate(word):
            i = j - 1
            while i >= 0 and self.commute(v, word[i][0]):
                if word[i][0] > v:
                    return False
                i -= 1
        return True


def normal_form_graph(rng: random.Random) -> Graph:
    """10 vertices, 22 of 45 edges (density 0.5), groups Z, Z/2, Z/5, S3 in turn.

    No vertex is adjacent to all others, so strict words can always continue.
    """
    kinds = ["Z", "cyclic 2", "cyclic 5", S3_CONFIG]
    names = [f"v{i}" for i in range(10)]
    groups = [kinds[i % 4] for i in range(10)]
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    while True:
        edges = rng.sample(pairs, 22)
        degree = [0] * 10
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if max(degree) < 9:
            return Graph(names, groups, edges)


def block_graph(k: int, rng: random.Random) -> Graph:
    """The join of k free blocks Z * Z/3 (one block Z * S3) and a central Z.

    Block b has vertices x<b> (Z) and t<b> (Z/3 or S3), not adjacent to each
    other; every other pair of vertices is adjacent.
    """
    table_block = rng.randrange(k)
    names, groups = [], []
    for b in range(k):
        names += [f"x{b}", f"t{b}"]
        groups += ["Z", S3_CONFIG if b == table_block else "cyclic 3"]
    names.append("z")
    groups.append("Z")
    edges = [
        (i, j)
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if names[i] == "z" or names[j] == "z" or names[i][1:] != names[j][1:]
    ]
    return Graph(names, groups, edges)


def pentagon_graph(z_count: int, rng: random.Random) -> Graph:
    """A 5-cycle with ``z_count`` non-adjacent Z vertices and Z/3 elsewhere,
    rotated by the seed (all rotations are isomorphic)."""
    shift = rng.randrange(5)
    z_at = {(shift + 2 * i) % 5 for i in range(z_count)}
    groups = ["Z" if i in z_at else "cyclic 3" for i in range(5)]
    return Graph([f"p{i}" for i in range(5)], groups, [(i, (i + 1) % 5) for i in range(5)])


def from_document(text: str) -> Graph:
    doc = json.loads(text)
    names = [v["name"] for v in doc["vertices"]]
    index = {n: i for i, n in enumerate(names)}
    return Graph(names, [v["group"] for v in doc["vertices"]], [(index[u], index[v]) for u, v in doc["edges"]])
