"""The four workloads: seeded operations with known answers.

A workload builds its presentations once (``setup``) and then hands out
cycles of operations (``cycle``).  Each operation has

* ``run``: the timed part -- the library calls that answer the question,
  plus the library re-check of any certificate (a conjugator through
  ``conjugate``, a witness through ``verify()``, a parabolic through
  membership);
* ``check``: the untimed part -- compares the outcome with the answer the
  input was built to have, using only ``gen``; returns ``"ok"`` or
  ``"unknown"`` (a bounded search with no certified answer) and raises
  ``WrongAnswer`` otherwise.

Library calls go through module attributes (``words.reduce``), so the
tracer's run-time wrappers see them.
"""

from __future__ import annotations

import ast
import hashlib
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

from graphprod import amalgam, conjugacy, cyclic, parabolic, presentation, separability, words
from graphprod.presentation import Syllable, Word

import gen

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DATA_DIR = REPO_ROOT / "tests" / "data"
ACCEPTANCE = REPO_ROOT / "tests" / "test_acceptance.py"
OUT_DIR = BENCH_DIR / "out"


class WrongAnswer(AssertionError):
    """The library's answer differs from the answer the input was built to have."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    syllables: int  # input syllables handed to the library
    bounded: bool  # a bounded search, counted in unknown_frac
    key: str  # the generated input, for the set-up digest
    child: bool = False  # runs in a child process under its own deadline


def expect(ok: bool, message: str) -> str:
    if not ok:
        raise WrongAnswer(message)
    return "ok"


def op_rng(seed: int, cycle: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{cycle}:{index}")


class Space:
    """A presentation as the library sees it, with the benchmark's own model."""

    def __init__(self, graph: gen.Graph):
        self.graph = graph
        self.pres = presentation.parse_presentation(graph.document())

    def word(self, syllables) -> Word:
        names = self.graph.names
        return Word(tuple(Syllable(names[v], val) for v, val in syllables))

    def element(self, syllables):
        return words.reduce(self.pres, self.word(syllables))

    def syllables(self, obj) -> list:
        """(vertex_index, value) pairs of an Element or a Word."""
        word = obj.word() if hasattr(obj, "word") else obj
        index = self.graph.index
        return [(index[s.vertex], s.value) for s in word.syllables]


# ---------------------------------------------------------------------------
# normal-form
# ---------------------------------------------------------------------------

# 18 geometric steps from 500 to 3000 syllables; cycle c takes every third
# one from c % 3, so three cycles cover them all and the latencies spread
# evenly instead of bunching at six values.
NF_LENGTHS = tuple(round(500 * 6 ** (i / 17)) for i in range(18))


class NormalForm:
    """The word problem on long words over a seeded 10-vertex graph."""

    name = "normal-form"
    min_ops = 100
    kinds = ("reduce", "eq-shuffle", "eq-syllable", "mul-inv", "canonical", "cyclic")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.space = Space(gen.normal_form_graph(random.Random(f"{seed}:graph")))

    def cycle(self, c: int) -> List[Op]:
        """Every op kind at each of six lengths once: a 6x6 Latin square of
        (kind, length), so cycles c and c + 3 do the same shape of work."""
        lengths = NF_LENGTHS[c % 3 :: 3]
        ops = []
        for row in range(len(lengths)):
            for k, kind in enumerate(self.kinds):
                length = lengths[(k + row) % len(lengths)]
                rng = op_rng(self.seed, c, len(ops))
                ops.append(getattr(self, "_" + kind.replace("-", "_"))(length, rng))
        return ops

    def _reduce(self, length, rng):
        g, sp = self.space.graph, self.space
        r = g.strict_word(length * 3 // 5, rng)
        w = g.inflate(r, length - len(r), rng)
        word = sp.word(w)

        def check(e):
            out = sp.syllables(e)
            expect(g.same_trace(out, r), "reduce: not the element the word was built from")
            return expect(g.is_least_vertex_first(out), "reduce: not in least-vertex-first form")

        return Op("reduce", lambda: words.reduce(sp.pres, word), check, len(w), False, repr(w))

    def _eq_shuffle(self, length, rng):
        g, sp = self.space.graph, self.space
        w1 = g.random_word(length, rng)
        w2 = g.shuffle(w1, rng, 2 * length)
        a, b = sp.word(w1), sp.word(w2)
        return Op(
            "eq-shuffle",
            lambda: words.reduce(sp.pres, a) == words.reduce(sp.pres, b),
            lambda equal: expect(equal is True, "eq: a commutation shuffle compared unequal"),
            2 * length,
            False,
            repr((w1, w2)),
        )

    def _eq_syllable(self, length, rng):
        g, sp = self.space.graph, self.space
        w1 = g.random_word(length, rng)
        w2 = w1 + [g.syllable(rng.randrange(len(g.names)), rng)]
        a, b = sp.word(w1), sp.word(w2)
        return Op(
            "eq-syllable",
            lambda: words.reduce(sp.pres, a) == words.reduce(sp.pres, b),
            lambda equal: expect(equal is False, "eq: w and w*s compared equal"),
            2 * length + 1,
            False,
            repr((w1, w2)),
        )

    def _mul_inv(self, length, rng):
        g, sp = self.space.graph, self.space
        w = g.random_word(length, rng)
        word = sp.word(w)

        def run():
            e = words.reduce(sp.pres, word)
            return words.multiply(e, words.invert(e))

        return Op(
            "mul-inv",
            run,
            lambda m: expect(len(m.key) == 0, "multiply(e, invert(e)) is not the identity"),
            length,
            False,
            repr(w),
        )

    def _canonical(self, length, rng):
        sp = self.space
        shuffled, canonical = sp.graph.shuffled_reduced(length, rng)
        word = sp.word(shuffled)

        def check(cf):
            return expect(sp.syllables(cf) == canonical, "canonical_form: not the least-vertex-first linearization")

        return Op("canonical", lambda: words.canonical_form(sp.pres, word), check, length, False, repr(shuffled))

    def _cyclic(self, length, rng):
        g, sp = self.space.graph, self.space
        # Half length: each cyclic-reduction step re-canonicalizes the whole
        # word, so at full length this one kind would take most of the run.
        u, core = g.conjugated_core(length // 2, rng)
        whole = u + core + g.invert(u)
        whole_word = sp.word(whole)

        def run():
            e = words.reduce(sp.pres, whole_word)
            cr = cyclic.cyclically_reduce(e)
            w = cr.conjugator
            certified = words.conjugate(w, cr.reduced) == e
            # u c u^-1 is reduced as written, so the certificate's pieces are too
            product = words.is_reduced_product([w, cr.reduced, words.invert(w)])
            return len(e.key), len(cr.reduced.key), certified, product

        def check(out):
            whole_len, core_len, certified, product = out
            expect(whole_len == len(whole), "reduce shortened a reduced word")
            expect(certified, "cyclically_reduce: conjugator does not conjugate back")
            expect(product, "is_reduced_product: conjugator * core * conjugator^-1 cancels")
            return expect(core_len == len(core), "cyclically_reduce: wrong core length")

        return Op("cyclic", run, check, len(whole), False, repr(whole))


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

FACTOR_LENGTHS = {1: (8,), 2: (6, 10), 3: (6, 8, 10), 4: (6, 6, 8, 8)}
BLOCKS = 4


class ConjugacyPairs:
    """Builds conjugate and non-conjugate pairs whose moving part has k factors.

    A factor is a cyclically reduced alternating word in one free block; the
    factors commute, so their rotations multiply: k = 4 gives 6*6*8*8 = 2304.
    """

    def __init__(self, space: Space):
        self.g = space.graph

    def factor(self, block: int, length: int, rng) -> list:
        g = self.g
        x, t = g.index[f"x{block}"], g.index[f"t{block}"]
        order = (x, t) if rng.random() < 0.5 else (t, x)
        return [g.syllable(order[i % 2], rng) for i in range(length)]

    def interleave(self, factors, central, rng) -> list:
        """A random merge of commuting factors, with the central syllable."""
        queues = [list(f) for f in factors] + [[central]]
        out = []
        while any(queues):
            q = rng.choice([q for q in queues if q])
            out.append(q.pop(0))
        return out

    def pair(self, k: int, mode: str, rng, lengths=None):
        """(x, y) with y = w rot(x') w^-1; x' = x, or x with one factor
        syllable ("p") or the central syllable ("s") changed."""
        g = self.g
        blocks = rng.sample(range(len(g.names) // 2), k)
        lengths = list(lengths or FACTOR_LENGTHS[k])
        rng.shuffle(lengths)
        factors = [self.factor(b, n, rng) for b, n in zip(blocks, lengths)]
        central = g.syllable(g.index["z"], rng)
        x = self.interleave(factors, central, rng)
        rotated = []
        for f in factors:
            s = rng.randrange(len(f))
            rotated.append(f[s:] + f[:s])
        if mode == "p":
            i = rng.randrange(k)
            rotated[i] = g.change_abelian(rotated[i], rng)
        elif mode == "s":
            central = (central[0], g.groups[central[0]].other_value(central[1], rng))
        w = g.random_word(rng.randint(10, 30), rng)
        y = w + self.interleave(rotated, central, rng) + g.invert(w)
        return x, y


class Conjugacy:
    """Conjugacy decisions and separation witnesses on short words."""

    name = "conjugacy"
    min_ops = 100
    # (kind, k): positive pairs, negatives by a factor or central syllable,
    # witnesses on negatives with at most 60 rotations, residual witnesses.
    plan = (
        [("pos", k) for k in (1, 2, 3, 4)]
        + [("neg-p", k) for k in (1, 2, 3, 4)]
        + [("neg-s", k) for k in (1, 2, 3)]
        + [("witness-p", 1), ("witness-p", 2), ("witness-s", 2)]
        + [("residual", 2), ("residual", 3)]
    )

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.space = Space(gen.block_graph(BLOCKS, random.Random(f"{seed}:graph")))
        self.pairs = ConjugacyPairs(self.space)

    def cycle(self, c: int) -> List[Op]:
        return [self._op(kind, k, op_rng(self.seed, c, i)) for i, (kind, k) in enumerate(self.plan)]

    def _op(self, kind, k, rng):
        sp = self.space
        mode = {"pos": "", "residual": "", "neg-p": "p", "witness-p": "p"}.get(kind, "s")
        x, y = self.pairs.pair(k, mode, rng)
        wx, wy = sp.word(x), sp.word(y)
        label = f"{kind}-k{k}"
        size = len(x) + len(y)
        if kind == "pos":

            def run():
                a, b = sp.element(x), sp.element(y)
                verdict = conjugacy.are_conjugate(a, b)
                return verdict.conjugate and words.conjugate(verdict.conjugator, a) == b

            return Op(label, run, lambda ok: expect(ok, "conjugate pair not certified"), size, False, repr((x, y)))
        if kind.startswith("neg"):

            def run():
                return conjugacy.are_conjugate(words.reduce(sp.pres, wx), words.reduce(sp.pres, wy)).conjugate

            return Op(label, run, lambda c: expect(c is False, "non-conjugate pair called conjugate"), size, False, repr((x, y)))
        if kind.startswith("witness"):

            def run():
                a, b = words.reduce(sp.pres, wx), words.reduce(sp.pres, wy)
                return separability.conjugacy_witness(a, b).verify()

            return Op(label, run, lambda ok: expect(ok is True, "conjugacy witness fails verify()"), size, False, repr((x, y)))

        def run():
            return separability.residual_witness(words.reduce(sp.pres, wx)).verify()

        return Op(label, run, lambda ok: expect(ok is True, "residual witness fails verify()"), len(x), False, repr(x))


# ---------------------------------------------------------------------------
# ball-search
# ---------------------------------------------------------------------------


def load_space(name: str) -> Space:
    return Space(gen.from_document((DATA_DIR / f"{name}.json").read_text()))


class BallSearch:
    """Bounded searches at radius 3-5 that enumerate the same balls again and again."""

    name = "ball-search"
    min_ops = 100
    # (kind, presentation, radius, word length)
    plan = (
        ("bf-yes", "free-zz", 4, 2),
        ("bf-no", "free-zz", 3, 2),
        ("bf-yes", "pent1", 4, 2),
        ("bf-no", "pent1", 4, 2),
        ("bf-no", "triangle-mixed", 5, 1),
        ("cc", "free-zz", 3, 2),
        ("cc", "path-racg", 5, 2),
        ("cc", "pent1", 4, 2),
        ("csc", "pent1", 4, 3),
        ("csc", "free-zz", 3, 2),
        ("acb-yes", "pent2", 3, 3),
        ("acb-no", "pent2", 3, 3),
        ("pis", "pent1", 4, 2),
        ("pis", "free-zz", 3, 2),
    )

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{seed}:graph")
        self.spaces = {name: load_space(name) for name in ("free-zz", "path-racg", "triangle-mixed")}
        self.spaces["pent1"] = Space(gen.pentagon_graph(1, rng))
        self.spaces["pent2"] = Space(gen.pentagon_graph(2, rng))

    def cycle(self, c: int) -> List[Op]:
        ops = []
        for i, (kind, name, radius, length) in enumerate(self.plan):
            make = getattr(self, "_" + kind.split("-")[0])
            ops.append(make(kind, self.spaces[name], radius, length, op_rng(self.seed, c, i)))
        return ops

    @staticmethod
    def cyclic_word(g: gen.Graph, length: int, rng, first=None) -> list:
        """A strict word with distinct end vertices: cyclically reduced.

        A single syllable is cyclically reduced too; on a complete graph it is
        the only choice, and it is put on a vertex with another abelian value.
        """
        if length == 1:
            v = rng.choice([v for v, grp in enumerate(g.groups) if grp.kind == "Z" or (grp.n or 0) > 2])
            return [g.syllable(v, rng)]
        while True:
            w = g.strict_word(length, rng, first=first)
            if w[0][0] != w[-1][0]:
                return w

    def _bf(self, kind, sp, radius, length, rng):
        """y = w x w^-1 with |w| < radius; for "bf-no" x's abelian image changes."""
        g = sp.graph
        x = self.cyclic_word(g, length, rng)
        w = g.strict_word(radius - 1, rng) if length > 1 else [g.syllable(rng.randrange(len(g.names)), rng)]
        y = w + (g.change_abelian(x, rng) if kind == "bf-no" else x) + g.invert(w)
        wx, wy = sp.word(x), sp.word(y)

        def run():
            a, b = words.reduce(sp.pres, wx), words.reduce(sp.pres, wy)
            found = conjugacy.brute_force_conjugate(a, b, radius)
            return found.status, found.found and words.conjugate(found.conjugator, a) == b

        def check(out):
            status, certified = out
            if kind == "bf-yes":
                return expect(status == "yes" and certified, "conjugator inside the radius not found")
            expect(status == "exhausted", "non-conjugate pair reported conjugate")
            return "unknown"

        return Op(kind, run, check, len(x) + len(y), True, repr((x, y)))

    def _cc(self, kind, sp, radius, length, rng):
        """g = (apex syllable)(syllable off the apex's star): consonant-leading
        and cyclically reduced at the apex; a central apex gives g = apex."""
        g = sp.graph
        apex = rng.randrange(len(g.names))
        others = g.non_commuting(apex)
        word = [g.syllable(apex, rng)] + ([g.syllable(rng.choice(others), rng)] if others else [])
        apex_name = g.names[apex]
        wg = sp.word(word)

        def run():
            view = amalgam.decompose_at(sp.pres, apex_name)
            report = amalgam.centralizer_check(view, words.reduce(sp.pres, wg), radius)
            return len(report.violations), len(report.unresolved)

        def check(out):
            violations, unresolved = out
            expect(violations == 0, "centralizer_check reported violations")
            return "unknown" if unresolved else "ok"

        return Op("cc", run, check, len(word), True, repr((apex, word)))

    def _csc(self, kind, sp, radius, length, rng):
        word = self.cyclic_word(sp.graph, length, rng)
        wg = sp.word(word)

        def run():
            report = parabolic.centralizer_structure_check(words.reduce(sp.pres, wg), radius)
            return len(report.violations)

        return Op("csc", run, lambda v: expect(v == 0, "centralizer_structure_check violations"), len(word), True, repr(word))

    def _acb(self, kind, sp, radius, length, rng):
        """f = b g b^-1 with b in a proper full subgroup B of the A-side; for
        "acb-no" g's consonant changes in f, so the consonant sequences differ."""
        g = sp.graph
        apex = rng.randrange(len(g.names))
        b_set = sorted(rng.sample([v for v in range(len(g.names)) if v != apex], 2))
        word = [g.syllable(apex, rng)] + g.strict_word(length - 1, rng, first=rng.choice(g.non_commuting(apex)))
        target = list(word)
        if kind == "acb-no":
            target[0] = (apex, g.groups[apex].other_value(word[0][1], rng))
        b_word = [g.syllable(v, rng) for v in b_set]
        f = b_word + target + g.invert(b_word)
        wg, wf = sp.word(word), sp.word(f)
        b_names = [g.names[v] for v in b_set]
        apex_name = g.names[apex]

        def run():
            view = amalgam.decompose_at(sp.pres, apex_name)
            ge, fe = words.reduce(sp.pres, wg), words.reduce(sp.pres, wf)
            answer = amalgam.amalgam_conjugate_by(view, b_names, fe, ge, radius)
            certified = answer.status == "yes" and (
                answer.conjugator.support() <= set(b_names) and words.conjugate(answer.conjugator, ge) == fe
            )
            return answer.status, certified

        def check(out):
            status, certified = out
            if kind == "acb-no":
                return expect(status == "no", "different consonant sequences not refuted")
            expect(status != "no", "a conjugate by B was refuted")
            return expect(certified, "conjugator outside B or wrong") if status == "yes" else "unknown"

        return Op(kind, run, check, len(word) + len(f), True, repr((apex, b_set, word, f)))

    def _pis(self, kind, sp, radius, length, rng):
        """p1 = h G_A h^-1 and p2 = h G_B h^-1 meet in h G_(A&B) h^-1."""
        g = sp.graph
        n = len(g.names)
        if n == 5:  # two overlapping arcs of the pentagon
            s = rng.randrange(5)
            core1 = {g.names[(s + i) % 5] for i in range(3)}
            core2 = {g.names[(s + 1 + i) % 5] for i in range(3)}
        else:
            core1 = {g.names[rng.randrange(n)]}
            core2 = set(g.names)
        h = g.strict_word(length, rng)
        wh = sp.word(h)
        meet = frozenset(core1 & core2)

        def run():
            he = words.reduce(sp.pres, wh)
            p1 = parabolic.ParabolicSubgroup(he, frozenset(core1))
            p2 = parabolic.ParabolicSubgroup(he, frozenset(core2))
            result = parabolic.parabolic_intersection_search(p1, p2, radius)
            if result.status != "found":
                return result.status, False
            return result.status, parabolic.parabolics_equal(result.parabolic, parabolic.ParabolicSubgroup(he, meet))

        def check(out):
            status, equal = out
            return expect(equal, "intersection parabolic fails membership") if status == "found" else "unknown"

        return Op("pis", run, check, len(h), True, repr((sorted(core1), sorted(core2), h)))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------



def golden_invocations() -> list:
    """The golden invocations fixed by the acceptance suite: (argv, exit code, stdout)."""
    for node in ast.parse(ACCEPTANCE.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_INVOCATIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no GOLDEN_INVOCATIONS in {ACCEPTANCE}")


GOLDEN = golden_invocations()

CLI_DEADLINE_S = 3.0
SELFTEST_DEADLINE_S = 120.0
# At its default radius this search runs without bound (ROADMAP item 4), so
# the benchmark expects the deadline to kill it and records that failure.
PROBE = ["centralizer-check", "-g", "free-zz.json", "--vertex", "x", "x[1] y[1]"]
PROBE_KIND = "cli.centralizer-check.default-radius"
CHILD_MEMORY_BYTES = 2 << 30


class DeadlineKill(RuntimeError):
    """A child process outlived its deadline and was killed."""


def cli_env(extra=None) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def run_child(cmd, deadline: float, env=None):
    """Run one child process to completion; (exit code, stdout).

    Peak memory of reaped children shows in ``RUSAGE_CHILDREN``.
    """
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env or cli_env(),
        cwd=REPO_ROOT,
        preexec_fn=_limit_memory,
    )
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        raise DeadlineKill(f"killed after {deadline:g} s") from None
    finally:
        if proc.returncode is None:  # a deadline or any other exception: no child outlives its op
            proc.kill()
            proc.communicate()
    return proc.returncode, out.decode()


def resolve(argv) -> list:
    return [str(DATA_DIR / a) if a.endswith(".json") and "/" not in a else a for a in argv]


class Cli:
    """Cold ``python -m graphprod.cli`` processes, one at a time."""

    name = "cli"
    min_ops = 100

    def __init__(self):
        self.trace_dir = None  # set by a traced run: children save spans there

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.space = Space(gen.block_graph(3, random.Random(f"{seed}:graph")))
        self.pairs = ConjugacyPairs(self.space)
        OUT_DIR.mkdir(exist_ok=True)
        self.doc_path = OUT_DIR / f"cli-blocks-{os.getpid()}.json"
        self.doc_path.write_text(self.space.graph.document())

    def close(self) -> None:
        self.doc_path.unlink(missing_ok=True)

    def gp(self, argv, deadline=CLI_DEADLINE_S):
        """One cold ``gp`` process; traced through ``child.py`` when ``trace_dir`` is set."""
        cmd = [sys.executable, "-m", "graphprod.cli"]
        if self.trace_dir is not None:
            op = len(list(self.trace_dir.iterdir()))
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "gp", str(self.trace_dir / f"{op:05d}.bin"), str(op)]
        return run_child(cmd + resolve(argv), deadline)

    def cycle(self, c: int) -> List[Op]:
        ops = [self._golden(argv, code, out) for argv, code, out in GOLDEN]
        for i, (k, mode) in enumerate(((2, ""), (3, ""), (3, ""), (3, "p"))):
            ops.append(self._conj(k, mode, op_rng(self.seed, c, i)))
        return ops

    def _golden(self, argv, code, out):
        return Op(
            f"cli.{argv[0]}",
            lambda: self.gp(argv),
            lambda got: expect(got == (code, out), f"{argv}: got {got!r}"),
            sum(len(a.split()) for a in argv if "[" in a),
            False,
            repr(argv),
            child=True,
        )

    def _conj(self, k, mode, rng):
        sp = self.space
        x, y = self.pairs.pair(k, mode, rng)
        render = lambda w: " ".join(f"{sp.graph.names[v]}[{val}]" for v, val in w)
        argv = ["conj", "-g", str(self.doc_path), render(x), render(y)]

        def check(got):
            code, out = got
            lines = out.splitlines()
            if mode:
                return expect(code == 1 and lines[0] == "conjugate: no", f"conj k={k}: non-conjugate pair not refuted")
            expect(code == 0 and lines[0] == "conjugate: yes", f"conj k={k}: conjugate pair refuted")
            w = words.reduce(sp.pres, presentation.parse_word(sp.pres, lines[1].split(": ", 1)[1]))
            return expect(words.conjugate(w, sp.element(x)) == sp.element(y), "printed conjugator is wrong")

        return Op("cli.conj", lambda: self.gp(argv), check, len(x) + len(y), False, repr((x, y)), child=True)

    def probe(self) -> Op:
        """The default-radius centralizer check on free-zz (ROADMAP item 4)."""

        def check(got):
            code, out = got
            expect(code in (0, 2) and "violations: 0" in out, f"probe: exit {code}")
            return "unknown" if code == 2 else "ok"

        return Op(PROBE_KIND, lambda: self.gp(PROBE), check, 2, True, repr(PROBE), child=True)


WORKLOADS = {w.name: w for w in (NormalForm, Conjugacy, BallSearch, Cli)}


def digest(ops: List[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode())
    return h.hexdigest()[:16]
