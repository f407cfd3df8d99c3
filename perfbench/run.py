"""graphprod benchmark: seeded known-answer workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the source tree (``src`` is put on the path; nothing is installed).
Each workload is one single-threaded process with one closed-loop caller:
the next operation starts when the previous one returns.  A run does whole
cycles of operations until at least ``--seconds`` have passed and at least
``min_ops`` operations were timed, so every run of a workload does the same
shape of work.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
cycles untraced and then traced (spans around every public function listed
in ``tracer.TRACED``), adds the scaling sweeps and the ``gp`` process
metrics, and prints the per-layer metrics; its work is fixed by
``min_ops`` alone, so counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"

SETUP_REPS = 3
IMPORT_REPS = 5
OP_DEADLINE_S = 60.0
SUBCOMMANDS = (
    "normalize", "eq", "conj", "cyc", "ps", "amalgam",
    "centralizer-check", "pc", "normalizer", "witness", "selftest",
)
SUITES = ("normal_forms", "confluence", "conjugacy", "cyclic", "consonants", "centralizers", "parabolics", "witnesses")
# One line of ``gp selftest`` per suite: "ok <suite>: <detail> [<seconds>s]".
SUITE_LINE = re.compile(r"^ok (\w+): .* \[([0-9.]+)s\]$", re.MULTILINE)


class OpDeadline(RuntimeError):
    """An in-process operation outlived its deadline."""


def _alarm(signum, frame):
    raise OpDeadline(f"no answer within {OP_DEADLINE_S:g} s")


def scaled(fn):
    """Run ``fn``; returns (result, wall seconds at the reference speed, raw wall seconds).

    The calibration kernel runs just before and just after, so the scale
    follows the host's speed at that moment (see ``calibrate``).
    """
    before = calibrate.kernel_seconds()
    start = perf_counter()
    result = fn()
    raw = perf_counter() - start
    after = calibrate.kernel_seconds()
    return result, raw * calibrate.REFERENCE_S * 2 / (before + after), raw


class Stats:
    """Outcomes of the operations of one pass; times are at the reference speed."""

    def __init__(self):
        self.latencies = []  # seconds of completed timed operations
        self.raw = []  # their unscaled wall seconds
        self.untimed = {}  # kind -> seconds of operations outside the timed loop
        self.kinds = []
        self.syllables = 0
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.bounded = 0
        self.failures = []  # (kind, exception type, message)

    @property
    def timed(self) -> int:
        return len(self.latencies)

    def execute(self, op, timed: bool = True) -> None:
        """Run and check one operation."""
        from workloads import WrongAnswer

        self.attempted += 1
        self.bounded += op.bounded
        if not op.child:  # a child process has its own deadline
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            out, elapsed, raw = scaled(op.run)
        except Exception as exc:  # a raise, a deadline kill: a failed op, the run goes on
            self._fail(op, exc)
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            verdict = op.check(out)
        except (WrongAnswer, IndexError, ValueError) as exc:
            self._fail(op, exc)
            return
        self.unknown += verdict == "unknown"
        if not timed:
            self.untimed.setdefault(op.kind, []).append(elapsed)
            return
        self.latencies.append(elapsed)
        self.raw.append(raw)
        self.kinds.append(op.kind)
        self.syllables += op.syllables

    def _fail(self, op, exc) -> None:
        self.failed += 1
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.failures.append((op.kind, type(exc), detail))

    def unexpected_failures(self) -> list:
        """All failures but the one the benchmark expects at this commit: the
        deadline kill of the default-radius centralizer check (ROADMAP item 4,
        an unbounded search).  A wrong answer from that probe still counts."""
        from workloads import PROBE_KIND, DeadlineKill

        return [f for f in self.failures if not (f[0] == PROBE_KIND and issubclass(f[1], DeadlineKill))]


def run_cycles(wl, stats: Stats, first_ops, seconds: float, cycles=None, spans=None, after_cycle=None) -> int:
    """Whole cycles until ``cycles`` are done, or until both ``seconds`` and
    ``wl.min_ops`` are reached; returns the number of cycles.  With
    ``spans``, each operation's spans carry its index in the pass;
    ``after_cycle(c)`` runs between cycles, outside the timed operations."""
    start = perf_counter()
    c = 0
    while True:
        for op in first_ops if c == 0 else wl.cycle(c):
            if spans is not None:
                spans.op_id = stats.attempted
            stats.execute(op)
        if after_cycle is not None:
            after_cycle(c)
        c += 1
        if cycles is not None:
            if c >= cycles:
                return c
        elif stats.timed >= wl.min_ops and perf_counter() - start >= seconds:
            return c


def percentile(sorted_values, p: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(latencies):
    """The highest of p99/p90 with at least ten samples beyond it (p50 if none)."""
    values = sorted(latencies)
    for p in (99, 90, 50):
        value, beyond = percentile(values, p)
        if beyond >= 10 or p == 50:
            return value, p, beyond


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_cmd(*args) -> list:
    return [sys.executable, str(BENCH_DIR / "child.py"), *map(str, args)]


def cold_setup(name: str, seed: int):
    """Time of a fresh process that imports, parses and generates the first
    cycle; returns (seconds at the reference speed, digest)."""
    from workloads import run_child

    (code, out), elapsed, _ = scaled(lambda: run_child(child_cmd("setup", name, seed), OP_DEADLINE_S))
    if code != 0:
        raise RuntimeError(f"set-up child exited {code}")
    return elapsed, out.strip()


def selftest_op(gp_command):
    """A cold ``gp selftest --seed 0``, checked like any other operation."""
    from workloads import SELFTEST_DEADLINE_S, Op, expect, run_child

    return Op(
        "cli.selftest",
        lambda: run_child(gp_command + ["selftest", "--seed", "0"], SELFTEST_DEADLINE_S),
        lambda got: expect(got[0] == 0 and "selftest passed" in got[1], f"selftest failed: {got!r}"),
        0,
        False,
        "selftest",
        child=True,
    )


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(wl, seed: int, seconds: float):
    """End-to-end metrics, tracing off."""
    import workloads

    setups = [cold_setup(wl.name, seed) for _ in range(SETUP_REPS)]
    wl.setup(seed)
    first = wl.cycle(0)
    stats = Stats()
    if any(d != workloads.digest(first) for _, d in setups):
        stats.attempted += 1
        stats.failed += 1
        stats.failures.append(("setup", RuntimeError, "cold set-up generated other inputs"))

    # Three selftests spread over the run -- before it, after its middle
    # cycle and after it: a slow or fast spell on the host lasts about ten
    # seconds and the kernel tracks it only in part for a cold selftest, so
    # back-to-back selftests would all fall into the same spell.
    gp = [sys.executable, "-m", "graphprod.cli"]
    middle = math.ceil(wl.min_ops / len(first)) // 2

    def selftest_in_middle(c):
        if c == middle:
            stats.execute(selftest_op(gp), timed=False)

    stats.execute(selftest_op(gp), timed=False)
    run_cycles(wl, stats, first, seconds, after_cycle=selftest_in_middle)
    stats.execute(selftest_op(gp), timed=False)
    if wl.name == "cli":
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)  # before the probe: the largest answering child
        stats.execute(wl.probe(), timed=False)
        wl.close()
    else:
        rss = peak_rss_mb(resource.RUSAGE_SELF)

    p50 = statistics.median(stats.latencies)
    tail_s, _, _ = tail(stats.latencies)
    metrics = {
        "ops_per_s": (stats.timed / sum(stats.latencies), "1/s"),
        "syllables_per_s": (stats.syllables / sum(stats.latencies), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "selftest_s": (statistics.median(stats.untimed.get("cli.selftest", [0.0])), "s"),
    }
    notes = [
        tail_note(stats),
        f"unscaled: ops_per_s {len(stats.raw) / sum(stats.raw):.6g}  latency_p50_ms {statistics.median(stats.raw) * 1e3:.6g}",
        f"failed_frac {frac(stats.failed, stats.attempted):.6g}  unknown_frac {frac(stats.unknown, stats.bounded):.6g}",
    ]
    return stats, metrics, notes


def frac(a: int, b: int) -> float:
    return a / b if b else 0.0


def tail_note(stats: Stats) -> str:
    _, p, beyond = tail(stats.latencies)
    return f"latency_tail_ms is p{p} of {stats.timed} samples ({beyond} beyond it)"


def traced_run(wl, seed: int, seconds: float):
    """Per-layer metrics: the same cycles untraced, then traced."""
    import sweeps
    import tracer
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    spans = tracer.Spans()
    trace = tracer.Tracer(spans)
    trace.install()
    wl.setup(seed)  # set-up spans carry op id -1
    trace.uninstall()

    ops_per_cycle = len(wl.cycle(0))
    cycles = math.ceil(wl.min_ops / ops_per_cycle)
    untraced = Stats()
    run_cycles(wl, untraced, wl.cycle(0), seconds, cycles)

    traced = Stats()
    if wl.name == "cli":
        untraced.execute(wl.probe(), timed=False)
        wl.trace_dir = workloads.OUT_DIR / f"spans-{os.getpid()}"
        wl.trace_dir.mkdir(parents=True, exist_ok=True)
        run_cycles(wl, traced, wl.cycle(0), seconds, cycles)
        for path in sorted(wl.trace_dir.iterdir()):
            spans.merge_file(path)
            path.unlink()
        wl.trace_dir.rmdir()
        wl.close()
    else:
        trace.install()
        try:
            run_cycles(wl, traced, wl.cycle(0), seconds, cycles, spans)
        finally:
            trace.uninstall()
        spans.op_id = -1

    metrics = tracer.layer_metrics(spans, lambda op: op >= -1)
    metrics["trace.overhead_frac"] = (sum(traced.latencies) / sum(untraced.latencies) - 1.0, "ratio")
    metrics["failed_frac"] = (frac(untraced.failed, untraced.attempted), "ratio")
    metrics["unknown_frac"] = (frac(untraced.unknown, untraced.bounded), "ratio")

    for name, value in sweeps.run(seed).items():
        metrics[name] = (value, "slope" if name.endswith("slope") else "ratio")

    metrics.update(cli_layer(wl, untraced))
    path = workloads.OUT_DIR / f"spans-{wl.name}-seed{seed}.bin"
    spans.save(path)

    stats = untraced
    stats.attempted += traced.attempted
    stats.failed += traced.failed
    stats.failures += traced.failures
    notes = [
        f"{cycles} cycles of {ops_per_cycle} ops per pass; {len(spans)} spans written to {path.relative_to(REPO_ROOT)}",
        tail_note(untraced),
    ]
    return stats, metrics, notes


def cli_layer(wl, untraced: Stats) -> dict:
    """cli.import_s, cli.<subcommand>.wall_ms and selftest.<suite>.s."""
    import workloads

    metrics = {}
    imports = []
    for _ in range(IMPORT_REPS):
        _, out = workloads.run_child(child_cmd("import"), OP_DEADLINE_S)
        imports.append(float(out))
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    walls = {}
    if wl.name == "cli":
        for kind, t in zip(untraced.kinds, untraced.raw):
            walls.setdefault(kind.removeprefix("cli."), []).append(t)
    else:
        for argv, _, _ in workloads.GOLDEN:
            start = perf_counter()
            workloads.run_child([sys.executable, "-m", "graphprod.cli"] + workloads.resolve(argv), OP_DEADLINE_S)
            walls.setdefault(argv[0], []).append(perf_counter() - start)

    # selftest prints each suite's time to 0.1 s: a suite under 0.05 s reads 0
    start = perf_counter()
    code, out = workloads.run_child([sys.executable, "-m", "graphprod.cli", "selftest", "--seed", "0"], workloads.SELFTEST_DEADLINE_S)
    walls["selftest"] = [perf_counter() - start]
    if code != 0 or "selftest passed" not in out:
        raise RuntimeError("selftest failed in the traced run")
    suites = {name: float(seconds) for name, seconds in SUITE_LINE.findall(out)}
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_ms"] = (statistics.median(walls[sub]) * 1e3, "ms")
    for suite in SUITES:
        metrics[f"selftest.{suite}.s"] = (suites[suite], "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphprod" / "__init__.py").is_file():
        print(f"perfbench: no graphprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the run and every child it starts, so the calibration
    # kernel measures the core the operations and gp processes run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    run = traced_run if args.trace else timed_run
    stats, metrics, notes = run(wl, args.seed, args.seconds)

    print(f"# perfbench {wl.name} seed={args.seed} trace={args.trace} python={platform.python_version()} nproc={nproc}")
    for note in notes:
        print(f"# {note}")
    for kind, _, message in stats.failures:
        print(f"# failed {kind}: {message}")
    unexpected = stats.unexpected_failures()
    result = {
        "correct": not unexpected,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
