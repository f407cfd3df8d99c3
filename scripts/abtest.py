#!/usr/bin/env python3
"""A/B benchmark of HEAD against an earlier revision, in alternating pairs.

    python scripts/abtest.py --against REV --seeds 4201-4210
    python scripts/abtest.py --against REV --workloads ball-search:10 normal-form:5 --seeds 4201-4210

Both trees are extracted with `git archive` (HEAD and REV, committed files
only) into a temporary directory, and HEAD's perfbench/ and BENCHMARK.json are
copied into each, so that only the library differs.  Pair i of a workload runs
`perfbench/run.py --workload W --seed A+i --seconds S --trace 0` once on each
tree; the parent runs first in even pairs and the change in odd ones.  Every
child gets PYTHONDONTWRITEBYTECODE=1, so no __pycache__ is left to warm a
later run, and the trees are deleted at the end.

A workload given as NAME:N runs N pairs instead of --pairs.  The result,
BENCH_<short HEAD>.json in the repo root unless --out says otherwise, keeps
every raw output line of every run and, per workload and end-to-end metric of
BENCHMARK.json: the parent's median and quartiles, the change's median, the
pairs the change wins, the median of the per-pair change/parent ratios, and
whether the change's median stays inside the metric's bound.  It also records
the seeds, the Python version and nproc.  Nothing under perfbench/ changes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The last line of a perfbench run: correct, attempted, failed and each metric's value."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values):
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_metric(parent, change, better: str, bound: float) -> dict:
    """Compare paired values of one metric, pair i being (parent[i], change[i])."""
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    higher = better == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    limit = median * (1 - bound) if higher else median * (1 + bound)
    inside = change_median >= limit if higher else change_median <= limit
    return {
        "parent_median": median,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_median,
        "wins": wins,
        "pairs": len(parent),
        "ratio_median": statistics.median(ratios) if ratios else None,
        "bound": bound,
        "within_bound": inside,
    }


def summarize(pairs, end_to_end) -> dict:
    """Per-metric comparison of one workload's pairs, each {"parent": run, "change": run}
    as parse_run reads them; end_to_end is BENCHMARK.json's list."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        out[name] = summarize_metric(values["parent"], values["change"], spec["better"], spec["bound"])
    for side in SIDES:
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        failed = sum(pair[side]["failed"] for pair in pairs)
        out[f"{side}_failed_frac"] = failed / attempted if attempted else 0.0
        out[f"{side}_all_correct"] = all(pair[side]["correct"] for pair in pairs)
    return out


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def parse_workloads(items, pairs: int):
    """[(name, number of pairs)] from NAME or NAME:N items."""
    out = []
    for item in items:
        name, _, n = item.partition(":")
        out.append((name, int(n) if n else pairs))
    return out


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def untar(data: bytes, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12 and later
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def extract(rev: str, dest: Path) -> None:
    """The committed tree of rev, with HEAD's perfbench/ and BENCHMARK.json."""
    untar(git("archive", "--format=tar", rev), dest)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    untar(git("archive", "--format=tar", "HEAD", "perfbench", "BENCHMARK.json"), dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree.name} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--workloads", nargs="+", default=None, help="NAME or NAME:PAIRS; every workload by default")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seeds", required=True, help="A-B: pair i runs seed A+i")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = parse_workloads(args.workloads or [w["name"] for w in bench["workloads"]], args.pairs)
    seeds = parse_seeds(args.seeds)
    if max(n for _, n in workloads) > len(seeds):
        parser.error(f"{len(seeds)} seeds for {max(n for _, n in workloads)} pairs")
    revs = {"parent": git("rev-parse", args.against).decode().strip(), "change": git("rev-parse", "HEAD").decode().strip()}
    out_path = args.out or ROOT / f"BENCH_{revs['change'][:7]}.json"

    report = {
        "revisions": revs,
        "seconds": args.seconds,
        "seeds": seeds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="abtest-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            extract(revs[side], tree)
        for name, n in workloads:
            raw, pairs = [], []
            for i, seed in zip(range(n), seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                lines = {side: run_once(trees[side], name, seed, args.seconds) for side in order}
                raw.append({"seed": seed, "first": order[0], **{side: lines[side].splitlines() for side in SIDES}})
                pairs.append({side: parse_run(lines[side]) for side in SIDES})
                ops = [pairs[-1][side]["metrics"]["ops_per_s"] for side in SIDES]
                print(f"{name} seed {seed}: ops_per_s {ops[0]:.1f} -> {ops[1]:.1f}", flush=True)
            report["workloads"][name] = {"summary": summarize(pairs, bench["end_to_end"]), "runs": raw}
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
