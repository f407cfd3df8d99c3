"""The summary code of scripts/abtest.py, on canned perfbench output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_abtest():
    spec = importlib.util.spec_from_file_location("abtest", ROOT / "scripts" / "abtest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(ops, p50, failed=0, correct=True):
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}},
    }
    return "# perfbench ball-search seed=1 trace=0 python=3.11.7 nproc=2\n# a note\n" + json.dumps(result) + "\n"


END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def test_parse_run_reads_the_last_line():
    run = load_abtest().parse_run(canned(170.0, 0.95, failed=2, correct=False))
    assert run == {"correct": False, "attempted": 100, "failed": 2, "metrics": {"ops_per_s": 170.0, "latency_p50_ms": 0.95}}


def test_summary_medians_quartiles_wins_ratios_and_bounds():
    ab = load_abtest()
    parent = [(170.0, 1.0), (180.0, 0.9), (160.0, 1.1), (175.0, 0.8), (190.0, 1.0)]
    change = [(220.0, 0.7), (170.0, 0.95), (200.0, 0.6), (230.0, 0.65), (225.0, 1.2)]
    pairs = [
        {"parent": ab.parse_run(canned(*p)), "change": ab.parse_run(canned(*c, failed=1))}
        for p, c in zip(parent, change)
    ]
    summary = ab.summarize(pairs, END_TO_END)
    ops = summary["ops_per_s"]
    # parent ops sorted: 160 170 175 180 190
    assert (ops["parent_q1"], ops["parent_median"], ops["parent_q3"]) == (170.0, 175.0, 180.0)
    assert ops["change_median"] == 220.0
    assert (ops["wins"], ops["pairs"]) == (4, 5)
    ratios = sorted(c[0] / p[0] for p, c in zip(parent, change))
    assert ops["ratio_median"] == pytest.approx(ratios[2])
    assert ops["within_bound"] is True
    p50 = summary["latency_p50_ms"]
    # lower is better: the change wins where its latency is below the parent's
    assert p50["wins"] == 3 and p50["change_median"] == 0.7 and p50["parent_median"] == 1.0
    assert p50["within_bound"] is True
    assert summary["parent_failed_frac"] == 0.0 and summary["change_failed_frac"] == 0.01
    assert summary["parent_all_correct"] and summary["change_all_correct"]


@pytest.mark.parametrize(
    "better, parent, change, inside",
    [
        ("higher", [100.0], [75.0], True),  # exactly at the bound
        ("higher", [100.0], [74.9], False),
        ("lower", [1.0], [1.25], True),
        ("lower", [1.0], [1.26], False),
    ],
)
def test_bound_verdict(better, parent, change, inside):
    got = load_abtest().summarize_metric(parent, change, better, 0.25)
    assert got["within_bound"] is inside
    assert got["parent_q1"] == got["parent_median"] == got["parent_q3"] == parent[0]


def test_seed_and_workload_arguments():
    ab = load_abtest()
    assert ab.parse_seeds("4201-4204") == [4201, 4202, 4203, 4204]
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        ab.parse_seeds("9-8")
    assert ab.parse_workloads(["ball-search:10", "cli"], 5) == [("ball-search", 10), ("cli", 5)]
