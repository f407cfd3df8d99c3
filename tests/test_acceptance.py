"""Acceptance suite: one test per criterion, zero-tolerance on every check.

The word corpus per presentation is every word of length <= 5 (integer
exponents in [-2, 2]) plus 500 seeded random words of length <= 10.  Checks
that need an oracle run on deterministic seeded samples of corpus pairs,
sized so each criterion stays inside its time budget; sampling choices are
documented inline.  The rewriting-closure oracle gets the fixed budget of
1e5 states, so sampled pairs are capped at 10 total syllables (8 where every
vertex pair commutes), which is what that budget can exhaust.  Criteria 1-8
build their inputs here and run the checks of `graphprod.selftest`, which
`gp selftest` runs on its own smaller inputs.  The ball sizes are checked
first, against the growth series: criteria 2, 7 and 8 walk balls, and a
fault in the walk should fail there in seconds, not slow those searches down.
"""

import itertools
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from graphprod import corpus
from graphprod.presentation import load_presentation, presentation_from_config
from graphprod.words import element_of, iter_ball, reduce
from graphprod.cyclic import cyclically_reduce
from graphprod.conjugacy import are_conjugate, brute_force_conjugate, conjugacy_class_in_ball
from graphprod.amalgam import (
    centralizer_check,
    consonant_leading_form,
    decompose_at,
    is_amalgam_cyclically_reduced,
)
from graphprod.parabolic import full_parabolic
from graphprod.separability import ALL_FINITE, conjugacy_witness, p_group_mode, residual_witness
from graphprod.selftest import (
    check_centralizer,
    check_centralizer_split,
    check_confluence,
    check_conjugacy,
    check_consonants,
    check_cyclic_reduction,
    check_equality,
    check_normalizer,
    check_parabolic_closure,
    check_ps_split,
    check_reduction,
    check_witness,
)

from oracles import ball_elements, ball_size_by_growth_series
from test_nonabelian import SMALL_SCOPE, build_s3_path, small_graph_product

DATA = Path(__file__).parent / "data"
RANDOM_WORDS = 500


@pytest.fixture(scope="module")
def corpora():
    out = {}
    for name, pres in corpus.corpus_presentations().items():
        words = list(corpus.all_words(pres, 5)) + corpus.random_words(
            pres, RANDOM_WORDS, 10, seed=101
        )
        out[name] = (pres, words)
    return out


@pytest.fixture(scope="module")
def canonical_buckets(corpora):
    out = {}
    for name, (pres, words) in corpora.items():
        buckets = defaultdict(list)
        for w in words:
            buckets[reduce(pres, w)].append(w)
        out[name] = buckets
    return out


def _complete_graph(pres):
    n = len(pres.vertices)
    return len(pres.graph.edges) == n * (n - 1) // 2


def test_ball_sizes_match_the_growth_series():
    """`iter_ball` walks as many elements of each length as the growth series
    counts, at radius 0-4 and windows 1 and 2, on every vertex subset of the
    corpus, the data files, the S3 path and every graph product on at most two
    vertices."""
    presentations = {
        **corpus.corpus_presentations(),
        **{p.stem: load_presentation(p) for p in DATA.glob("*.json")},
        "s3-path": build_s3_path(),
        **{"-".join(names) + ("-edge" if edge else ""): small_graph_product(names, edge) for names, edge in SMALL_SCOPE},
    }
    for name, pres in sorted(presentations.items()):
        for size in range(1, len(pres.vertices) + 1):
            for vertices in itertools.combinations(pres.vertices, size):
                for window, radius in itertools.product((1, 2), range(5)):
                    levels = [0] * (radius + 1)
                    for key in iter_ball(pres, radius, window, vertices):
                        levels[len(key)] += 1
                    expected = ball_size_by_growth_series(pres, radius, window, vertices)
                    assert levels == expected, (name, vertices, window, radius)


def test_criterion_1_normal_form_uniqueness(corpora, canonical_buckets):
    """Canonical-form equality agrees with the rewriting-closure oracle."""
    for name, (pres, words) in corpora.items():
        buckets = canonical_buckets[name]
        rng = random.Random(7)
        strategy = random.Random(11)  # the confluence check's own choices
        cap = 8 if _complete_graph(pres) else 10
        # triviality agreement on a seeded word sample
        short = [w for w in words if len(w) <= 6]
        for w in (short[i] for i in sorted(rng.sample(range(len(short)), min(200, len(short))))):
            check_reduction(pres, w)
            check_confluence(pres, w, strategy)
        # equal pairs: same canonical form, oracle must confirm
        multi = [b for b in buckets.values() if len(b) >= 2]
        checked = 0
        while multi and checked < 200:
            bucket = rng.choice(multi)
            w1, w2 = rng.sample(bucket, 2)
            checked += 1
            if len(w1) + len(w2) <= cap:
                check_equality(pres, w1, w2)
        # unequal pairs: different canonical forms, oracle must refute
        reps = list(buckets.values())
        checked = 0
        while checked < 200:
            b1, b2 = rng.choice(reps), rng.choice(reps)
            if b1 is b2:
                continue
            w1, w2 = rng.choice(b1), rng.choice(b2)
            checked += 1
            if len(w1) + len(w2) <= cap:
                check_equality(pres, w1, w2)
    print("PASS criterion 1: normal-form uniqueness vs rewriting oracle")


def _element_samples(pres, buckets, rng, count):
    elements = sorted(buckets, key=lambda e: e.sort_key())
    by_class = defaultdict(list)
    for e in elements:
        core = cyclically_reduce(e).reduced
        by_class[(frozenset(core.support()), len(core))].append(e)
    sample = []
    classes = sorted(by_class.values(), key=lambda group: group[0].sort_key())
    while len(sample) < count and classes:
        group = classes[rng.randrange(len(classes))]
        sample.append(group[rng.randrange(len(group))])
    return sorted(set(sample), key=lambda e: e.sort_key())


def test_criterion_2_conjugacy_vs_oracle(corpora, canonical_buckets):
    """Criterion verdicts match the conjugator-ball oracle on sampled pairs.

    Radius 6 everywhere except the edgeless integer presentation, whose
    radius-6 ball (exponent window = radius) has ~6.5M conjugators; that
    presentation runs at radius 4 and criterion-positive pairs whose verified
    conjugator falls outside that ball are counted via the witness itself.
    """
    verified = 0
    for name, (pres, words) in corpora.items():
        radius = 4 if name == "free-zz" else 6
        rng = random.Random(13)
        xs = _element_samples(pres, canonical_buckets[name], rng, 10)
        ys = _element_samples(pres, canonical_buckets[name], rng, 24)
        spot_checks = 3
        for x in xs:
            reachable = conjugacy_class_in_ball(x, radius)
            for y in ys:
                verdict = check_conjugacy(x, y, reachable, radius)
                verified += verdict.conjugate
                if spot_checks and not verdict.conjugate:
                    spot_checks -= 1
                    assert brute_force_conjugate(x, y, 2).status == "exhausted"
    assert verified > 0
    print("PASS criterion 2: conjugacy criterion vs ball oracle")


def test_criterion_3_cyclic_reduction_contract(corpora, canonical_buckets):
    for name in corpora:
        for g in canonical_buckets[name]:
            check_cyclic_reduction(g)
    print("PASS criterion 3: cyclic reduction contract on all corpus elements")


def test_criterion_4_criterion_equivalences(corpora, canonical_buckets):
    for name in corpora:
        for g in canonical_buckets[name]:
            check_ps_split(g)
    print("PASS criterion 4: S/P and cyclic-reducedness equivalences")


def test_criterion_5_consonant_invariance(corpora):
    for name, (pres, _) in corpora.items():
        rng = random.Random(19)
        for apex in pres.vertices:
            view = decompose_at(pres, apex)
            for _ in range(1000):
                w = corpus.random_word(pres, rng, 7)
                check_consonants(view, w, corpus.shuffled_variant(pres, w, rng))
    print("PASS criterion 5: amalgam consonant invariance (1000 pairs/apex)")


def test_criterion_6_centralizer_formulas():
    for config in (corpus.PATH_RACG, corpus.PATH_C3_END, corpus.PATH_C3_MID):
        pres = presentation_from_config(config)
        for apex in pres.vertices:
            view = decompose_at(pres, apex)
            rng = random.Random(31)
            candidates = []
            for _ in range(200):
                g = cyclically_reduce(reduce(pres, corpus.random_word(pres, rng, 5))).reduced
                try:
                    form = consonant_leading_form(view, g)
                except Exception:
                    continue
                if is_amalgam_cyclically_reduced(view, form):
                    candidates.append(g)
            for g in sorted(set(candidates), key=lambda e: e.sort_key())[:4]:
                check_centralizer(view, g, 4)
                check_centralizer_split(g, 4)
    # the pinned value: the centralizer of c*b at apex c in the path
    pres = presentation_from_config(corpus.PATH_RACG)
    view = decompose_at(pres, "c")
    report = centralizer_check(view, element_of(pres, "c[1] b[1]"), 4)
    expected = {"1", "b[1]", "c[1]", "b[1] c[1]"}
    assert {e.render() for e in report.centralizer} == expected and report.ok
    print("PASS criterion 6: centralizer factorization and coset-intersection formulas")


def test_criterion_7_parabolic_suite(corpora, canonical_buckets):
    for name, (pres, _) in corpora.items():
        rng = random.Random(37)
        elements = _element_samples(pres, canonical_buckets[name], rng, 12)
        small_conjugators = list(ball_elements(pres, 3, window=3))
        for g in elements:
            if not g.is_identity:
                check_parabolic_closure(g, small_conjugators)
        for core in (pres.vertices[:1], pres.vertices[:2]):
            p = full_parabolic(pres, core)
            for u in ball_elements(pres, 4, window=4):
                check_normalizer(p, u)
    print("PASS criterion 7: parabolic closures, normalizers, avoidance certificates")


def test_criterion_8_witnesses(corpora, canonical_buckets):
    p_modes = {
        "path-racg": [p_group_mode(2)],
        "star-racg": [p_group_mode(2)],
        "free-zz": [p_group_mode(2), p_group_mode(3)],
        "edge-zz": [p_group_mode(2), p_group_mode(3)],
        "triangle-mixed": [],
    }
    for name, (pres, _) in corpora.items():
        rng = random.Random(41)
        elements = _element_samples(pres, canonical_buckets[name], rng, 12)
        for mode in [ALL_FINITE] + p_modes[name]:
            built = 0
            for x in elements:
                if not x.is_identity:
                    check_witness(residual_witness(x, mode))
            for x, y in itertools.combinations(elements, 2):
                if built >= 20:
                    break
                if are_conjugate(x, y).conjugate:
                    continue
                check_witness(conjugacy_witness(x, y, mode))
                built += 1
            assert built > 0
    # pinned values
    free_zz = presentation_from_config(corpus.FREE_ZZ)
    pair = conjugacy_witness(element_of(free_zz, "x[1]"), element_of(free_zz, "x[2]"), ALL_FINITE)
    assert pair.family.moduli == {"x": 3} and pair.verify()
    res = residual_witness(element_of(free_zz, "x[6]"), p_group_mode(2))
    assert res.family.moduli["x"] == 4 and res.verify()
    print("PASS criterion 8: witness soundness, completeness, shape preservation")


GOLDEN_INVOCATIONS = [
    (["normalize", "-g", "path-racg.json", "a[1] b[1] a[1]"], 0, "normal: b[1]\nlength: 1\nsupport: b\nFL: b\nLL: b\n"),
    (
        ["normalize", "-g", "path-racg.json", "c[1] a[1] b[1]", "--json"],
        0,
        '{"FL": ["b", "c"], "LL": ["a", "b"], "length": 3, "normal": "b[1] c[1] a[1]", "support": ["a", "b", "c"]}\n',
    ),
    (["eq", "-g", "path-racg.json", "a[1] b[1]", "b[1] a[1]"], 0, "equal: yes\n"),
    (["eq", "-g", "path-racg.json", "a[1] c[1]", "c[1] a[1]"], 1, "equal: no\n"),
    (
        ["conj", "-g", "path-racg.json", "a[1] c[1]", "c[1] a[1]"],
        0,
        "conjugate: yes\nconjugator: a[1]\n",
    ),
    (
        ["conj", "-g", "path-racg.json", "a[1] c[1]", "b[1]"],
        1,
        "conjugate: no\nrefutation: support-mismatch\n",
    ),
    (
        ["conj", "-g", "free-zz.json", "x[1] y[1]", "y[1] x[1]", "--json"],
        0,
        '{"conjugate": true, "conjugator": "x[-1]"}\n',
    ),
    (
        ["cyc", "-g", "path-racg.json", "a[1] c[1] a[1]"],
        0,
        "reduced: c[1]\nconjugator: a[1]\n",
    ),
    (
        ["ps", "-g", "star-racg.json", "c[1] l1[1]"],
        0,
        "s-part: c[1] l1[1]\np-part: 1\nS: c l1\nP: -\n",
    ),
    (
        ["amalgam", "-g", "path-racg.json", "--vertex", "c", "a[1] c[1] a[1] c[1]"],
        0,
        "x0: a[1]\nc1: c[1]\nx1: a[1]\nc2: c[1]\nx2: 1\nconsonant-length: 2\n",
    ),
    (
        ["centralizer-check", "-g", "path-racg.json", "--vertex", "c", "--radius", "4", "c[1] b[1]"],
        0,
        "kind: product\nball: 16\ncentralizer-size: 4\nunresolved: 0\nviolations: 0\n",
    ),
    (
        ["pc", "-g", "path-racg.json", "a[1] c[1] a[1]"],
        0,
        "conjugator: a[1]\ncore: c\n",
    ),
    (["normalizer", "-g", "path-racg.json", "--core", "b", "c[1]"], 0, "member: yes\n"),
    (
        ["witness", "-g", "free-zz.json", "--mode", "p:2", "x[1]", "x[2]"],
        0,
        '{"certificate_tag": "s-part-not-conjugate", "images": ["x[1]", "x[2]"], "mode": "p:2", "per_vertex_moduli": {"x": 4}}\n',
    ),
    (
        ["witness", "-g", "free-zz.json", "--mode", "p:2", "x[6]"],
        0,
        '{"certificate_tag": "nontrivial-image", "images": ["x[2]"], "mode": "p:2", "per_vertex_moduli": {"x": 4, "y": 1}}\n',
    ),
]


def _run_cli(args):
    resolved = [str(DATA / a) if a.endswith(".json") else a for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "graphprod.cli", *resolved], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_criterion_9_cli_golden():
    assert len(GOLDEN_INVOCATIONS) == 15
    for args, expected_code, expected_out in GOLDEN_INVOCATIONS:
        code1, out1 = _run_cli(args)
        code2, out2 = _run_cli(args)
        assert (code1, out1) == (code2, out2), f"unstable output for {args}"
        assert code1 == expected_code, f"{args}: exit {code1}, expected {expected_code}"
        assert out1 == expected_out, f"{args}: output {out1!r}"
    proc = subprocess.run(
        [sys.executable, "-m", "graphprod.cli", "selftest", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    print("PASS criterion 9: CLI golden outputs and selftest")
