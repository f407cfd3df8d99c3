"""Scaling sweeps: how a layer's time grows with word length, with the
number of commuting factors, and with the search radius.

Each point is the median of a few untraced calls; a sweep reports the
least-squares growth of log time: a slope against log length (2 means
quadratic), or a per-step ratio against k or the radius (exp of the slope).
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

from graphprod import amalgam, conjugacy, cyclic, words

import gen
from workloads import ConjugacyPairs, Space

LENGTHS = (250, 500, 1000, 2000, 4000)
FACTORS = (1, 2, 3, 4, 5)
FACTOR_LENGTH = 6
RADII = (2, 3, 4, 5)


def timed(fn, budget_s: float = 0.3, max_reps: int = 5) -> float:
    """Median seconds of ``fn()``, repeated while the budget lasts."""
    times = []
    while len(times) < max_reps and sum(times) < budget_s:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def log_log_slope(xs, ts) -> float:
    return slope([math.log(x) for x in xs], [math.log(t) for t in ts])


def step_ratio(xs, ts) -> float:
    return math.exp(slope(xs, [math.log(t) for t in ts]))


def run(seed: int) -> dict:
    rng = random.Random(f"{seed}:sweep")
    out = {}

    sp = Space(gen.normal_form_graph(rng))
    g = sp.graph
    t_reduce, t_canon, t_cyc = [], [], []
    for n in LENGTHS:
        word = sp.word(g.random_word(n, rng))
        t_reduce.append(timed(lambda: words.reduce(sp.pres, word)))
        shuffled = sp.word(g.shuffled_reduced(n, rng)[0])
        t_canon.append(timed(lambda: words.canonical_form(sp.pres, shuffled)))
        u, core = g.conjugated_core(n, rng)
        e = sp.element(u + core + g.invert(u))
        t_cyc.append(timed(lambda: cyclic.cyclically_reduce(e)))
    out["sweep.words.reduce.length_slope"] = log_log_slope(LENGTHS, t_reduce)
    out["sweep.words.canonical_form.length_slope"] = log_log_slope(LENGTHS, t_canon)
    out["sweep.cyclic.cyclically_reduce.length_slope"] = log_log_slope(LENGTHS, t_cyc)

    blocks = Space(gen.block_graph(max(FACTORS), rng))
    pairs = ConjugacyPairs(blocks)
    t_conj = []
    for k in FACTORS:
        x, y = pairs.pair(k, "", rng, lengths=[FACTOR_LENGTH] * k)
        a, b = blocks.element(x), blocks.element(y)
        t_conj.append(timed(lambda: conjugacy.are_conjugate(a, b), max_reps=3))
    out["sweep.conjugacy.are_conjugate.k_ratio"] = step_ratio(FACTORS, t_conj)

    pent = Space(gen.pentagon_graph(0, rng))
    view = amalgam.decompose_at(pent.pres, "p0")
    g0 = pent.element([(0, 1), (2, 1)])
    t_ball, t_cc = [], []
    for r in RADII:
        t_ball.append(timed(lambda: sum(1 for _ in words.iter_ball(pent.pres, r, window=r))))
        t_cc.append(timed(lambda: amalgam.centralizer_check(view, g0, r)))
    out["sweep.words.iter_ball.radius_ratio"] = step_ratio(RADII, t_ball)
    out["sweep.amalgam.centralizer_check.radius_ratio"] = step_ratio(RADII, t_cc)
    return out
