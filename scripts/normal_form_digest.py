#!/usr/bin/env python3
"""Print one SHA-256 digest per normal-form function over seeded random inputs.

Each seed builds a random graph (2-10 vertices over Z, Z/n and S3) and random
words on it, and feeds the keys returned by reduce, multiply, invert,
canonical_form, cyclically_reduce (core and conjugator), are_conjugate
(verdict, tag and conjugator) and iter_ball (radius 3) into one hash per
function.  Two checkouts that print the same digests return the same keys on
every input, so a change that must keep the normal form is checked by running

    PYTHONPATH=src python3 scripts/normal_form_digest.py --seeds 20

in both checkouts and comparing the output.
"""

import argparse
import hashlib
import json
import random
from collections import Counter

from graphprod import corpus, parse_presentation
from graphprod.conjugacy import are_conjugate
from graphprod.cyclic import cyclically_reduce
from graphprod.words import canonical_form, conjugate, invert, iter_ball, multiply, reduce

FUNCTIONS = (
    "reduce",
    "multiply",
    "invert",
    "canonical_form",
    "cyclically_reduce.core",
    "cyclically_reduce.conjugator",
    "are_conjugate",
    "iter_ball",
)


def s3_table():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return {"table": {"elements": ["e", "r", "r2", "s", "sr", "sr2"], "mul": table, "identity": 0}}


def random_presentation(rng: random.Random):
    n = rng.randint(2, 10)
    density = rng.uniform(0.2, 0.8)
    groups = ["Z", "cyclic 2", "cyclic 3", "cyclic 5", s3_table()]
    vertices = [{"name": f"v{i}", "group": rng.choice(groups)} for i in range(n)]
    edges = [[f"v{i}", f"v{j}"] for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))


def digest_seed(seed: int, hashes, counts) -> None:
    rng = random.Random(seed)
    pres = random_presentation(rng)

    def feed(name, value):
        hashes[name].update(repr(value).encode())
        counts[name] += 1

    def element(max_len):
        return reduce(pres, corpus.random_word(pres, rng, max_len, z_window=3))

    elements = [element(200) for _ in range(40)]
    for e in elements:
        feed("reduce", e.key)
        feed("invert", invert(e).key)
        shuffled = corpus.shuffled_variant(pres, e.word(), rng, steps=4 * len(e))
        feed("canonical_form", canonical_form(pres, shuffled))
        r = cyclically_reduce(conjugate(element(30), e))
        feed("cyclically_reduce.core", r.reduced.key)
        feed("cyclically_reduce.conjugator", r.conjugator.key)
    for a, b in zip(elements, elements[1:]):
        feed("multiply", multiply(a, b).key)
    for _ in range(30):
        x = element(24)
        y = conjugate(element(12), x) if rng.random() < 0.5 else element(24)
        verdict = are_conjugate(x, y)
        conjugator = None if verdict.conjugator is None else verdict.conjugator.key
        feed("are_conjugate", (verdict.conjugate, verdict.refutation, conjugator))
    ball_vertices = rng.sample(pres.vertices, min(3, len(pres.vertices)))
    for e in iter_ball(pres, 3, window=1, vertices=ball_vertices):
        feed("iter_ball", e.key)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=20, help="number of seeded graphs (seeds 0..N-1)")
    args = parser.parse_args()
    hashes = {name: hashlib.sha256() for name in FUNCTIONS}
    counts = Counter()
    for seed in range(args.seeds):
        digest_seed(seed, hashes, counts)
    for name in FUNCTIONS:
        print(f"{name:30s} {counts[name]:7d} {hashes[name].hexdigest()}")


if __name__ == "__main__":
    main()
