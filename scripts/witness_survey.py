#!/usr/bin/env python3
"""Survey separation witnesses across the reference presentations.

For seeded samples of non-conjugate element pairs, build conjugacy witnesses
in each admissible class mode and tabulate which certificate fired and how
large the chosen moduli were.  A witness that fails its own verify() stops
the survey with exit status 1, also under python -O.
"""

import argparse
import random
import sys
from collections import Counter

from graphprod import corpus
from graphprod.conjugacy import are_conjugate
from graphprod.separability import ALL_FINITE, conjugacy_witness, p_group_mode


def survey(seed: int, pairs_per_presentation: int) -> None:
    modes = {
        "path-racg": [ALL_FINITE, p_group_mode(2)],
        "star-racg": [ALL_FINITE, p_group_mode(2)],
        "free-zz": [ALL_FINITE, p_group_mode(2), p_group_mode(3)],
        "edge-zz": [ALL_FINITE, p_group_mode(2), p_group_mode(3)],
        "triangle-mixed": [ALL_FINITE],
    }
    for name, pres in corpus.corpus_presentations().items():
        rng = random.Random(seed)
        elements = corpus.corpus_elements(pres, max_len=4)
        for mode in modes[name]:
            tags = Counter()
            max_modulus = 1
            built = 0
            while built < pairs_per_presentation:
                x = elements[rng.randrange(len(elements))]
                y = elements[rng.randrange(len(elements))]
                if are_conjugate(x, y).conjugate:
                    continue
                witness = conjugacy_witness(x, y, mode)
                if not witness.verify():
                    sys.exit(f"{name}: the {mode.render()} witness for {x.render()} and {y.render()} fails verify()")
                tags[witness.certificate_tag] += 1
                for m in witness.family.moduli.values():
                    if m is not None:
                        max_modulus = max(max_modulus, m)
                built += 1
            tag_summary = ", ".join(f"{t}={n}" for t, n in sorted(tags.items()))
            print(f"{name:16s} mode={mode.render():7s} pairs={built:3d} max_modulus={max_modulus:3d}  {tag_summary}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=40)
    args = parser.parse_args()
    survey(args.seed, args.pairs)
