"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared host the same operation's wall time swings by a quarter within a
minute, and the kernel's time swings with it (correlation about 0.9 when the
two run back to back, measured on a 2-vCPU Xeon virtual machine).  The
benchmark runs the kernel just before and just after every timed operation
and scales the operation's time by ``REFERENCE_S / mean kernel time``: times
are reported at a fixed reference speed.  The kernel does the same kind of
work as graphprod's hot loops -- a greedy least-vertex-first scan with
set-subset tests over tuples -- but never calls graphprod, so a change to the
library cannot move it.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_S = 0.008  # the kernel's nominal wall time: the reference speed

_rng = random.Random(20140930)
_ADJ = [frozenset(_rng.sample(range(10), 4)) for _ in range(10)]
_ITEMS = [(_rng.randrange(10), _rng.randrange(5)) for _ in range(1500)]


def _kernel() -> int:
    remaining = list(_ITEMS)
    out = []
    for _ in range(50):
        best = None
        seen = set()
        for pos, (v, _) in enumerate(remaining):
            if seen <= _ADJ[v] and (best is None or v < remaining[best][0]):
                best = pos
            seen.add(v)
        out.append(remaining.pop(best))
    counts = {}
    for item in _ITEMS:
        counts[item] = counts.get(item, 0) + 1
    return len(out) + len(counts)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
