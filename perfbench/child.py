"""Entry points the benchmark runs as fresh child processes.

    child.py setup <workload> <seed>   cold set-up; prints the input digest
    child.py import                    prints the seconds a cold
                                       ``import graphprod.cli`` takes
    child.py gp <spans> <op> <gp arguments...>
                                       runs ``gp`` in-process with
                                       graphprod's public functions traced;
                                       spans are saved to the <spans> file
                                       at exit

``graphprod`` is found through ``PYTHONPATH``, which the parent sets to the
checkout's ``src``.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _setup(name: str, seed: int) -> int:
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.setup(seed)
    print(workloads.digest(wl.cycle(0)))
    if hasattr(wl, "close"):
        wl.close()
    return 0


def _import() -> int:
    start = perf_counter()
    import graphprod.cli  # noqa: F401

    print(repr(perf_counter() - start))
    return 0


def _gp(span_path: str, op_id: str, argv: list) -> int:
    from graphprod import cli

    import tracer

    spans = tracer.Spans()
    spans.op_id = int(op_id)
    tracer.Tracer(spans).install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        spans.save(span_path)


def main(argv: list) -> int:
    if argv[0] == "setup":
        return _setup(argv[1], int(argv[2]))
    if argv[0] == "import":
        return _import()
    if argv[0] == "gp":
        return _gp(argv[1], argv[2], argv[3:])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
