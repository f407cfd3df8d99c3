"""Spans around graphprod's public functions, installed at run time.

``Tracer.install`` replaces each listed function with a wrapper in every
loaded ``graphprod`` module namespace that refers to it, so calls between
layers (``amalgam`` calling ``words.multiply``) are caught as well as calls
from the benchmark; ``uninstall`` puts the originals back.  No source file
changes.

A span is (name, start, end, parent span, op id) plus one or two counts.
Spans live in flat arrays in memory and are written out once, at the end.
A generator (``iter_ball``) gets one span whose busy time is the sum of its
resumptions; the spans opened while it runs are its children.  A span's self
time is its busy time minus its children's busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _outcome(*labels):
    def measure(args, result):
        return labels.index(result.status), 0

    measure.labels = labels
    return measure


GENERATOR = "generator"

# (module, attribute path, counts): counts maps (args, result) to (a, b).
TRACED = (
    ("presentation", "parse_presentation", None),
    ("presentation", "parse_word", None),
    ("words", "reduce", lambda args, r: (len(args[1]), len(r.key))),
    ("words", "canonical_form", None),
    ("words", "multiply", None),
    ("words", "invert", None),
    ("words", "conjugate", None),
    ("words", "is_reduced_product", None),
    ("words", "iter_ball", GENERATOR),
    ("cyclic", "cyclically_reduce", lambda args, r: (len(args[0].key) - len(r.reduced.key), 0)),
    ("cyclic", "ps_decompose", None),
    ("cyclic", "cyclic_permutation_conjugators", lambda args, r: (len(r), 0)),
    ("conjugacy", "are_conjugate", None),
    ("conjugacy", "conjugate_in_clique_subgroup", None),
    ("conjugacy", "brute_force_conjugate", None),
    ("amalgam", "amalgam_form", None),
    ("amalgam", "amalgam_conjugate_by", _outcome("yes", "no", "unknown")),
    ("amalgam", "centralizer_check", lambda args, r: (r.ball_size, len(r.unresolved))),
    ("parabolic", "parabolic_closure_of_cyclic", None),
    ("parabolic", "centralizer_structure_check", None),
    ("parabolic", "parabolic_intersection_search", _outcome("found", "unknown")),
    ("separability", "residual_witness", None),
    ("separability", "conjugacy_witness", None),
    ("separability", "SeparationWitness.verify", lambda args, r: (int(r is True), 0)),
)

# Names of the (a, b) counts that are sums, per traced function.
COUNT_NAMES = {
    "words.reduce": ("syllables_in", "syllables_out"),
    "words.iter_ball": ("elements", None),
    "cyclic.cyclically_reduce": ("syllables_removed", None),
    "cyclic.cyclic_permutation_conjugators": ("rotations", None),
    "amalgam.centralizer_check": ("ball_elements", "unresolved"),
    "separability.SeparationWitness.verify": ("ok", None),
}

FUNCTION_NAMES = tuple(f"{module}.{attr}" for module, attr, _ in TRACED)


class Spans:
    """Flat span arrays; names are interned to small ids."""

    def __init__(self):
        self.names = list(FUNCTION_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = {}  # span -> second count, when nonzero
        self.busy = {}  # generator span -> summed resumption time
        self.stack = [-1]
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.fid)

    def open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.a.append(0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    # -- persistence -------------------------------------------------------

    _ARRAYS = ("fid", "parent", "op", "start", "end", "a")

    def save(self, path: Path) -> None:
        header = {
            "names": self.names,
            "count": len(self),
            "b": {str(k): v for k, v in self.b.items()},
            "busy": {str(k): v for k, v in self.busy.items()},
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for name in self._ARRAYS:
                getattr(self, name).tofile(handle)

    def merge_file(self, path: Path) -> None:
        """Append the spans another process saved, re-basing span indices."""
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["count"]
            loaded = {}
            for name in self._ARRAYS:
                arr = array(getattr(self, name).typecode)
                arr.fromfile(handle, n)
                loaded[name] = arr
        offset = len(self)
        remap = [self.name_id(name) for name in header["names"]]
        self.fid.extend(remap[f] for f in loaded["fid"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in loaded["parent"])
        for name in ("op", "start", "end", "a"):
            getattr(self, name).extend(loaded[name])
        self.b.update({int(k) + offset: v for k, v in header["b"].items()})
        self.busy.update({int(k) + offset: v for k, v in header["busy"].items()})

    # -- derived metrics -----------------------------------------------------

    def summarize(self, keep) -> dict:
        """Per-name calls, self time, count sums and a histogram of the first
        count, over spans whose op id satisfies ``keep``."""
        n = len(self)
        busy = [self.end[i] - self.start[i] for i in range(n)]
        for i, t in self.busy.items():
            busy[i] = t
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += busy[i]
        out = {name: {"calls": 0, "self_s": 0.0, "a": 0, "b": 0, "by_a": {}} for name in self.names}
        for i in range(n):
            if not keep(self.op[i]):
                continue
            row = out[self.names[self.fid[i]]]
            row["calls"] += 1
            row["self_s"] += busy[i] - child[i]
            row["a"] += self.a[i]
            row["b"] += self.b.get(i, 0)
            row["by_a"][self.a[i]] = row["by_a"].get(self.a[i], 0) + 1
        # ball elements enumerated on behalf of a brute-force search
        bf = self._ids["conjugacy.brute_force_conjugate"]
        ball = self._ids["words.iter_ball"]
        out["conjugacy.brute_force_conjugate"]["ball_elements"] = sum(
            self.a[i]
            for i in range(n)
            if self.fid[i] == ball and keep(self.op[i]) and self.parent[i] >= 0 and self.fid[self.parent[i]] == bf
        )
        return out


def layer_metrics(spans: Spans, keep) -> dict:
    """``<module>.<function>.calls`` / ``.self_s`` and the named counts."""
    rows = spans.summarize(keep)
    metrics = {}
    for name, (_, _, counts) in zip(FUNCTION_NAMES, TRACED):
        row = rows[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        for key, count in zip("ab", COUNT_NAMES.get(name, ())):
            if count:
                metrics[f"{name}.{count}"] = (row[key], "count")
        for code, label in enumerate(getattr(counts, "labels", ())):
            metrics[f"{name}.{label}"] = (row["by_a"].get(code, 0), "count")
    metrics["conjugacy.brute_force_conjugate.ball_elements"] = (
        rows["conjugacy.brute_force_conjugate"]["ball_elements"],
        "count",
    )
    return metrics


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs and removes the wrappers; spans go to ``self.spans``."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self._undo = []

    def install(self) -> None:
        for mod_name, _, _ in TRACED:
            importlib.import_module(f"graphprod.{mod_name}")
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("graphprod") and m is not None]
        for fid, (mod_name, path, counts) in enumerate(TRACED):
            owner, attr = _resolve(sys.modules[f"graphprod.{mod_name}"], path)
            original = getattr(owner, attr)
            if counts is GENERATOR:
                wrapper = self._generator_wrapper(fid, original)
            else:
                wrapper = self._wrapper(fid, original, counts)
            if owner is sys.modules[f"graphprod.{mod_name}"]:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, name, original))
                            setattr(module, name, wrapper)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrapper(self, fid, fn, counts):
        spans = self.spans
        stack = spans.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = spans.open(fid)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = perf_counter()
                stack.pop()
            if counts is not None:
                a, b = counts(args, result)
                spans.a[idx] = a
                if b:
                    spans.b[idx] = b
            return result

        return wrapper

    def _generator_wrapper(self, fid, fn):
        spans = self.spans
        stack = spans.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = spans.open(fid)
            spans.busy[idx] = 0.0
            yielded = 0
            try:
                while True:
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        spans.busy[idx] += t1 - t0
                        spans.end[idx] = t1
                        stack.pop()
                    yielded += 1
                    yield item
            finally:
                spans.a[idx] = yielded
                inner.close()

        return wrapper
