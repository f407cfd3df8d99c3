#!/usr/bin/env python3
"""Mutation check: each named source edit must make Tier-1 fail.

Every entry of MUTANTS is one deliberate fault: a file, its exact old text and
the new text.  Each edit is applied in a fresh temporary copy of src/,
tests/, scripts/ and perfbench/, Tier-1 runs there with -x, and the script
prints one line per edit:

    killed    Tier-1 failed (or ran out of time or memory)
    survived  Tier-1 passed: no test sees the fault
    stale     the old text does not occur exactly once; the edit needs updating

An unmutated copy runs first; if it fails, nothing is judged.  Exit status is
0 when every edit is killed, 1 otherwise, 2 when the unmutated copy fails or
an edit name is unknown.
Each line also gives the run's wall time.

    python scripts/mutants.py              # every edit: about 23 minutes on 2 vCPUs
    python scripts/mutants.py NAME...      # only the named edits

Not part of Tier-1.  The unmutated run is capped at RUN_SECONDS of wall time.
A mutated run is capped at MUTANT_TIME_FACTOR times the unmutated run's wall
time, and at no less than MIN_MUTANT_SECONDS, so a mutant that only slows
Tier-1 down, or loops forever, is killed in minutes.  Every run is capped at
MEMORY_BYTES of address space, so no mutant exhausts the machine.
"""

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench")
# tests/test_mutants.py checks that each old text occurs once in the unmutated
# tree; in a mutated copy it is gone by design, so that file is not run there.
TIER1 = [
    "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--ignore", "tests/test_mutants.py",
]
RUN_SECONDS = 600
MUTANT_TIME_FACTOR = 3
MIN_MUTANT_SECONDS = 60
MEMORY_BYTES = 2 << 30

W = "src/graphprod/words.py"
C = "src/graphprod/cyclic.py"
K = "src/graphprod/conjugacy.py"
A = "src/graphprod/amalgam.py"
PB = "src/graphprod/parabolic.py"
PR = "src/graphprod/presentation.py"
S = "src/graphprod/separability.py"
CLI = "src/graphprod/cli.py"

# (name, file, old text, new text)
MUTANTS = [
    # reduction keeps least-vertex-first order
    ("push-always-appends", W, "                out.insert(at, pair)\n                break\n",
     "                out.append(pair)\n                break\n"),
    ("push-always-appends-at-start", W, "        else:\n            out.insert(at, pair)\n",
     "        else:\n            out.append(pair)\n"),
    ("push-before-rightmost-greater", W, "            if ui > vi:\n                at = i\n",
     "            if ui > vi and at == len(out):\n                at = i\n"),
    ("push-insertion-point-carried", W, "        at = i if ui > vi else i + 1\n",
     "        at = min(locals().get(\"at\", i + 1), i if ui > vi else i + 1)\n"),
    ("push-last-join-keeps-identity", W, "                out.pop()\n", "                out[i] = (vi, merged)\n"),
    ("push-last-greater-not-carried", W, "        at = i if ui > vi else i + 1\n", "        at = i + 1\n"),
    ("canonical-form-no-length-check", W,
     '    if len(e.key) != len(key):\n        raise WordError("word is not reduced")\n', ""),
    # each distinct syllable is translated once per call, and only equal syllables share a translation
    ("key-memo-any-type", W, "        exact = type(s.value) in _EXACT\n", "        exact = True\n"),
    ("word-memo-by-value", W, "s = memo.get(p)\n            if s is None:\n                s = memo[p] = decode(*p)\n",
     "s = memo.get(p[1])\n            if s is None:\n                s = memo[p[1]] = decode(*p)\n"),
    ("invert-memo-by-vertex", W, "        q = memo.get(p)\n        if q is None:\n            q = memo[p] = ",
     "        q = memo.get(p[0])\n        if q is None:\n            q = memo[p[0]] = "),
    # the rewriting-closure oracle on string states
    ("closure-no-swaps", W, '                    m = pair[::-1] if wi in iadj[ui] else ""\n',
     '                    m = ""\n'),
    ("closure-merge-keeps-left", W, "                    m = code((ui, groups[ui].mul(uval, wval)))\n",
     "                    m = code((ui, uval))\n"),
    ("closure-trivial-kept", W, "                trivial.add(codes[s])\n", "                pass\n"),
    # its skips of commuting duplicates: each of these skips a state not yet seen
    ("closure-pairs-from-move", W, "(at,) if kind == 1 else (), max(at - 1, 0)\n", "(at,) if kind == 1 else (), at\n"),
    ("closure-merge-skips-removal", W, "(at,) if kind == 1 else (), max(at - 1, 0)\n", "(), max(at - 1, 0)\n"),
    ("closure-merge-skips-swap-back", W, "        back = at if kind == 2 else -1\n", "        back = at if kind else -1\n"),
    ("closure-removals-after-removal", W, "removals, first = range(at, len(state)), 0\n",
     "removals, first = range(at + 1, len(state)), 0\n"),
    # readable syllables have one scan, which skips removed positions and stops once no vertex is left
    ("front-letters-ignores-removed", W, "        if pos in removed:\n            continue\n", ""),
    ("front-letters-ignores-start", W, "    for pos in range(start, len(key)):\n", "    for pos in range(len(key)):\n"),
    ("front-letters-stops-before-recording", W,
     "        if common is None or vi in common:\n            front[vi] = pos\n"
     "        if common is None or not common <= iadj[vi]:\n"
     "            common = iadj[vi] if common is None else common & iadj[vi]\n"
     "            if not common:\n                break\n",
     "        readable = common is None or vi in common\n"
     "        if common is None or not common <= iadj[vi]:\n"
     "            common = iadj[vi] if common is None else common & iadj[vi]\n"
     "            if not common:\n                break\n"
     "        if readable:\n            front[vi] = pos\n"),
    # reducedness and ball membership each have one source
    ("no-joinable-pairs", W, "                yield i, j\n",
     "                if False:\n                    yield i, j\n"),
    ("ball-predicate-bounds-values", W, "all(val in groups[vi].nontrivial_keys(radius) for vi, val in e.key)",
     "all(abs(val) <= radius for _, val in e.key)"),
    # the ball is a reverse search over canonical prefixes
    ("ball-no-join-rejection", W, "appends = ui != vi  # a vertex is not in its own link",
     "appends = True"),
    ("ball-no-greater-rejection", W,
     "                    if ui > vi:  # _push would insert before ui\n"
     "                        appends = False\n                        break\n", ""),
    ("walk-product-not-pushed", W, "                                _push(pres, out, last)\n", ""),
    ("walk-fast-path-ignores-join", W, "fast = tail != vi and tail not in link", "fast = tail not in link"),
    ("walk-fast-path-ignores-link", W, "fast = tail != vi and tail not in link", "fast = tail != vi"),
    # a ball key that ends on a blocker of x times x is their concatenation
    ("blockers-ignore-link", W, "all(t != f and t not in iadj[f] for f in front)", "all(t != f for f in front)"),
    ("blockers-ignore-join", W, "all(t != f and t not in iadj[f] for f in front)", "all(t not in iadj[f] for f in front)"),
    ("ball-stops-a-level-early", W, "grown = [] if depth < radius else None",
     "grown = [] if depth < radius - 1 else None"),
    # keep prunes the walk below an element, never the element itself
    ("ball-keep-drops-yield", W, "                            yield child, carried\n",
     "                            if keep is None or keep(child, carried):\n"
     "                                yield child, carried\n"),
    # the conjugator search extends w only inside its length window
    ("bf-window-strict-edge", K, "return len(w) - n <= len(yw) <= reach - len(w)",
     "return len(w) - n <= len(yw) < reach - len(w)"),
    ("bf-window-radius-not-doubled", K, "len(x_key) + 2 * radius", "len(x_key) + radius"),
    ("residues-descending", PR, "        return range(1, self.order)\n",
     "        return range(self.order - 1, 0, -1)\n"),
    # every centralizer check is one comparison loop
    ("compare-records-no-violation", W, "            violations.append(Element(pres, u))\n", "            pass\n"),
    # the length count refutes u·g = g·u only where every push of g^-1 must cancel or join
    ("count-refutes-below-window", W, "refuted = n and d >= n - 1", "refuted = n and d >= n - 2"),
    ("count-refutes-join", W, "refuted = d == n and val != last_val", "refuted = val != last_val"),
    ("count-disabled", W, "refuted = n and d >= n - 1", "refuted = False"),
    ("rotations-ignore-unresolved", A, "        if not centralizes or unresolved:\n", "        if not centralizes:\n"),
    # cyclic reduction: first and last positions, one join per step
    ("conjugator-prepended", C, "        conj.append((v, a))\n", "        conj.insert(0, (v, a))\n"),
    ("max-movable", C, "next((u for u in first if is_movable(u)), None)",
     "next((u for u in reversed(first) if is_movable(u)), None)"),
    ("first-not-ascending", C, "first = {vi: at[vi][0] for vi in sorted(at)}",
     "first = {vi: p[0] for vi, p in at.items()}"),
    ("no-push-after-pop", C, "merged = group.mul(vals[last[v]], a)", "merged = vals[last[v]]"),
    ("movable-includes-s", C, "        if f == l:\n", "        if f > l:\n"),
    ("cyclic-reduce-returns-input", C, "    pres = e.pres\n    key = e.key\n",
     "    return CyclicReduction(e, identity(e.pres))\n    pres = e.pres\n    key = e.key\n"),
    ("cancelled-vertex-blocks", C, "            del first[v], last[v]\n", "            pass\n"),
    # rotations: a canonical prefix takes the pushes of the rest of its cut
    ("later-front-cut-not-relinearized", C, "(key[:pos], key[pos + 1 :]) if pos",
     "(key[:pos] + key[pos + 1 :], ()) if pos"),
    ("rotation-prefix-overlaps", C, "(key[:pos], key[pos + 1 :]) if pos", "(key[:pos + 1], key[pos + 1 :]) if pos"),
    # a factor is matched by a filter on its syllables, then a walk that stops at the target
    ("closure-no-early-stop", K, "_rotations(pres, factor.key)", "list(_rotations(pres, factor.key))"),
    ("rotation-filter-ignores-values", K, "if sorted(factor.key) != sorted(target):",
     "if sorted(vi for vi, _ in factor.key) != sorted(vi for vi, _ in target):"),
    # conjugacy and its witnesses
    ("no-s-part-test", K, "    if not ok:\n        return ConjugacyVerdict(False, None, \"s-part-not-conjugate\")\n",
     ""),
    ("clique-conjugator-reversed", K, "Element(pres, tuple(conj_key))", "Element(pres, tuple(conj_key[::-1]))"),
    ("witness-rotations-in-dict-order", S, "rotations = sorted(cyclic_permutation_conjugators(factor_g))",
     "rotations = list(cyclic_permutation_conjugators(factor_g))"),
    ("witness-no-one-syllable-branch", S,
     'elif len(factor_g) == 1 and tag == "s-part-not-conjugate":', "elif False:"),
    ("smallest-modulus-is-1", S, "    n, p = group.order, mode.p\n",
     "    return 1\n    n, p = group.order, mode.p\n"),
    ("modulus-cofactors-first", S, "                    yield d\n", "                    yield n // d\n"),
    ("table-vertex-gets-a-modulus", S, '    if group.kind == "table":\n        return None\n', ""),
    # witness values from the boundary of each pair, without forming a·b^-1
    ("distinctness-inverts-i", S, "_boundary(pres, a, b, backs[i], backs[j])",
     "_boundary(pres, a, a, backs[i], backs[i])"),
    ("distinctness-join-reversed", S, "groups[vi].mul(x, groups[vi].inv(y))", "groups[vi].mul(y, groups[vi].inv(x))"),
    ("distinctness-drops-kept-inverses", S, "            constraints[names[vi]].add(groups[vi].inv(val))\n",
     "            pass\n"),
    ("primes-by-nine-bases", S, "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)"),
    ("no-prime-bound", S, "    if p >= _MR_BOUND:\n", "    if False:\n"),
    ("cofactor-prime-only-below-bound", S, "(rest == 1 or _is_prime(rest))",
     "(rest == 1 or rest < _MR_BOUND and _is_prime(rest))"),
    # amalgam forms and conjugacy by a subgroup
    ("fold-before-skip", A,
     "        if c == one:\n            continue\n"
     "        if cs and _supported_in(xs[-1], view.h_ids):\n            _push(pres, xs[-2], xs.pop())\n"
     "            c = group.mul(cs.pop(), c)\n            if c == one:\n                continue\n",
     "        if cs and _supported_in(xs[-1], view.h_ids):\n            _push(pres, xs[-2], xs.pop())\n"
     "            c = group.mul(cs.pop(), c)\n            if c == one:\n                continue\n"
     "        if c == one:\n            continue\n"),
    ("apex-run-keeps-identity", A,
     "        if c == one:\n            continue\n        if cs and", "        if cs and"),
    ("fold-without-h-side-test", A, "        if cs and _supported_in(xs[-1], view.h_ids):\n", "        if cs:\n"),
    ("prefix-drops-piece", A, "        _push(pres, acc, ((apex, c),) + piece.key)\n", "        _push(pres, acc, ((apex, c),))\n"),
    ("conjugate-by-no-b-support-test", A,
     "if _supported_in(b.key, b_ids) and multiply(b, g) == multiply(f, b):",
     "if multiply(b, g) == multiply(f, b):"),
    ("conjugate-by-no-conjugation-test", A,
     "if _supported_in(b.key, b_ids) and multiply(b, g) == multiply(f, b):",
     "if _supported_in(b.key, b_ids):"),
    ("finite-h-no-radius-bound", A, "        radius >= len(view.h_ids)\n        and all(", "        all("),
    ("finite-h-no-adjacency-test", A, "\n        and all(view.h_ids <= pres.istar[vi] for vi in view.h_ids)\n", "\n"),
    # each centralizer prediction first tests the support of the ball element
    ("product-prediction-no-star-test", A, "            return centralizes and _supported_in(u, star_ids)\n",
     "            return centralizes\n"),
    ("structure-check-no-support-test", PB, "        return centralizes and _supported_in(u, allowed_ids)\n",
     "        return centralizes\n"),
    # amalgam answers read off the consonant counts
    ("centralizer-power-one-sign", A, "            for l in (q, -q):\n", "            for l in (q,):\n"),
    ("classify-next-prefix", A, "        p = prefixes[j]\n", "        p = prefixes[(j + 1) % len(prefixes)]\n"),
    ("sigma-kernel-no-rs-test", A, "if core_ids <= self.q_ids or core_ids <= self.r_ids | self.s_ids:",
     "if core_ids <= self.q_ids:"),
    ("sigma-s-unshifted", A, "((vi - shift, val) for vi, val in e.key if vi >= shift)",
     "((vi, val) for vi, val in e.key if vi >= shift)"),
    # parabolic subgroups
    ("normalizer-core-only", PB, "    normal = p.core | link_of(p.pres.graph, p.core)\n", "    normal = p.core\n"),
    ("avoiding-counts-whole-core", PB, "sum(wi == vi for wi, _ in core.key)", "len(core.key)"),
    ("intersection-no-back-peel", PB, "    _, d = _peel_front(pres, rest[::-1], b_ids)\n", "    d = rest\n"),
    ("intersection-no-conjugator-peel", PB, "    _, kept = _peel_front(pres, k.key[::-1], normal_ids)\n",
     "    kept = list(k.key[::-1])\n"),
    ("intersection-no-adjacency", PB, "for vi in a_ids & b_ids if d_ids <= pres.iadj[vi])",
     "for vi in a_ids & b_ids)"),
    ("peel-without-blockers", PB, "        if vi in ids and blockers <= iadj[vi]:\n", "        if vi in ids:\n"),
    ("trivial-mod-vertex-generates", PB, "keys = [1] if group.order != 1 else []", "keys = [1]"),
    # the cyclic encoder rejects bools, which JSON true and false load as
    ("encode-fast-path-takes-bool", PR, "        if type(value) is not int:\n            if not _is_int(value):\n",
     "        if not isinstance(value, int):\n            if not _is_int(value):\n"),
    # Z/n keys are residues, and a syllable is trivial when it is its vertex's identity key
    ("cyclic-mul-unreduced", PR, "return a + b if n is None else (a + b) % n", "return a + b if n is None else a + b"),
    ("reduced-key-trivial-is-zero", W, "if any(val == identities[vi] for vi, val in key):",
     "if any(val == 0 for vi, val in key):"),
    ("mod-null-is-z", PR, 'CyclicGroup(config["mod"] or 0)', 'CyclicGroup(config["mod"])'),
    # adjacency is stored once, as iadj, in both directions
    ("adjacency-one-sided", PR, "            adj[index[v]].add(index[u])\n", ""),
    # table groups
    ("no-light-test", PR, "            if rows[row_x[a]] != tuple(row_x[b] for b in row_a):\n",
     "            if False:\n"),
    # CLI output
    ("amalgam-prints-keys", CLI, "str(pres.groups[args.vertex].decode(c))", "str(c)"),
    ("json-unsorted", CLI, "print(json.dumps(payload, sort_keys=True))", "print(json.dumps(payload))"),
    # a cold gp process loads only what its subcommand runs
    ("cli-imports-amalgam-eagerly", CLI, "from .words import element_of, identity, shape\n",
     "from .words import element_of, identity, shape\nfrom .amalgam import decompose_at\n"),
    ("cyclic-imports-dataclasses", C, "from typing import Dict, Iterator, List, NamedTuple, Tuple\n",
     "import dataclasses\nfrom typing import Dict, Iterator, List, NamedTuple, Tuple\n"),
    ("parabolic-imports-dataclasses", PB, "from typing import Iterable, List, NamedTuple\n",
     "import dataclasses\nfrom typing import Iterable, List, NamedTuple\n"),
    # every top-level definition serves gp, gp selftest or the public API
    ("unreachable-definition", C, "    return {root: Element(pres, tuple(part)) for root, part in sorted(parts.items())}\n",
     "    return {root: Element(pres, tuple(part)) for root, part in sorted(parts.items())}\n\n\n"
     "def factor_count(e: Element) -> int:\n    return len(commuting_factors(e))\n"),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def tier1_passes(tree: Path, seconds: float) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # A session of its own, so that running out of time also stops the
    # processes the tests start (a gp or script child that loops forever).
    with subprocess.Popen(
        [sys.executable, *TIER1],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=_limit_memory,
        start_new_session=True,
    ) as proc:
        try:
            return proc.wait(timeout=seconds) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return False


def fresh_copy(scratch: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=scratch))
    for name in COPIED:
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return tree


def run(path, old, new, scratch: Path, seconds: float) -> str:
    tree = fresh_copy(scratch)
    try:
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new))
        return "survived" if tier1_passes(tree, seconds) else "killed"
    finally:
        shutil.rmtree(tree)


def main(names) -> int:
    unknown = sorted(set(names) - {name for name, *_ in MUTANTS})
    if unknown:
        print(f"unknown edit: {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        baseline = fresh_copy(scratch)
        start = time.monotonic()
        if not tier1_passes(baseline, RUN_SECONDS):
            print("unmutated Tier-1 fails: nothing judged", flush=True)
            return 2
        elapsed = time.monotonic() - start
        cap = max(MIN_MUTANT_SECONDS, MUTANT_TIME_FACTOR * elapsed)
        print(f"unmutated  {elapsed:5.0f} s; each mutated run capped at {cap:.0f} s", flush=True)
        shutil.rmtree(baseline)
        verdicts = []
        for name, path, old, new in chosen:
            start = time.monotonic()
            verdict = run(path, old, new, scratch, cap)
            verdicts.append(verdict)
            print(f"{verdict:9}  {time.monotonic() - start:5.0f} s  {name}", flush=True)
    print(f"{verdicts.count('killed')} of {len(verdicts)} killed")
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
