"""Every top-level definition in src/graphprod serves `gp`, `gp selftest` or the API,
and every graphprod name that perfbench/ uses exists.

The roots are every top-level definition of cli.py and selftest.py, every name
in graphprod.__all__, and KEPT.  From a reached definition the walk follows
each name it reads, each attribute name and each imported name to every
top-level definition of that name, so a reached class reaches its methods.
"""

import ast
import importlib
from pathlib import Path

import graphprod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "graphprod"

KEPT = {
    "conjugacy.brute_force_conjugate": "the conjugator-ball oracle that the North star names",
    "parabolic.parabolic_intersection_search": "perfbench calls it; it goes with the benchmark change of ROADMAP item 1",
    "parabolic.parabolics_equal": "perfbench calls it; it goes with the benchmark change of ROADMAP item 1",
    "amalgam.conjugator_classify": "the paper's conjugator cases, kept as API and checked by pytest",
    "amalgam.SigmaAmalgam": "the paper's sigma map, kept as API and checked by pytest",
}


def definitions():
    """module.name -> the node of each top-level def, class or name assignment, dunders skipped."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    found[f"{path.stem}.{name}"] = node
    return found


def names_in(node):
    """Each name, attribute name and imported name in the node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def reached(defs, roots):
    by_name = {}
    for qual in defs:
        by_name.setdefault(qual.partition(".")[2], []).append(qual)
    seen, stack = set(), list(roots)
    while stack:
        qual = stack.pop()
        if qual not in seen:
            seen.add(qual)
            stack.extend(q for name in names_in(defs[qual]) for q in by_name.get(name, ()))
    return seen


def test_every_definition_serves_gp_selftest_or_the_api():
    defs = definitions()
    roots = [q for q in defs if q.startswith(("cli.", "selftest.")) or q.partition(".")[2] in graphprod.__all__]
    missing = sorted(set(KEPT) - set(defs))
    assert not missing, f"KEPT names no definition: {missing}"
    stale = sorted(set(KEPT) & reached(defs, roots))
    assert not stale, f"KEPT entries that the roots already reach: {stale}"
    unreached = sorted(set(defs) - reached(defs, roots + list(KEPT)))
    assert not unreached, f"reached by neither gp, gp selftest, graphprod.__all__ nor KEPT: {unreached}"


def perfbench_names():
    """module.attribute for each name that perfbench/tracer.py TRACED lists, and
    each graphprod name that a perfbench/ file imports or reads off an imported module."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "graphprod":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphprod."):
                names.update(f"{node.module[len('graphprod.'):]}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
                names.update(f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in node.value.elts)
        names.update(
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        )
    return names


def test_perfbench_names_resolve():
    names = perfbench_names()
    assert {"separability.SeparationWitness.verify", "parabolic.parabolics_equal", "words.iter_ball"} <= names
    unresolved = []
    for name in sorted(names):
        module, *path = name.split(".")
        owner = importlib.import_module(f"graphprod.{module}")
        for attr in path:
            owner = getattr(owner, attr, None)
        if owner is None:
            unresolved.append(name)
    assert not unresolved, f"perfbench uses names that graphprod lacks: {unresolved}"
