"""The named faults of scripts/mutants.py still apply to the source they mutate."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_edit_applies_exactly_once():
    mutants = load_mutants().MUTANTS
    names = [name for name, *_ in mutants]
    assert len(set(names)) == len(names)
    stale = [name for name, path, old, _ in mutants if (ROOT / path).read_text().count(old) != 1]
    assert stale == []


def test_unknown_edit_name_is_refused(capsys):
    assert load_mutants().main(["no-such-edit"]) == 2
    assert "unknown edit: no-such-edit" in capsys.readouterr().err
