import io

import pytest

from graphprod import selftest
from graphprod.amalgam import decompose_at
from graphprod.presentation import InvariantError, Syllable, Word
from graphprod.words import element_of


def _run_with_failing_cyclic_check(monkeypatch, error) -> list:
    """Run three suites with check_cyclic_reduction raising error; the output lines."""

    def broken(g):
        raise error(f"planted failure: {g!r}")

    monkeypatch.setattr(selftest, "check_cyclic_reduction", broken)
    suites = [selftest._suite_confluence, selftest._suite_cyclic, selftest._suite_centralizers]
    monkeypatch.setattr(selftest, "SUITES", suites)
    out = io.StringIO()
    assert selftest.run_selftest(0, out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("ok confluence: ")
    assert lines[2].startswith("ok centralizers: ")
    assert lines[3] == "selftest failed (1 suites)"
    return lines


def test_failing_check_fails_only_its_suite(monkeypatch):
    lines = _run_with_failing_cyclic_check(monkeypatch, selftest.SelfTestFailure)
    assert lines[1].startswith("FAIL cyclic: planted failure: <")


def test_library_error_fails_only_its_suite(monkeypatch):
    lines = _run_with_failing_cyclic_check(monkeypatch, InvariantError)
    assert lines[1].startswith("FAIL cyclic: InvariantError: planted failure: <")


def test_failure_names_a_word_as_its_presentation_renders_it(monkeypatch, triangle_mixed):
    # the Word keeps the raw value 5 at the Z/4 vertex w; the message prints its residue
    monkeypatch.setattr(selftest, "brute_force_equal", lambda pres, w1, w2, budget: False)
    w = Word((Syllable("w", 5),))
    with pytest.raises(selftest.SelfTestFailure) as failure:
        selftest.check_equality(triangle_mixed, w, w)
    assert str(failure.value) == "equality oracle disagrees: w[1], w[1]"


def test_coset_formula_failure_names_the_first_disagreeing_element(monkeypatch, path_racg):
    # conjugation broken to return the conjugator puts the identity, the first
    # ball element, outside the cosets, although it commutes with g
    monkeypatch.setattr(selftest, "conjugate", lambda w, x: w)
    view = decompose_at(path_racg, "c")
    with pytest.raises(selftest.SelfTestFailure) as failure:
        selftest.check_centralizer(view, element_of(path_racg, "c[1] a[1]"), 2)
    assert str(failure.value) == "coset-intersection formula: 'c', <c[1] a[1]>, <1>"
