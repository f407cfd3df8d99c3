import io

from graphprod import selftest
from graphprod.presentation import InvariantError


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
