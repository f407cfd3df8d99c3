import io

from graphprod import selftest


def test_failing_check_fails_only_its_suite(monkeypatch):
    def broken(g):
        raise selftest.SelfTestFailure(f"planted failure: {g!r}")

    monkeypatch.setattr(selftest, "check_cyclic_reduction", broken)
    suites = [selftest._suite_confluence, selftest._suite_cyclic, selftest._suite_centralizers]
    monkeypatch.setattr(selftest, "SUITES", suites)
    out = io.StringIO()
    assert selftest.run_selftest(0, out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("ok confluence: ")
    assert lines[1].startswith("FAIL cyclic: planted failure: <")
    assert lines[2].startswith("ok centralizers: ")
    assert lines[3] == "selftest failed (1 suites)"
