import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def gp(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "graphprod.cli", *args],
        capture_output=True,
        text=True,
        timeout=30,  # a hang fails the test instead of stalling the suite
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_normalize(tmp_path):
    code, out, _ = gp("normalize", "-g", str(DATA / "path-racg.json"), "a[1] b[1] a[1]")
    assert code == 0
    assert out.splitlines()[0] == "normal: b[1]"


def test_eq_exit_codes():
    code, out, _ = gp("eq", "-g", str(DATA / "path-racg.json"), "a[1] b[1]", "b[1] a[1]")
    assert code == 0 and "equal: yes" in out
    code, out, _ = gp("eq", "-g", str(DATA / "path-racg.json"), "a[1] c[1]", "c[1] a[1]")
    assert code == 1 and "equal: no" in out


def test_conj_outputs():
    code, out, _ = gp("conj", "-g", str(DATA / "path-racg.json"), "a[1] c[1]", "c[1] a[1]")
    assert code == 0
    assert out == "conjugate: yes\nconjugator: a[1]\n"
    code, out, _ = gp("conj", "-g", str(DATA / "path-racg.json"), "a[1] c[1]", "b[1]")
    assert code == 1
    assert "refutation: support-mismatch" in out


def test_centralizer_check_default_radius():
    # radius 4 by default: the radius-4 ball on free-zz has 9,361 elements
    code, out, _ = gp("centralizer-check", "-g", str(DATA / "free-zz.json"), "--vertex", "x", "x[1] y[1]")
    assert code == 0
    assert "ball: 9361\n" in out and "violations: 0\n" in out


def test_witness_json_reverifies_in_fresh_process():
    code, out, _ = gp("witness", "-g", str(DATA / "free-zz.json"), "--mode", "p:2", "x[1]", "x[2]")
    assert code == 0
    payload = json.loads(out)
    # the witness lives over the joint support, so only x appears
    assert payload["per_vertex_moduli"] == {"x": 4}
    # re-verify the certificate with an independent invocation on the images
    code2, out2, _ = gp(
        "conj",
        "-g",
        str(DATA / "free-zz.json"),
        payload["images"][0],
        payload["images"][1],
    )
    assert code2 == 1
    assert f"refutation: {payload['certificate_tag']}" in out2


def test_witness_conjugate_inputs_fail():
    code, _, err = gp("witness", "-g", str(DATA / "path-racg.json"), "a[1] c[1]", "c[1] a[1]")
    assert code == 1 and "conjugate" in err


def test_amalgam_requires_vertex():
    code, _, err = gp("amalgam", "-g", str(DATA / "path-racg.json"), "a[1] c[1]")
    assert code == 3 and "vertex" in err


def test_missing_file_is_usage_error():
    code, _, err = gp("normalize", "-g", str(DATA / "missing.json"), "a[1]")
    assert code == 3 and "error:" in err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"vertices": [{"name": "u", "group": "Z"}, {"name": "v", "group": "Z"}], "edges": [[["u"], "v"]]}),
        json.dumps({"vertices": [{"name": "u", "group": {"table": {"elements": ["e"], "mul": [0], "identity": 0}}}]}),
        json.dumps({"vertices": [{"name": "u", "group": {"table": {"elements": [None], "mul": [[0]], "identity": 0}}}]}),
        "[" * 100000,
    ],
    ids=["edge-endpoint", "table-row", "table-name", "deep-nesting"],
)
def test_malformed_presentation_is_usage_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = gp("eq", "-g", str(path), "1", "1")
    assert code == 3 and out == "" and "error:" in err


def test_bad_word_is_usage_error():
    code, _, err = gp("normalize", "-g", str(DATA / "path-racg.json"), "zz[1]")
    assert code == 3 and "unknown vertex" in err


def test_unknown_subcommand_is_usage_error():
    code, _, _ = gp("frobnicate")
    assert code == 3


def test_centralizer_check_exit():
    code, out, _ = gp(
        "centralizer-check",
        "-g",
        str(DATA / "path-racg.json"),
        "--vertex",
        "c",
        "--radius",
        "4",
        "c[1] b[1]",
    )
    assert code == 0
    assert "violations: 0" in out


def test_json_flag_stable_key_order():
    args = ("normalize", "-g", str(DATA / "path-racg.json"), "c[1] a[1] b[1]", "--json")
    _, out1, _ = gp(*args)
    _, out2, _ = gp(*args)
    assert out1 == out2
    payload = json.loads(out1)
    assert list(payload) == sorted(payload)
    assert payload["normal"] == "b[1] c[1] a[1]"


def test_unresolved_centralizer_check_exits_2(tmp_path):
    doc = {
        "vertices": [
            {"name": "c", "group": "cyclic 2"},
            {"name": "h1", "group": "cyclic 2"},
            {"name": "h2", "group": "cyclic 2"},
            {"name": "a", "group": "cyclic 2"},
        ],
        "edges": [["c", "h1"], ["c", "h2"]],
    }
    path = tmp_path / "wide-h.json"
    path.write_text(json.dumps(doc))
    code, out, _ = gp(
        "centralizer-check", "-g", str(path), "--vertex", "c", "--radius", "1",
        "c[1] h1[1] h2[1] a[1] h2[1] h1[1] c[1] a[1]",
    )
    assert code == 2
    assert "unresolved: 1" in out


def test_centralizer_check_on_a_finite_h_side_resolves():
    # at apex c of path-c3-end the H-side is G_b = Z/2, which the radius-4 ball
    # covers, so the rotation by c a is refuted instead of left unresolved
    code, out, _ = gp(
        "centralizer-check", "-g", str(DATA / "path-c3-end.json"), "--vertex", "c", "c[1] a[1] c[1] a[2]"
    )
    assert code == 0
    assert "unresolved: 0\n" in out and "violations: 0\n" in out


def test_witness_rejects_non_prime_mode():
    code, _, err = gp("witness", "-g", str(DATA / "free-zz.json"), "--mode", "p:4", "x[1]", "x[2]")
    assert code == 3 and "prime" in err


def test_witness_with_a_prime_near_10_to_18():
    start = time.perf_counter()
    code, out, _ = gp("witness", "-g", str(DATA / "free-zz.json"), "--mode", "p:1000000000000000003", "x[1]", "x[2]")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["per_vertex_moduli"] == {"x": 1000000000000000003}


def test_witness_rejects_a_prime_above_the_exact_bound():
    code, _, err = gp("witness", "-g", str(DATA / "free-zz.json"), "--mode", "p:3317044064679887385961981", "x[1]", "x[2]")
    assert code == 3 and "must be below 3317044064679887385961981" in err


def test_failed_conjugator_check_survives_optimize():
    # Under python -O a bare assert would be skipped and the wrong conjugator
    # printed; the explicit check must still reject it.
    script = (
        "import sys, graphprod.conjugacy as c, graphprod.cli as cli\n"
        "c.conjugate = lambda w, x: c.identity(x.pres)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    args = ["conj", "-g", str(DATA / "path-racg.json"), "a[1] c[1]", "c[1] a[1]"]
    proc = subprocess.run([sys.executable, "-O", "-c", script, *args], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "error: the conjugator fails its re-check" in proc.stderr


# A fresh process imports graphprod.cli and runs one subcommand in-process;
# it prints its exit code and the modules it loaded after start-up.
IMPORT_PROBE = (
    "import contextlib, io, json, sys\n"
    "start = set(sys.modules)\n"
    "import graphprod.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(set(sys.modules) - start)]))\n"
)
BASE_MODULES = {"graphprod", "graphprod.cli", "graphprod.presentation", "graphprod.words"}


def loaded_by(*args):
    args = [str(DATA / a) if a.endswith(".json") else a for a in args]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args], capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize(
    "args,extra",
    [
        (["normalize", "-g", "path-racg.json", "a[1] b[1] a[1]"], set()),
        (["eq", "-g", "path-racg.json", "a[1] b[1]", "b[1] a[1]"], set()),
        (["conj", "-g", "free-zz.json", "x[1] y[1]", "y[1] x[1]"], {"graphprod.cyclic", "graphprod.conjugacy"}),
        (["cyc", "-g", "free-zz.json", "x[2] y[-3] x[-2]"], {"graphprod.cyclic", "graphprod.conjugacy"}),
        (["ps", "-g", "star-racg.json", "c[1] l1[1]"], {"graphprod.cyclic", "graphprod.conjugacy"}),
    ],
    ids=["normalize", "eq", "conj", "cyc", "ps"],
)
def test_common_subcommands_load_only_what_they_run(args, extra):
    code, modules = loaded_by(*args)
    assert code == 0
    ours = {m for m in modules if m.split(".")[0] == "graphprod"}
    assert BASE_MODULES <= ours <= BASE_MODULES | extra
    assert "dataclasses" not in modules


@pytest.mark.parametrize(
    "args,module",
    [
        (["centralizer-check", "-g", "path-racg.json", "--vertex", "c", "--radius", "4", "c[1] b[1]"], "amalgam"),
        (["pc", "-g", "path-racg.json", "a[1] c[1] a[1]"], "parabolic"),
        (["witness", "-g", "free-zz.json", "--mode", "p:2", "x[1]", "x[2]"], "separability"),
    ],
    ids=lambda a: a[0] if isinstance(a, list) else a,
)
def test_heavy_subcommands_load_their_module(args, module):
    code, modules = loaded_by(*args)
    assert code == 0 and f"graphprod.{module}" in modules
    assert "dataclasses" not in modules


# Exact stdout and exit code of every subcommand that takes --json, in both
# output forms: empty sets print "-", table and Z/n values print by name and
# residue, and amalgam interleaves its pieces and consonants.
PINNED_OUTPUTS = [
    (["normalize", "-g", "triangle-mixed.json", "w[-1] v[5] u[t]"], 0,
     "normal: u[t] v[2] w[3]\nlength: 3\nsupport: u v w\nFL: u v w\nLL: u v w\n"),
    (["normalize", "-g", "triangle-mixed.json", "w[-1] v[5] u[t]", "--json"], 0,
     '{"FL": ["u", "v", "w"], "LL": ["u", "v", "w"], "length": 3, "normal": "u[t] v[2] w[3]", '
     '"support": ["u", "v", "w"]}\n'),
    (["normalize", "-g", "free-zz.json", "1"], 0, "normal: 1\nlength: 0\nsupport: -\nFL: -\nLL: -\n"),
    (["normalize", "-g", "free-zz.json", "1", "--json"], 0,
     '{"FL": [], "LL": [], "length": 0, "normal": "1", "support": []}\n'),
    (["eq", "-g", "path-racg.json", "a[1] b[1]", "b[1] a[1]"], 0, "equal: yes\n"),
    (["eq", "-g", "path-racg.json", "a[1] c[1]", "c[1] a[1]", "--json"], 1, '{"equal": false}\n'),
    (["conj", "-g", "free-zz.json", "x[1] y[1]", "y[1] x[1]"], 0, "conjugate: yes\nconjugator: x[-1]\n"),
    (["conj", "-g", "path-racg.json", "a[1] c[1]", "b[1]", "--json"], 1,
     '{"conjugate": false, "refutation": "support-mismatch"}\n'),
    (["cyc", "-g", "free-zz.json", "x[2] y[-3] x[-2]"], 0, "reduced: y[-3]\nconjugator: x[2]\n"),
    (["cyc", "-g", "free-zz.json", "x[2] y[-3] x[-2]", "--json"], 0,
     '{"conjugator": "x[2]", "reduced": "y[-3]"}\n'),
    (["ps", "-g", "star-racg.json", "1"], 0, "s-part: 1\np-part: 1\nS: -\nP: -\n"),
    (["ps", "-g", "star-racg.json", "1", "--json"], 0, '{"P": [], "S": [], "p_part": "1", "s_part": "1"}\n'),
    (["ps", "-g", "star-racg.json", "c[1] l1[1]", "--json"], 0,
     '{"P": [], "S": ["c", "l1"], "p_part": "1", "s_part": "c[1] l1[1]"}\n'),
    (["amalgam", "-g", "triangle-mixed.json", "--vertex", "u", "u[t] v[1]"], 0,
     "x0: 1\nc1: u[t]\nx1: v[1]\nconsonant-length: 1\n"),
    (["amalgam", "-g", "triangle-mixed.json", "--vertex", "u", "u[t] v[1]", "--json"], 0,
     '{"consonant_length": 1, "consonants": ["t"], "x_pieces": ["1", "v[1]"]}\n'),
    (["amalgam", "-g", "path-racg.json", "--vertex", "c", "a[1] c[1] a[1] c[1]", "--json"], 0,
     '{"consonant_length": 2, "consonants": ["1", "1"], "x_pieces": ["a[1]", "a[1]", "1"]}\n'),
    (["centralizer-check", "-g", "path-racg.json", "--vertex", "c", "--radius", "4", "c[1] b[1]", "--json"], 0,
     '{"ball": 16, "centralizer_size": 4, "kind": "product", "unresolved": 0, "violations": 0}\n'),
    (["pc", "-g", "path-racg.json", "1"], 0, "conjugator: 1\ncore: -\n"),
    (["pc", "-g", "path-racg.json", "a[1] c[1] a[1]", "--json"], 0, '{"conjugator": "a[1]", "core": ["c"]}\n'),
    (["normalizer", "-g", "path-racg.json", "--core", "a", "c[1]"], 1, "member: no\n"),
    (["normalizer", "-g", "path-racg.json", "--core", "a", "--conjugator", "c[1]", "b[1]", "--json"], 0,
     '{"member": true}\n'),
    (["normalizer", "-g", "path-racg.json", "--core", "", "c[1]", "--json"], 3, ""),
    (["eq", "-g", "missing.json", "a[1]", "a[1]"], 3, ""),
    (["normalizer", "-g", "path-racg.json", "--core", ",", "c[1]"], 3, ""),
]


@pytest.mark.parametrize(
    "args,expected_code,expected_out",
    PINNED_OUTPUTS,
    ids=[f"{i}-{args[0]}" for i, (args, _, _) in enumerate(PINNED_OUTPUTS)],
)
def test_pinned_outputs(args, expected_code, expected_out):
    args = [str(DATA / a) if a.endswith(".json") else a for a in args]
    code, out, _ = gp(*args)
    assert (code, out) == (expected_code, expected_out)


@pytest.mark.parametrize(
    "mode,order,word,modulus",
    [
        ("finite", 10**12, "a[3]", 2),
        ("p:2", 10**12, "a[3]", 2),
        ("finite", 10**18, "a[3]", 2),
        ("p:2", 10**18, "a[3]", 2),
        ("finite", 2 * 100000000000031, "a[2]", 100000000000031),
        ("finite", 2 * 500000000000000021, "a[2]", 500000000000000021),
        ("finite", 2 * 3317044064679887385962123, "a[2]", 3317044064679887385962123),
    ],
    ids=["finite", "p:2", "finite-1e18", "p:2-1e18", "finite-2q", "finite-2q-1e18", "finite-2q-above-mr-bound"],
)
def test_witness_on_huge_cyclic_vertex_is_fast(tmp_path, mode, order, word, modulus):
    """Each divisor is tried as trial division finds it, and trial division stops
    once the undivided cofactor is 1 or a prime, so no scan runs to sqrt(n) or n.
    On 2q, q prime, the modulus is q: a scan to sqrt(n) took 0.8 s at q near
    10^14, and would take minutes near 10^18.  The last q is a probable prime
    just above the bound where the primality test is exact; the cofactor is
    tested there too, so the scan stops after one division as well."""
    group = tmp_path / "huge.json"
    group.write_text(json.dumps({"vertices": [{"name": "a", "group": f"cyclic {order}"}], "edges": []}))
    start = time.perf_counter()
    code, out, _ = gp("witness", "-g", str(group), "--mode", mode, word)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["per_vertex_moduli"] == {"a": modulus}
