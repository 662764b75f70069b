"""The command-line surface: flag grammar, JSON output, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import quadembed
from quadembed.cli import main

# a child interpreter started here finds the package the tests import
PACKAGE_ROOT = Path(quadembed.__file__).parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suslin_command(capsys):
    code, out, _ = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3,4", "--check")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == [["1", "2"], ["-4", "3"]]
    assert data["identities"]["product_ok"]
    assert data["identities"]["det_ok"]


def test_suslin_bar_flag(capsys):
    code, out, _ = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3,4", "--bar")
    assert code == 0
    assert json.loads(out)["sbar"] == [["3", "-2"], ["4", "1"]]


def test_suslin_rational_ring(capsys):
    code, out, _ = run_cli(
        capsys, "suslin", "--v", "1/2,1", "--w", "2,1/3", "--check", "--ring", "q"
    )
    assert code == 0
    assert json.loads(out)["identities"]["product_ok"]


def test_derive_j_command(capsys):
    code, out, _ = run_cli(capsys, "derive-j", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["j"] == [["0", "1"], ["-1", "0"]]
    assert data["conjugates_to"] == "bar"


def test_clifford_mul_command(capsys):
    code, out, _ = run_cli(
        capsys, "clifford", "mul", "--space", "hyp:1", "--a", "2:1", "--b", "1:1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"coeff": "1", "mask": 0},
        {"coeff": "-1", "mask": 3},
    ]


def test_clifford_mul_accepts_json_element(capsys):
    element = json.dumps({"terms": [{"mask": 3, "coeff": "2"}]})
    code, out, _ = run_cli(
        capsys, "clifford", "mul", "--space", "hyp:1", "--a", element, "--b", element
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"coeff": "4", "mask": 3}]


def test_iso_command(capsys):
    code, out, _ = run_cli(capsys, "iso", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 16 and data["isomorphism"]


def test_catalog_command(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--family", "odd2n1", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 3
    assert data["space"]["rank"] == 3


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3")
    assert code == 2
    assert err


def test_bad_input_exits_2_with_one_line(capsys):
    for argv in (
        ("verify", "--suite", "catalog", "--samples", "0"),
        ("verify", "--suite", "catalog", "--samples", "-1"),
        ("clifford", "mul", "--space", "hyp:1", "--a", "9:1", "--b", "1:1"),
        ("clifford", "mul", "--space", "hyp:1", "--a", "1:1",
         "--b", '{"terms": [{"mask": -1, "coeff": "1"}]}'),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "suslin", "--seed", "1", "--samples", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["suites"][0]["suite"] == "suslin"


def test_verify_emit_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "catalog",
        "--seed",
        "0",
        "--samples",
        "2",
        "--emit",
        str(target),
    )
    assert code == 0
    assert target.read_text() == out


def test_verify_report_digests_are_pinned(capsys):
    """The whole report of a fixed configuration, byte for byte, against the
    digests recorded before the scalar matrix types were merged (Z, Q) and
    before the Clifford product tables moved onto the spaces (Z/6): a change
    to any check, sampler, solver or number format moves them."""
    want = {
        None: "ed2157bb7056a47bfe64e133b1b16d058234feb85752d07735dff41713998897",
        "q": "dcc9271e33faf8128d0bacd2aa65aefd123af6c0f9365278fdc63eeccad449ae",
        "zmod:6": "9d0ad9179a1523cad78a46a4c0b22c00b5c1244b979792a98fc3a8a96e3e6d94",
    }
    for ring, digest in want.items():
        argv = ["verify", "--suite", "all", "--samples", "3", "--seed", "0"]
        if ring is not None:
            argv += ["--ring", ring]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_determinism_in_process(capsys):
    args = ["verify", "--suite", "suslin", "--seed", "3", "--samples", "4"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quadembed", "derive-j", "--n", "1"],
        capture_output=True,
        text=True,
        cwd=PACKAGE_ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["j"] == [["1"]]


def test_emitted_objects_reparse(capsys):
    from quadembed.qspace import QuadraticSpace

    code, out, _ = run_cli(capsys, "catalog", "--family", "hyperbolic2n", "--n", "1")
    assert code == 0
    data = json.loads(out)
    space = QuadraticSpace.from_json(data["space"])
    assert space.to_json() == data["space"]
