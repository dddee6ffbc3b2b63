"""End-to-end runs of the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import albv
from albv.cli import main

PLANE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "y"}]

[connection]
alpha = ["0", "x"]
"""

SYMPLECTIC_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "1"}]
"""

SL2_TEXT = """\
[algebroid]
kind = "lie_algebra"
rank = 3
structure = [{"i": 1, "j": 2, "k": 2, "c": "2"}, {"i": 1, "j": 3, "k": 3, "c": "-2"}, {"i": 2, "j": 3, "k": 1, "c": "1"}]
"""

BROKEN_TEXT = """\
[algebroid]
kind = "lie_algebra"
rank = 3
structure = [{"i": 1, "j": 2, "k": 1, "c": "1"}, {"i": 1, "j": 2, "k": 2, "c": "2"}, {"i": 1, "j": 3, "k": 3, "c": "-2"}, {"i": 2, "j": 3, "k": 1, "c": "1"}]
"""


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_passes_on_good_file(tmp_path, capsys):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "axioms: PASS" in out
    assert "anchor compatibility: ok" in out
    assert "jacobi identity: ok" in out


def test_validate_runs_the_structure_checks_once(tmp_path, capsys, monkeypatch):
    from albv.algebroid import LieAlgebroid

    calls = []
    validate = LieAlgebroid.validate

    def counting_validate(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(LieAlgebroid, "validate", counting_validate)
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(["validate", path]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "axioms: PASS" in out and "jacobi identity: ok" in out


def test_validate_reports_broken_structure(tmp_path, capsys):
    path = put(tmp_path, "broken.albv", BROKEN_TEXT)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "axioms: FAIL" in out
    assert "(-2) e3" in out


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.albv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_reports_the_line(tmp_path, capsys):
    bad = SL2_TEXT.replace('"i": 1, "j": 2, "k": 2', '"i": 2, "j": 1, "k": 2')
    path = put(tmp_path, "bad.albv", bad)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "i<j" in err


def test_cohomology_json_schema_and_values(tmp_path, capsys):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["cohomology", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"command", "checks", "tables", "sign_s"}
    assert data["command"] == "cohomology"
    records = data["tables"][0]["records"]
    dims = {(r["k"], r["w"]): r["dim"] for r in records}
    assert [dims[(k, 0)] for k in range(4)] == [1, 0, 0, 1]


def test_gate_blocks_tables_for_broken_structure(tmp_path, capsys):
    path = put(tmp_path, "broken.albv", BROKEN_TEXT)
    assert main(["cohomology", path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["name"] == "axioms"
    assert data["checks"][0]["status"] == "fail"
    assert data["tables"] == []


def test_no_validate_skips_the_gate(tmp_path, capsys):
    path = put(tmp_path, "broken.albv", BROKEN_TEXT)
    assert main(["cohomology", path, "--json", "--no-validate"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"] == []
    assert data["tables"]


def test_homology_requires_flat_connection(tmp_path, capsys):
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(["homology", path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["flat-connection"]["status"] == "fail"
    assert "curvature" in by_name["flat-connection"]["witness"]
    assert data["tables"] == []


def test_homology_with_kb_operator(tmp_path, capsys):
    path = put(tmp_path, "plane.albv", SYMPLECTIC_TEXT)
    assert main(["homology", path, "--kb", "--json", "--max-weight", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    dims = {(r["k"], r["w"]): r["dim"] for r in data["tables"][0]["records"]}
    assert dims[(2, 0)] == 1
    assert sum(dims.values()) == 1


def test_kb_needs_a_poisson_section(tmp_path, capsys):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["homology", path, "--kb"]) == 2
    assert "[poisson]" in capsys.readouterr().err


def test_modular_command(tmp_path, capsys):
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(["modular", path]) == 0
    out = capsys.readouterr().out
    assert "modular field: (1) e1" in out
    assert "modular-field-closed: PASS" in out
    assert "modular-relation: PASS" in out
    assert "sign_s: -1" in out

    assert main(["modular", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sign_s"] == -1


def test_modular_needs_a_poisson_section(tmp_path, capsys):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["modular", path]) == 2
    assert "[poisson]" in capsys.readouterr().err


def test_star_command_lists_basis_images(tmp_path, capsys):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["star", path, "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "star, degree 1" in out
    assert "*(eps1) = (1) e2^e3" in out
    assert main(["star", path, "--degree", "5"]) == 2
    assert "--degree" in capsys.readouterr().err


def test_verify_runs_and_is_deterministic(tmp_path, capsys):
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    args = ["verify", path, "--trials", "5", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "generating-property: PASS" in first


def test_global_flags_work_in_both_positions(tmp_path, capsys):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["--json", "cohomology", path]) == 0
    before = capsys.readouterr().out
    assert main(["cohomology", path, "--json"]) == 0
    after = capsys.readouterr().out
    assert json.loads(before) == json.loads(after)


def test_verify_rejects_zero_trials_and_negative_degrees(tmp_path, capsys):
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    for flag, value, message in (
        ("--trials", "0", "--trials: must be at least 1, got 0"),
        ("--max-deg", "-1", "--max-deg: must be at least 0, got -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_tables_reject_a_negative_weight_cap(tmp_path, capsys):
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    for command in (["cohomology"], ["homology"], ["homology", "--kb"]):
        with pytest.raises(SystemExit) as exc:
            main(command + [path, "--max-weight", "-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-weight: must be at least 0, got -3" in captured.err


def test_module_entry_point_runs_the_cli(tmp_path):
    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    src = str(Path(albv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "albv.cli", "validate", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("axioms: PASS\n")
