"""End-to-end runs of the command line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import albv
from albv.cli import main
from albv.verify import SUITES

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

SO3_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y", "z"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "z"}, {"i": 2, "j": 3, "c": "x"}, {"i": 1, "j": 3, "c": "-y"}]
"""

# the three files of the benchmark's ``verify_cli`` workload
BENCH_FILES = {"plane": PLANE_TEXT, "sl2": SL2_TEXT, "so3": SO3_TEXT}

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


def run_module(*args):
    """Run ``python -m albv.cli`` in a fresh interpreter on this checkout."""
    src = str(Path(albv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "albv.cli", *args], capture_output=True, text=True, env=env
    )


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


@pytest.mark.parametrize("name", ["plane", "so3"])
@pytest.mark.parametrize("flags", [[], ["--no-validate"]], ids=["gated", "ungated"])
def test_verify_builds_the_cotangent_algebroid_once(
    tmp_path, capsys, monkeypatch, name, flags
):
    """Three checks and one table read the cotangent algebroid of the
    bivector: one build serves them all, and it is validated once."""
    import albv.algebroid
    from albv.algebroid import LieAlgebroid

    builds = []
    build = albv.algebroid._bivector_dual

    def counting_build(a, r):
        builds.append(build(a, r))
        return builds[-1]

    validated = []
    validate = LieAlgebroid.validate

    def counting_validate(self):
        validated.append(self)
        return validate(self)

    monkeypatch.setattr(albv.algebroid, "_bivector_dual", counting_build)
    monkeypatch.setattr(LieAlgebroid, "validate", counting_validate)
    path = put(tmp_path, name + ".albv", BENCH_FILES[name])
    assert main(["verify", path, "--seed", "3", "--trials", "6"] + flags) == 0
    capsys.readouterr()
    assert len(builds) == 1
    assert sum(a is builds[0] for a in validated) == 1


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


def test_oversized_power_is_a_usage_error_with_its_line(tmp_path, capsys):
    path = put(tmp_path, "power.albv", PLANE_TEXT.replace('"x"]', '"x^100000"]'))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 9: bad polynomial 'x^100000'")
    assert "exceeds the power bound" in captured.err


def test_power_with_too_many_terms_is_a_usage_error_with_its_line(tmp_path, capsys):
    """(x+y+z)^44 is within the degree bound but could have C(46, 2) = 1,035
    terms, above the term bound."""
    text = SO3_TEXT.replace('"c": "x"', '"c": "(x+y+z)^44"')
    path = put(tmp_path, "terms.albv", text)
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 6: bad polynomial '(x+y+z)^44': exponent 44 on a base of 3 "
        "terms could give 1035 terms, above the term bound 1000 (at position 8)\n"
    )


def test_deeply_nested_polynomial_is_a_usage_error(tmp_path):
    # 2000 nested parentheses used to exhaust the stack inside the parser
    nested = "(" * 2000 + "x" + ")" * 2000
    path = put(tmp_path, "deep.albv", PLANE_TEXT.replace('"x"]', '"%s"]' % nested))
    proc = run_module("validate", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line 9: bad polynomial")
    assert "nesting deeper than" in proc.stderr
    assert "Traceback" not in proc.stderr
    # the 4001-character entry is clipped to an excerpt around the position
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert len(proc.stderr) < 200
    assert "(at position 101)" in proc.stderr


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
    # no axiom check runs, so the broken bracket reaches the table, and the
    # table refuses the entry its nonzero square would make negative
    path = put(tmp_path, "broken.albv", BROKEN_TEXT)
    assert main(["cohomology", path, "--json", "--no-validate"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checks"] == [
        {
            "name": "computation",
            "status": "fail",
            "witness": "operator does not square to zero: entry (2, 0) would be -1",
        }
    ]
    assert data["tables"] == []


def test_axioms_witness_is_the_first_failed_frame_check(tmp_path, capsys):
    # anchor images d/dx and x d/dx of commuting sections: only the anchor
    # check fails, and both the gate and the verify suite name it
    path = put(
        tmp_path,
        "anchor.albv",
        '[algebroid]\nkind = "custom"\nbase_vars = ["x"]\nrank = 2\n'
        'anchor = [["x"], ["1"]]\n',
    )
    witness = "axioms: FAIL (sections (1, 2), base variable x: residual 1)"
    assert main(["cohomology", path]) == 1
    assert capsys.readouterr().out.splitlines()[0] == witness
    assert main(["verify", path, "--suite", "algebroid", "--trials", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == witness


def test_verify_fails_duality_on_a_broken_bracket(tmp_path, capsys):
    path = put(tmp_path, "broken.albv", BROKEN_TEXT)
    assert main(["verify", path, "--trials", "5", "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "axioms: FAIL (sections (1, 2, 3): residual (-2) e3)" in lines
    assert (
        "homology-cohomology-duality: FAIL "
        "(operator does not square to zero: entry (1, 0) would be -1)"
    ) in lines
    assert not any(line.startswith("homology (") for line in lines)


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


@pytest.mark.parametrize("text", [SL2_TEXT, BROKEN_TEXT], ids=["sl2", "broken"])
@pytest.mark.parametrize(
    "command, message",
    [
        (["homology", "--kb"], "homology --kb needs a [poisson] section"),
        (["modular"], "modular needs a [poisson] section"),
        (["star", "--degree", "5"], "--degree must lie between 0 and 3"),
    ],
    ids=["kb", "modular", "star"],
)
def test_usage_errors_are_decided_before_the_gate(
    tmp_path, capsys, monkeypatch, text, command, message
):
    """The parsed file already says the section is missing and the rank is
    3, so no structure is validated before the usage error; a file that
    would also fail the gate exits 2 for the usage error, not 1."""
    from albv.algebroid import LieAlgebroid

    from conftest import counting

    path = put(tmp_path, "rank3.albv", text)
    with counting(monkeypatch, LieAlgebroid, "validate") as calls:
        assert main(command + [path]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", "error: %s\n" % message)


BROKEN_PI_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y", "z"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "y"}, {"i": 2, "j": 3, "c": "1"}]
"""


def test_modular_without_validation_stops_at_a_broken_bivector(tmp_path, capsys):
    """{x,y} = y and {y,z} = 1 give the self-bracket -2 e1^e2^e3, so the
    cotangent structure behind the modular relation refuses to build, and
    nothing about the modular field is reported before that failure."""
    path = put(tmp_path, "broken_pi.albv", BROKEN_PI_TEXT)
    assert main(["modular", path, "--no-validate"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("computation: FAIL (cotangent structure checks failed:")
    assert "modular" not in out
    assert main(["modular", path, "--no-validate", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in data["checks"]] == ["computation"]
    assert data["sign_s"] is None


def test_verify_keeps_the_checks_recorded_before_an_error(tmp_path, capsys):
    """The algebroid suite's structure gate fails on the broken bivector,
    every other check up to the Koszul-Brylinski square passes, the square
    fails directly, the modular relation then raises, and the report keeps
    what came before."""
    path = put(tmp_path, "broken_pi.albv", BROKEN_PI_TEXT)
    assert main(["verify", path, "--seed", "3", "--trials", "6", "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert sum(c["status"] == "pass" for c in checks) == 23
    failed = [(c["name"], c["witness"]) for c in checks if c["status"] == "fail"]
    assert [name for name, _ in failed] == [
        "bivector-self-commutes",
        "kb-squares-to-zero",
        "computation",
    ]
    assert failed[0][1] == "self-bracket is (-2) e1^e2^e3"
    assert failed[1][1] == "square probe 3 residual (-2*x)"
    assert failed[2][1].startswith("cotangent structure checks failed:")


@pytest.mark.parametrize("suite", ["core", "algebroid", "all"])
def test_every_verify_suite_gates_the_bivector(tmp_path, capsys, suite):
    """The command line gates ``--suite core`` and the algebroid suite opens
    with the same gate, so the broken bivector fails each of them, with the
    gate's two lines in the same order."""
    path = put(tmp_path, "broken_pi.albv", BROKEN_PI_TEXT)
    assert main(["verify", path, "--suite", suite, "--trials", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("axioms: PASS")
    assert lines[at + 1] == "bivector-self-commutes: FAIL (self-bracket is (-2) e1^e2^e3)"


# a rank-1 structure over the plane whose anchor is the Euler field, with
# the bivector {x,y} = x: the Poisson checks act on forms of the plane
EULER_LINE_TEXT = """\
[algebroid]
kind = "custom"
base_vars = ["x", "y"]
rank = 1
anchor = [["x", "y"]]

[poisson]
terms = [{"i": 1, "j": 2, "c": "x"}]
"""


def test_verify_draws_the_poisson_probes_on_base_forms(tmp_path, capsys):
    """Forms drawn on the file's rank-1 algebroid do not live on the
    bivector's rank-2 tangent algebroid, which used to end the report in a
    failed ``computation`` check."""
    path = put(tmp_path, "euler.albv", EULER_LINE_TEXT)
    assert main(["verify", path, "--seed", "3", "--trials", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "kb-generates-cotangent-bracket: PASS" in lines
    assert "unimodular-duality: SKIP (modular field (-1) e2)" in lines
    assert not any(line.startswith("computation") for line in lines)


@pytest.mark.parametrize(
    "command",
    [
        ["cohomology"],
        ["homology"],
        ["homology", "--kb"],
        ["modular"],
        ["star", "--degree", "1"],
        ["validate"],
    ]
    + [["verify", "--suite", suite, "--trials", "2"] for suite in SUITES]
    + [["verify", "--suite", "core", "--trials", "2", "--no-validate"]],
)
def test_each_command_builds_its_structures_once(tmp_path, capsys, monkeypatch, command):
    """The structure gate, the handler and ``verify``'s suites share one
    algebroid and one bivector."""
    from albv.albvfile import Document

    builds = []
    for name in ("build_algebroid", "build_poisson"):
        build = getattr(Document, name)

        def counting(self, *args, build=build, name=name, **kwargs):
            builds.append(name)
            return build(self, *args, **kwargs)

        monkeypatch.setattr(Document, name, counting)
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(command + [path]) == (1 if command == ["homology"] else 0)
    capsys.readouterr()
    assert sorted(builds) == ["build_algebroid", "build_poisson"]


def test_modular_field_is_computed_once_per_modular_check(tmp_path, capsys, monkeypatch):
    """A plane ``verify`` report computes it for the modular relation and
    for the unimodular duality; ``modular`` computes it once."""
    import albv.homology

    calls = []
    field = albv.homology.modular_vector_field

    def counting(*args):
        calls.append(args)
        return field(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("albv") and "modular_vector_field" in vars(module):
            monkeypatch.setattr(module, "modular_vector_field", counting)
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(["verify", path, "--seed", "3", "--trials", "5"]) == 0
    assert len(calls) == 2
    calls.clear()
    assert main(["modular", path]) == 0
    assert len(calls) == 1
    capsys.readouterr()


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


LINE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x"]

[connection]
alpha = ["x"]
"""

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, text, trials",
    [
        ("plane", PLANE_TEXT, 5),
        ("line", LINE_TEXT, 5),
        ("sl2", SL2_TEXT, 6),
        ("so3", SO3_TEXT, 6),
    ],
)
def test_verify_report_matches_the_golden_text(tmp_path, capsys, name, text, trials):
    """The whole ``verify --seed 3`` report, pinned across versions.

    The plane and line files were written by commit 27adc31, before the
    identity laws shared one probe loop, at ``--trials 5``; the plane's
    ``unimodular-duality`` line has since become a SKIP.  The rank-1 line
    runs ``interior-product-square`` on no probes.  The sl2 and so(3)*
    files, at ``--trials 6`` as the benchmark runs them, were written by
    commit 8da3707, before the operators merged their terms into one dict
    per output.
    """
    path = put(tmp_path, name + ".albv", text)
    assert main(["verify", path, "--trials", str(trials), "--seed", "3"]) == 0
    golden = GOLDEN / ("verify_%s.txt" % name)
    assert capsys.readouterr().out == golden.read_text()


def test_a_check_that_does_not_apply_is_skipped_not_passed(tmp_path, capsys):
    """{x,y} = y has modular field e1, so there is no untwisted duality to
    test: the check says SKIP with the reason, and the report still exits 0."""
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(["verify", path, "--suite", "homology", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "unimodular-duality: SKIP (modular field (1) e1)" in lines
    assert not any(line.startswith("unimodular-duality: PASS") for line in lines)
    assert main(["verify", path, "--suite", "homology", "--trials", "2", "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["unimodular-duality"] == {
        "name": "unimodular-duality",
        "status": "skip",
        "witness": "modular field (1) e1",
    }
    assert {c["status"] for c in checks.values()} == {"pass", "skip"}


TABLE_COMMANDS = (["cohomology"], ["homology"], ["homology", "--kb"])


def table_transcript(path, capsys):
    """Exit code and stdout of each table command at ``--max-weight 5``,
    in text and in ``--json``."""
    chunks = []
    for command in TABLE_COMMANDS:
        for flags in ([], ["--json"]):
            argv = command + [str(path), "--max-weight", "5"] + flags
            code = main(argv)
            shown = " ".join(command + ["FILE", "--max-weight", "5"] + flags)
            out = capsys.readouterr().out
            chunks.append("$ albv %s\n[exit %d]\n%s" % (shown, code, out))
    return "".join(chunks)


@pytest.mark.parametrize("name", sorted(BENCH_FILES))
def test_tables_match_the_golden_text(tmp_path, capsys, name):
    """``cohomology``, ``homology`` and ``homology --kb`` at weight 5, pinned.

    The golden files were written by commit 43e3800, which asked the
    operator once per basis monomial, before the tables were built from
    compiled rows.
    The plane's connection form x eps2 is not flat, so its ``homology``
    shows the failed check and no table; sl2 has no bivector, so its
    ``homology --kb`` is a usage error with empty stdout.
    """
    path = put(tmp_path, name + ".albv", BENCH_FILES[name])
    golden = GOLDEN / ("tables_%s.txt" % name)
    assert table_transcript(path, capsys) == golden.read_text()


# d + eps1^ on the plane has weight shifts -1 and 0, so its table is capped
MIXED_PLANE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[connection]
alpha = ["1", "0"]
"""


def capped_transcript(path):
    """``homology --max-weight 5`` on the mixed-shift plane, in text and in
    ``--json``, then the capped boundary tables of three one-shift operators
    at weight 5."""
    from albv.algebroid import PoissonStructure, cotangent_algebroid, tangent_algebroid
    from albv.bv import TopConnection
    from albv.homology import boundary_betti
    from conftest import sl2

    chunks = []
    for flags in ([], ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["homology", str(path), "--max-weight", "5"] + flags)
        shown = " ".join(["homology", "FILE", "--max-weight", "5"] + flags)
        chunks.append("$ albv %s\n[exit %d]\n%s" % (shown, code, out.getvalue()))
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    for name, algebroid in (
        ("cotangent so(3)*", cotangent_algebroid(so3)),
        ("tangent 3-space", tangent_algebroid(("x", "y", "z"))),
        ("sl2", sl2()),
    ):
        table = boundary_betti(TopConnection(algebroid), 5, force_capped=True)
        chunks.append("# %s\n%s\n" % (name, table.to_text()))
    return "".join(chunks)


def test_capped_tables_match_the_golden_text(tmp_path):
    """Capped tables, pinned: one of a mixed-shift operator through the
    command line, and three of one-shift operators capped on request.

    The golden file was written by commit 24bbd6e, which ranked every capped
    window as one matrix over all weights up to its cap.
    """
    path = put(tmp_path, "mixed.albv", MIXED_PLANE_TEXT)
    golden = GOLDEN / "tables_capped.txt"
    assert capped_transcript(path) == golden.read_text()


def test_a_table_above_the_block_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """so(3)* at weight 2 has slices of C(3, 1) C(4, 2) = 18 monomials in
    degrees 1 and 2; with the limit one below, every table command refuses
    with exit 2 and prints only the error, in text and in JSON."""
    import albv.homology

    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 17)
    path = put(tmp_path, "so3.albv", SO3_TEXT)
    for command in TABLE_COMMANDS:
        for flags in ([], ["--json"]):
            assert main(command + [path, "--max-weight", "2"] + flags) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "error: table too large: a block of degree 1 and weight at most 2 "
                "has 18 basis monomials, above the limit of 17\n"
            )
    # the Koszul-Brylinski operator of a linear bivector has shift 0
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 18)
    assert main(["homology", "--kb", path, "--max-weight", "2"]) == 0


def test_rank_33_mutant_exits_2_at_once(tmp_path):
    """One inserted digit turns sl2 into a rank-33 algebra, whose degree-16
    table slice has C(33, 16) basis monomials; the size is counted from
    binomials and refused before any row is asked.  The command runs in a
    child process with 1 GiB of address space, so a table that was not
    bounded would fail there rather than fill the machine."""
    import resource
    from math import comb

    from albv.homology import MAX_BLOCK_SIZE, TableTooLarge, betti_table

    assert comb(33, 16) > MAX_BLOCK_SIZE
    with pytest.raises(TableTooLarge):
        betti_table((), 33, lambda idx, expo: pytest.fail("row asked"), 1, 0)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = put(tmp_path, "sl33.albv", SL2_TEXT.replace("rank = 3", "rank = 33"))
    src = str(Path(albv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "albv.cli", "cohomology", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: table too large: a block of degree 16 and weight at most 0 has "
        "%d basis monomials, above the limit of %d\n" % (comb(33, 16), MAX_BLOCK_SIZE)
    )


@pytest.mark.parametrize("command", [["cohomology"], ["homology"], ["verify"]])
def test_table_size_is_refused_before_the_axiom_gate(
    tmp_path, capsys, monkeypatch, command
):
    """The rank-33 mutant's largest slice is counted from the file alone, so
    the table commands exit 2 without running the structure checks, whose
    C(33, 3) Jacobi triples used to take most of the run.  ``verify`` counts
    its duality tables' slices the same way, before any suite draws a probe
    of degree up to 33."""
    from math import comb

    from albv.algebroid import LieAlgebroid
    from albv.homology import MAX_BLOCK_SIZE

    calls = []
    validate = LieAlgebroid.validate

    def counting_validate(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(LieAlgebroid, "validate", counting_validate)
    path = put(tmp_path, "sl33.albv", SL2_TEXT.replace("rank = 3", "rank = 33"))
    assert main(command + [path]) == 2
    out, err = capsys.readouterr()
    assert len(calls) == 0
    assert out == ""
    assert err == (
        "error: table too large: a block of degree 16 and weight at most 0 has "
        "%d basis monomials, above the limit of %d\n" % (comb(33, 16), MAX_BLOCK_SIZE)
    )


def _names(count):
    return ", ".join('"x%d"' % i for i in range(1, count + 1))


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SL2_TEXT.replace("rank = 3", "rank = 1000000"),
            "line 3: rank 1000000 is above the limit of 40",
        ),
        (
            '[algebroid]\nkind = "tangent"\nbase_vars = [%s]\n' % _names(41),
            "line 3: base_vars has 41 names, above the limit of 40",
        ),
    ],
    ids=["rank", "base_vars"],
)
def test_a_rank_above_the_limit_is_a_parse_error(
    tmp_path, capsys, monkeypatch, text, message
):
    """``validate`` checks C(rank, 3) Jacobi triples, so a file that declares
    rank 1000000 ran without end; the reader refuses a rank or a number of
    base variables above ``albvfile.MAX_RANK`` with the line it stands on."""
    from albv.albvfile import MAX_RANK, Document
    from albv.algebroid import LieAlgebroid

    from conftest import counting

    assert MAX_RANK == 40
    path = put(tmp_path, "big.albv", text)
    with counting(monkeypatch, LieAlgebroid, "validate") as calls:
        assert main(["validate", path]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    tangent = '[algebroid]\nkind = "tangent"\nbase_vars = [%s]\n' % _names(MAX_RANK)
    assert Document.parse(tangent).rank == MAX_RANK


def test_star_images_are_counted_before_the_gate(tmp_path, capsys, monkeypatch):
    """``star --degree 10`` on a rank-40 algebra would print C(40, 10), about
    8.5e8, images; the count is refused from the file, before the structure
    gate, above ``cli.MAX_STAR_IMAGES``.  sl2 in degree 1 has 3 images: the
    limit 3 prints them, the limit 2 refuses them."""
    from math import comb

    from albv import cli
    from albv.algebroid import LieAlgebroid

    from conftest import counting

    path = put(tmp_path, "r40.albv", SL2_TEXT.replace("rank = 3", "rank = 40"))
    with counting(monkeypatch, LieAlgebroid, "validate") as calls:
        assert main(["star", path, "--degree", "10"]) == 2
    assert calls == []
    assert capsys.readouterr() == (
        "",
        "error: star --degree 10 has %d images, above the limit of %d\n"
        % (comb(40, 10), cli.MAX_STAR_IMAGES),
    )

    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    assert main(["star", path, "--degree", "1"]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_STAR_IMAGES", 3)
    assert main(["star", path, "--degree", "1"]) == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr(cli, "MAX_STAR_IMAGES", 2)
    assert main(["star", path, "--degree", "1", "--json"]) == 2
    assert capsys.readouterr() == (
        "", "error: star --degree 1 has 3 images, above the limit of 2\n"
    )


def test_a_table_over_no_variables_is_counted_at_weight_zero(
    tmp_path, capsys, monkeypatch
):
    """sl2 has no base variables, so its table asked at weight 4 has the one
    weight 0, whose largest slice is C(3, 1) = 3 coframes: the limit 3 lets
    it through unchanged and the limit 2 refuses it, from the command line
    and from ``betti_table`` alike."""
    import albv.homology
    from albv.homology import TableTooLarge, betti_table, cohomology_betti
    from albv.rows import differential_rows

    from conftest import sl2

    path = put(tmp_path, "sl2.albv", SL2_TEXT)
    command = ["cohomology", path, "--max-weight", "4"]
    assert main(command) == 0
    expected = capsys.readouterr()
    a = sl2()
    table = cohomology_betti(a, 4)
    assert table.max_weight == 0

    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 3)
    assert main(command) == 0
    assert capsys.readouterr() == expected
    assert betti_table((), 3, differential_rows(a), 1, 4, "cohomology") == table

    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 2)
    assert main(command) == 2
    assert capsys.readouterr() == (
        "",
        "error: table too large: a block of degree 1 and weight at most 0 has "
        "3 basis monomials, above the limit of 2\n",
    )
    with pytest.raises(TableTooLarge, match="weight at most 0 has 3 basis monomials"):
        betti_table((), 3, differential_rows(a), 1, 4, "cohomology")


def test_verify_counts_the_base_forms_table_of_its_bivector(
    tmp_path, capsys, monkeypatch
):
    """A rank-1 structure over 3-space with the so(3)* bivector: its own
    weight-2 slices have C(4, 2) = 6 basis monomials, but the
    Koszul-Brylinski table on base forms has 3 C(4, 2) = 18 in degree 1, so
    ``verify`` refuses the file when the limit is one below that."""
    import albv.homology

    text = SO3_TEXT.replace(
        'kind = "tangent"', 'kind = "custom"\nrank = 1\nanchor = [["0", "0", "0"]]'
    )
    path = put(tmp_path, "line.albv", text)
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 17)
    assert main(["verify", path, "--suite", "core", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: table too large: a block of degree 1 and weight at most 2 has "
        "18 basis monomials, above the limit of 17\n"
    )
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 18)
    assert main(["verify", path, "--suite", "core", "--trials", "1"]) == 0


def test_verify_reports_the_first_failing_probe(tmp_path, capsys, monkeypatch):
    """An oracle that doubles the bracket leaves minus the bracket as residual.

    The witness is the bracket of the first probe pair, so it also pins the
    draws; commit 27adc31 printed the same line.
    """
    import albv.verify

    oracle = albv.verify.schouten_oracle
    monkeypatch.setattr(
        albv.verify, "schouten_oracle", lambda a, u, v: oracle(a, u, v) * 2
    )
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    assert main(["verify", path, "--trials", "5", "--seed", "3"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed == [
        "bracket-oracle-agreement: FAIL "
        "(oracle probe 1 residual (3*x + 9*y^2 - 6*x^2) e1)"
    ]


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


def test_verify_refuses_trials_above_the_cap_without_running(tmp_path, capsys, monkeypatch):
    from albv import cli

    monkeypatch.setattr(cli, "run_suites", lambda *args: pytest.fail("suites ran"))
    path = put(tmp_path, "plane.albv", PLANE_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--trials", str(cli.MAX_TRIALS + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "--trials: must be at most %d, got %d" % (cli.MAX_TRIALS, cli.MAX_TRIALS + 1)
    assert expected in captured.err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "1 to %d" % cli.MAX_TRIALS in capsys.readouterr().out


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
    proc = run_module("validate", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("axioms: PASS\n")
