"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import answers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench_run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_hand_derived_tables():
    capped = answers.tangent3_capped(5)
    assert [capped[(0, w)] for w in range(3)] == [1, 3, 6]
    assert [capped[(1, w)] for w in range(3)] == [3, 8, 15]
    assert [capped[(2, w)] for w in range(3)] == [3, 6, 10]
    assert [capped[(3, w)] for w in range(3)] == [1, 1, 1]
    assert [answers.so3_capped(5)[(3, w)] for w in range(6)] == [1, 1, 2, 2, 3, 3]
    assert answers.so3_homogeneous(6)[(0, 6)] == 1
    assert sum(answers.tangent3_cohomology(6).values()) == 1


def test_planted_wrong_table_fails_only_its_operation(monkeypatch):
    planted = answers.tangent3_cohomology(6)
    planted[(1, 1)] = 1
    monkeypatch.setattr(answers, "tangent3_cohomology", lambda max_weight: planted)
    workload = workloads.BettiSlices()
    state = workload.build(None)
    tally = run.Tally()
    run.run_timed(workload.operations(state, 1), workload.mix, 0.0, tally, lambda: 0.0)
    fail_ratio = {name: failed / len(lat) for name, (lat, failed) in tally.by_name.items()}
    assert fail_ratio.pop("cohomology_betti tangent 3-space w=6") == 1
    assert set(fail_ratio.values()) == {0}


def test_report_check_needs_pass_lines_and_identical_bytes():
    workload = workloads.VerifyCli()
    key = ("plane", 7)
    assert workload._check(key, (0, "axioms: PASS\n", ""))
    assert not workload._check(key, (0, "axioms: PASS\nsign_s: 1\n", ""))
    assert not workload._check(("sl2", 7), (0, "axioms: FAIL\n", ""))
    assert not workload._check(("so3", 7), (1, "axioms: PASS\n", ""))
    assert not workload._check(("so3", 8), (0, "axioms: PASS\n", "warning\n"))


def _snapshot():
    return {
        (id(ns), attr): (ns, value)
        for ns in tracer.albv_namespaces()
        for attr, value in vars(ns).items()
    }


def test_tracer_patches_every_holder_and_restores_by_identity():
    import albv
    import albv.cli  # noqa: F401
    from albv import algebroid, homology, linalg, poly

    pi = algebroid.PoissonStructure(("x", "y"), {(0, 1): "y"})
    before = _snapshot()
    with tracer.Tracer() as active:
        assert homology.matrix_rank is linalg.rank
        assert homology.matrix_rank is not before[(id(linalg), "rank")][1]
        assert vars(poly.Poly)["__radd__"] is vars(poly.Poly)["__add__"]
        assert albv.tangent_algebroid is algebroid.tangent_algebroid
        pi.tangent()
        homology.tangent_algebroid(("x",))
        assert active.stats["algebroid.tangent_algebroid"][0] == 2
        assert tracer.find_wrappers()
    assert tracer.find_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (ns, value) in before.items():
        assert after[key][1] is value, (ns, key[1])


def test_traced_counts_repeat_for_a_seed():
    first = bench_run("--workload", "verify_cli", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    second = bench_run("--workload", "verify_cli", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert first["correct"] and first["failed"] == 0
    assert first["metrics"]["calculus.schouten.calls"]["value"] > 0
    assert first["metrics"]["linalg.rank.calls"]["value"] > 0
    counts = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: second["metrics"][k] for k in counts}


def test_run_reports_every_metric_of_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result = bench_run("--workload", "verify_cli", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    # three timed reports, then one untimed byte-identity re-run of each
    assert result["correct"] and result["attempted"] == 6 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["pass_ratio"]["value"] == 1


def test_failed_end_of_run_check_lowers_pass_ratio(monkeypatch):
    calls = []
    real = workloads._cli_report

    def drifting_report(cli, path, seed):
        code, out, err = real(cli, path, seed)
        calls.append(path)
        return code, out + "report %d\n" % len(calls), err

    monkeypatch.setattr(workloads, "_cli_report", drifting_report)
    result = bench_run("--workload", "verify_cli", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert result["metrics"]["pass_ratio"]["value"] == 0.5


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "betti_slices", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
