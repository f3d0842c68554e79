"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reference import scale  # noqa: E402
from workloads import WORKLOADS, Request, build_requests  # noqa: E402

cli = run.import_cli()
import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_request_lists_are_seeded(workload):
    first = build_requests(workload, 3)
    assert first == build_requests(workload, 3)
    assert first != build_requests(workload, 4)
    assert len(first) == len(build_requests(workload, 4))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert list(layer_map) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    passes = 3 if trace else 1  # warm-up, untraced and traced passes
    assert result["attempted"] == passes * len(build_requests(workload, 7))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] for line in lines)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # Each request is scaled by its own reference timing, so only the
    # per-layer metrics relate to the measured ones by one factor.
    detail = json.loads(lines[-2])["detail"]
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        measured = detail["measured"][m["name"]]
        if scale(1.0, m["unit"], 0.5) == 1.0:
            assert value == measured
        elif trace and not m["name"].startswith("setup"):
            assert value == scale(measured, m["unit"],
                                  detail["speed_factor"]["run"])


def test_scale_reads_times_and_rates_at_nominal_speed():
    # A machine at half speed (factor 0.5) doubled every time and halved
    # every rate; sizes, counts and ratios are not times.
    assert scale(8.0, "ms", 0.5) == 4.0
    assert scale(8.0, "s", 0.5) == 4.0
    assert scale(8.0, "req/s", 0.5) == 16.0
    assert scale(8.0, "1/s", 0.5) == 16.0
    for unit in ("MB", "count", "ratio", "bytes"):
        assert scale(8.0, unit, 0.5) == 8.0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interactive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _outcome(argv, tmp_path):
    out = tmp_path / "report.out"
    code = cli.run([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


CORRUPTIONS = [
    (("analyze", "--algo", "na", "--spectrum", "1,4,9,30"),
     lambda r: {**r, "J": r["J"] * (1 + 1e-8)}),
    (("certify", "--algo", "na", "--kappa", "1000", "--n", "2",
      "--refine", "300"), lambda r: {**r, "valid": False}),
    (("certify", "--algo", "gd", "--kappa", "100", "--refine", "200"),
     lambda r: {**r, "bound": r["bound"] * 2}),
    (("tune", "--algo", "hb", "--kappa", "100", "--n", "5"),
     lambda r: {**r, "rho": r["rate_cap"] * 1.001}),
    (("consensus", "--algo", "hb", "--torus", "3,12"),
     lambda r: {**r, "jbar": r["jbar"] * (1 + 1e-7)}),
    (("sweep", "--algo", "gd", "--d", "2", "--n0", "8,12,16,24"),
     lambda r: {**r, "rows": [*r["rows"][:-1],
                              {**r["rows"][-1], "jbar": 1.0}]}),
    (("simulate", "--algo", "gd", "--spectrum", "1,9", "--steps", "20000",
      "--seed", "5"), lambda r: {**r, "j_hat": r["j_hat"] * 1.5}),
    (("simulate", "--algo", "hb", "--spectrum", "1,4,9", "--steps", "100",
      "--replicates", "100", "--seed", "5"),
     lambda r: {**r, "per_step": [v * 1.5 for v in r["per_step"]]}),
]


@pytest.mark.parametrize("argv,corrupt", CORRUPTIONS,
                         ids=[c[0][0] + "-" + c[0][2] for c in CORRUPTIONS])
def test_checker_rejects_corrupted_report(argv, corrupt, tmp_path):
    req = Request(argv)
    code, text = _outcome(argv, tmp_path)
    assert checks.Checker().check(req, code, text, "") is None
    bad = json.dumps(corrupt(json.loads(text)))
    assert checks.Checker().check(req, code, bad, "") is not None
    assert checks.Checker().check(req, code, text[: len(text) // 2], "")


def test_checker_rejects_nondeterministic_simulation(tmp_path):
    argv = ("simulate", "--algo", "na", "--spectrum", "1,9", "--steps",
            "5000", "--seed", "2")
    req = Request(argv)
    code, text = _outcome(argv, tmp_path)
    checker = checks.Checker()
    assert checker.check(req, code, text, "") is None
    rep = json.loads(text)
    shifted = {**rep, "j_hat": rep["j_hat"] * (1 + 1e-15)}
    assert checker.check(req, code, json.dumps(shifted), "") is not None


def test_checker_wants_exit_3_with_json_error(tmp_path):
    req = Request(("tune", "--algo", "gd", "--kappa", "100", "--n", "4",
                   "--cap-constant", "3"), expect_exit=3)
    good = '{"error": "InfeasibleCap", "message": "no step size"}\n'
    assert checks.Checker().check(req, 3, "", good) is None
    assert checks.Checker().check(req, 3, "", "error: bad\n") is not None
    assert checks.Checker().check(req, 0, "{}", "") is not None


def test_known_defect_is_flagged_not_hidden(tmp_path):
    known = [r for r in build_requests("interactive", 1) if r.known_defect]
    assert len(known) == 1
    code, text = _outcome(known[0].argv, tmp_path)
    assert checks.Checker().check(known[0], code, text, "") is not None


def test_known_defect_excuses_only_its_own_signature():
    req = next(r for r in build_requests("interactive", 1) if r.known_defect)

    class Crashing:
        @staticmethod
        def run(argv):
            raise RuntimeError("crash")

    run.SCRATCH.mkdir(exist_ok=True)
    loop = run.Loop(cli, [req], checks.Checker())
    loop.one_pass()
    assert loop.failed == 1 and not loop.unexpected
    loop = run.Loop(Crashing, [req], checks.Checker())
    loop.one_pass()
    assert loop.failed == 1 and len(loop.unexpected) == 1
