import csv
import io
import json

import pytest

from noiseamp import Algo, AlgoConfig, make_spectrum, variance_amplification
from noiseamp.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys):
    code, out, err = _run(capsys, "analyze", "--algo", "gd",
                          "--spectrum", "1,9", "--params", "table2")
    assert code == 0 and err == ""
    report = json.loads(out)
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.2)
    expected = variance_amplification(cfg, make_spectrum([1.0, 9.0]))
    assert report["J"] == expected.j
    assert report["rho"] == expected.rho
    assert report["config"]["alpha"] == 0.2
    assert len(report["per_mode"]) == 2


def test_analyze_csv_matches_json(capsys):
    args = ["analyze", "--algo", "na", "--spectrum", "1,4,9"]
    code, out_json, _ = _run(capsys, *args)
    assert code == 0
    code, out_csv, _ = _run(capsys, *args, "--format", "csv")
    assert code == 0
    report = json.loads(out_json)
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["field", "value"]
    flat = dict((k, v) for k, v, in rows[1:])
    assert float(flat["J"]) == report["J"]
    assert float(flat["per_mode[0].j_hat"]) == report["per_mode"][0]["j_hat"]
    assert float(flat["z_eigs[2]"]) == report["z_eigs"][2]


def test_analyze_kappa_n_source(capsys):
    code, out, _ = _run(capsys, "analyze", "--algo", "gd",
                        "--kappa", "9", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert [m["lambda"] for m in report["per_mode"]] == [9.0, 5.0, 1.0]


def test_analyze_explicit_params(capsys):
    code, out, _ = _run(capsys, "analyze", "--algo", "hb", "--spectrum",
                        "1,4", "--params", "explicit", "--alpha", "0.2",
                        "--beta", "0.3")
    assert code == 0
    assert json.loads(out)["beta"] == 0.3


def test_exit_code_usage_errors(capsys):
    # two problem sources
    code, _, err = _run(capsys, "analyze", "--algo", "gd",
                        "--spectrum", "1,2", "--kappa", "4", "--n", "2")
    assert code == 2 and "problem source" in err
    # explicit alpha without --params explicit
    code, _, _ = _run(capsys, "analyze", "--algo", "gd",
                      "--spectrum", "1,2", "--alpha", "0.1")
    assert code == 2
    # unknown flag via argparse
    code, _, _ = _run(capsys, "analyze", "--algo", "gd", "--nope")
    assert code == 2


def test_exit_code_domain_error_json(capsys):
    code, _, err = _run(capsys, "analyze", "--algo", "gd", "--spectrum",
                        "1,9", "--params", "explicit", "--alpha", "3.0")
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "Unstable"
    assert "message" in payload


def test_bounds_command(capsys):
    code, out, _ = _run(capsys, "bounds", "--algo", "hb",
                        "--kappa", "100", "--n", "5")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] <= report["upper"]
    assert "hb_gd_ratio" in report


def test_certify_command(capsys):
    code, out, _ = _run(capsys, "certify", "--algo", "na",
                        "--kappa", "10", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["bound"] <= 4.08 * report["reference"]
    code, out, _ = _run(capsys, "certify", "--algo", "gd", "--kappa", "2",
                        "--refine", "100")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_tune_command(capsys):
    code, out, _ = _run(capsys, "tune", "--algo", "gd",
                        "--spectrum", "1,5,10")
    assert code == 0
    report = json.loads(out)
    assert report["rho"] <= report["rate_cap"] + 1e-9
    code, _, err = _run(capsys, "tune", "--algo", "gd",
                        "--spectrum", "1,10", "--cap-constant", "10")
    assert code == 3
    assert json.loads(err)["error"] == "InfeasibleCap"


def test_consensus_command(capsys):
    code, out, _ = _run(capsys, "consensus", "--algo", "gd",
                        "--torus", "1,4")
    assert code == 0
    assert json.loads(out)["jbar"] == 27.0 / 8.0
    code, _, err = _run(capsys, "consensus", "--algo", "gd",
                        "--torus", "2,5000")
    assert code == 3
    assert json.loads(err)["error"] == "SizeOverflow"


def test_consensus_unstable_explicit_params(capsys):
    code, out, err = _run(capsys, "consensus", "--algo", "gd", "--torus",
                          "2,8", "--params", "explicit", "--alpha", "1.5")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "Unstable"


def test_simulate_command(capsys):
    code, out, _ = _run(capsys, "simulate", "--algo", "gd", "--spectrum",
                        "1,9", "--steps", "20000", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["j_hat"] == pytest.approx(report["j_exact"], rel=0.1)
    # reproducibility across invocations
    code, out2, _ = _run(capsys, "simulate", "--algo", "gd", "--spectrum",
                         "1,9", "--steps", "20000", "--seed", "1")
    assert json.loads(out2)["j_hat"] == report["j_hat"]


def test_simulate_ensemble_csv(capsys):
    code, out, _ = _run(capsys, "simulate", "--algo", "gd", "--spectrum",
                        "1,4", "--steps", "50", "--replicates", "3",
                        "--seed", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["step", "mean_sq_error", "stderr"]
    assert len(rows) == 52  # header + steps + 1 iterate rows


def test_sweep_command(capsys):
    code, out, _ = _run(capsys, "sweep", "--algo", "gd", "--d", "1",
                        "--n0", "8,16,32,64", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algo", "d", "n0", "n", "kappa", "jbar", "jbar_over_n"]
    assert len(rows) == 5
    code, out, _ = _run(capsys, "sweep", "--algo", "gd", "--d", "1",
                        "--n0", "8,16,32,64")
    report = json.loads(out)
    assert report["regime"] in ("power_law", "logarithmic", "constant")
    # identical numeric content between the two formats
    assert float(rows[1][5]) == report["rows"][0]["jbar"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "bounds", "--algo", "gd", "--kappa", "4",
                        "--n", "2", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 2


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("NOISEAMP_THREADS", "notanint")
    code, _, err = _run(capsys, "bounds", "--algo", "gd", "--kappa", "4",
                        "--n", "2")
    assert code == 2 and "NOISEAMP_THREADS" in err
    monkeypatch.setenv("NOISEAMP_THREADS", "4")
    code, out, _ = _run(capsys, "bounds", "--algo", "gd", "--kappa", "4",
                        "--n", "2")
    assert code == 0
    assert json.loads(out)["config"]["threads"] == 4
