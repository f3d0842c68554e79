import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiseamp import Algo, AlgoConfig, make_spectrum, variance_amplification
from noiseamp.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_stdout(argv):
    """Exit code and stdout, for hypothesis tests (no capsys fixture)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


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


def _leaves(obj, prefix=""):
    """(path, value) of every scalar in a JSON report, in document order."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


_sources = st.one_of(
    st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8).map(
        lambda vals: ("--spectrum", ",".join(map(repr, vals)))),
    st.tuples(st.integers(1, 3), st.integers(3, 9)).map(
        lambda t: ("--torus", f"{t[0]},{t[1]}")))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["gd", "hb", "na"]), _sources)
def test_analyze_csv_carries_the_json_numbers(algo, source):
    args = ["analyze", "--algo", algo, *source]
    code, out_json = _run_stdout(args)
    assert code == 0
    code, out_csv = _run_stdout(args + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["field", "value"]
    leaves = list(_leaves(json.loads(out_json)))
    assert [k for k, _ in rows[1:]] == [k for k, _ in leaves]
    for (_, text), (key, value) in zip(rows[1:], leaves):
        if isinstance(value, str):
            assert text == value, key
        else:
            assert float(text) == value, key


@pytest.mark.parametrize("algo, torus", [("gd", "1,9"), ("hb", "2,16"),
                                         ("na", "3,8")])
def test_analyze_torus_lists_modes_with_counts(capsys, algo, torus):
    # One entry per multiset of axis values, weighted by its lattice points.
    code, out, _ = _run(capsys, "analyze", "--algo", algo, "--torus", torus)
    assert code == 0
    report = json.loads(out)
    d, n0 = (int(v) for v in torus.split(","))
    modes = report["per_mode"]
    assert sum(m["count"] for m in modes) == n0 ** d - 1
    assert len(modes) < n0 ** d - 1
    assert report["J"] == math.fsum(m["j_hat"] for m in modes
                                    for _ in range(m["count"]))
    code, out, _ = _run(capsys, "consensus", "--algo", algo, "--torus", torus)
    assert json.loads(out)["jbar"] == report["J"]


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


@pytest.mark.parametrize("algo", ["gd", "hb"])
def test_bounds_in_order_where_the_closed_forms_meet(capsys, algo):
    # At n = 2 lower and upper are equal; unclamped, they round apart.
    code, out, _ = _run(capsys, "bounds", "--algo", algo,
                        "--kappa", "102477.15458177174", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] <= report["upper"]


@pytest.mark.parametrize("algo", ["gd", "hb"])
def test_bounds_on_one_eigenvalue(capsys, algo):
    # A single eigenvalue has kappa = 1.
    code, _, err = _run(capsys, "bounds", "--algo", algo, "--kappa", "9",
                        "--n", "1")
    assert code == 2 and "kappa = 1" in err
    code, out, _ = _run(capsys, "bounds", "--algo", algo, "--kappa", "1",
                        "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == report["upper"] == 1.0


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
    assert rows[0] == ["algo", "d", "n0", "n", "kappa", "rho", "rho_at",
                       "jbar", "jbar_over_n"]
    assert len(rows) == 5
    code, out, _ = _run(capsys, "sweep", "--algo", "gd", "--d", "1",
                        "--n0", "8,16,32,64")
    report = json.loads(out)
    assert report["regime"] in ("power_law", "logarithmic", "constant")
    # identical numeric content between the two formats
    first = dict(zip(rows[0], rows[1]))
    assert float(first["jbar"]) == report["rows"][0]["jbar"]
    assert float(first["rho"]) == report["rows"][0]["rho"]
    assert first["rho_at"] == report["rows"][0]["rho_at"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "bounds", "--algo", "gd", "--kappa", "4",
                        "--n", "2", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 2


@pytest.mark.parametrize("argv", [
    ("certify", "--algo", "na", "--kappa", "1e90"),   # kappa ** 3.5 overflows
    ("certify", "--algo", "na", "--kappa", "1e33"),   # beta rounds to 1
    ("certify", "--algo", "gd", "--kappa", "1e160"),  # bound is infinite
    ("bounds", "--algo", "na", "--kappa", "1e300", "--n", "3"),
    ("analyze", "--algo", "na", "--kappa", "1e33", "--n", "3"),  # tuned beta
    ("simulate", "--algo", "hb", "--kappa", "1e33", "--n", "2",  # rounds to 1
     "--steps", "10"),
    # The rate cap lies above the instability threshold.
    ("tune", "--algo", "gd", "--kappa", "1e15", "--n", "3"),
    ("tune", "--algo", "hb", "--kappa", "1e29", "--n", "3"),
    ("tune", "--algo", "hb", "--kappa", "1e300", "--n", "3"),
])
def test_huge_kappa_is_a_domain_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "KappaTooLarge"


@pytest.mark.parametrize("algo, kappa", [("gd", "1e14"), ("hb", "1e10"),
                                         ("hb", "1e27")])
def test_huge_kappa_tune_meets_its_cap(capsys, algo, kappa):
    # At 1e14 GD's cap equals the instability threshold; at 1e10 HB needs
    # momenta closer to 1 than 1 - 1e-4.
    code, out, err = _run(capsys, "tune", "--algo", algo, "--kappa", kappa,
                          "--n", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["rho"] <= report["rate_cap"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("analyze", "--algo", "gd", "--spectrum", "1,1e10", "--params",
     "explicit", "--alpha", "1e300"),
    ("analyze", "--algo", "hb", "--spectrum", "1,1e10", "--params",
     "explicit", "--alpha", "1e300", "--beta", "0.5"),
    ("consensus", "--algo", "na", "--torus", "2,8", "--params", "explicit",
     "--alpha", "1e308", "--beta", "0.5"),
    ("simulate", "--algo", "gd", "--spectrum", "1,1e10", "--params",
     "explicit", "--alpha", "1e300", "--steps", "10"),
])
def test_huge_step_is_unstable_without_overflow(capsys, argv):
    # alpha L overflows; the step is rejected before any arithmetic on it.
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "Unstable"
    assert "nan" not in payload["message"]
