import argparse
import contextlib
import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noiseamp import (Algo, AlgoConfig, Records, make_spectrum,
                      variance_amplification)
from noiseamp import cli, montecarlo
from noiseamp.cli import (RECORDS_PER_WRITE, _config_echo, _emit,
                          _resolve_config, _resolve_spectrum, build_parser,
                          run)
from noiseamp.montecarlo import SimResult


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


def test_unstable_below_one_names_the_threshold(capsys):
    # HB's tuned rate at kappa = 1e30 rounds below 1 but reaches the
    # instability threshold 1 - 1e-14: the message names the threshold.
    code, out, err = _run(capsys, "analyze", "--algo", "hb", "--kappa",
                          "1e30", "--n", "3")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "Unstable", "message": "iteration is unstable: eigenvalue "
        "1e+30 gives spectral radius 0.999999999999998 >= 0.99999999999999, "
        "the instability threshold"}


@pytest.mark.parametrize("argv, message", [
    (("bounds", "--algo", "gd", "--kappa", "nan", "--n", "3"),
     "kappa must be >= 1"),
    (("bounds", "--algo", "hb", "--kappa", "nan", "--n", "3"),
     "kappa must be >= 1"),
    (("bounds", "--algo", "na", "--kappa", "nan", "--n", "3"),
     "kappa must be >= 1"),
    (("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps", "10",
      "--objective", "pseudo-huber", "--delta", "nan"), "delta > 0"),
    (("tune", "--algo", "gd", "--spectrum", "1,4", "--cap-constant", "nan"),
     "cap_constant must be positive"),
    (("tune", "--algo", "hb", "--spectrum", "1,4", "--cap-constant", "nan"),
     "cap_constant must be positive"),
    (("certify", "--algo", "gd", "--kappa", "nan"), "--kappa must be >= 1"),
    (("certify", "--algo", "na", "--kappa", "nan"), "--kappa must be >= 1"),
    (("certify", "--algo", "na", "--kappa", "4", "--L", "nan"),
     "L must be positive"),
    (("certify", "--algo", "gd", "--kappa", "4", "--L", "nan"),
     "--L must be positive and finite"),
    (("certify", "--algo", "gd", "--kappa", "10", "--L", "inf"),
     "--L must be positive and finite"),
    (("certify", "--algo", "na", "--kappa", "10", "--L", "inf"),
     "--L must be positive and finite"),
    # analyze, tune, bounds and certify check --kappa and --n alike.
    (("certify", "--algo", "gd", "--kappa", "inf"), "--kappa must be >= 1"),
    (("certify", "--algo", "na", "--kappa", "inf"), "--kappa must be >= 1"),
    (("certify", "--algo", "gd", "--kappa", "4", "--n", "0"),
     "--n must be >= 1"),
    (("bounds", "--algo", "gd", "--kappa", "inf", "--n", "3"),
     "--kappa must be >= 1"),
    (("bounds", "--algo", "na", "--kappa", "0.5", "--n", "3"),
     "--kappa must be >= 1"),
    (("bounds", "--algo", "gd", "--kappa", "4", "--n", "0"),
     "--n must be >= 1"),
    (("bounds", "--algo", "hb", "--kappa", "4", "--n", "-3"),
     "--n must be >= 1"),
    (("analyze", "--algo", "gd", "--kappa", "inf", "--n", "3"),
     "--kappa must be >= 1"),
    (("tune", "--algo", "hb", "--kappa", "nan", "--n", "3"),
     "--kappa must be >= 1"),
    (("simulate", "--algo", "na", "--kappa", "4", "--n", "0"),
     "--n must be >= 1"),
    (("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps", "10",
      "--objective", "pseudo-huber", "--delta", "inf"),
     "--delta must be finite"),
    # A non-finite --sigma is refused as not finite, not as negative.
    (("consensus", "--algo", "gd", "--torus", "2,8", "--sigma", "inf"),
     "sigma must be finite and non-negative, got inf"),
    (("sweep", "--algo", "gd", "--d", "2", "--n0", "8,9,10,11",
      "--sigma", "nan"), "a sweep needs a finite sigma > 0, got nan"),
    # A problem source that does not parse, or half of --kappa with --n.
    (("analyze", "--algo", "gd", "--torus", "2,x"),
     "could not parse torus '2,x'"),
    (("analyze", "--algo", "gd", "--spectrum", "1,abc"),
     "could not parse spectrum '1,abc'"),
    (("analyze", "--algo", "gd", "--kappa", "10"),
     "--kappa and --n must be given together"),
    (("tune", "--algo", "hb", "--n", "3"),
     "--kappa and --n must be given together"),
])
def test_nan_flags_are_usage_errors_that_name_the_flag(capsys, argv,
                                                       message):
    # NaN fails every comparison, so each check is written to pass only
    # for a valid value, and a NaN flag fails where it is checked.  Each
    # error is one line on stderr.
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_tune_steps_past_double_range_name_a_python_float(capsys):
    # A spectrum of subnormals gives step sizes beyond double range; the
    # message formats the largest as a float, not as a numpy scalar.
    code, out, err = _run(capsys, "tune", "--algo", "gd", "--spectrum",
                          "1e-309,2e-309")
    assert (code, out) == (2, "")
    assert err == ("error: step sizes up to inf on L=2e-309 leave double "
                   "precision\n")


def test_bounds_na_in_one_dimension_is_a_domain_error(capsys):
    # A valid --n that NA's bounds cannot use is not a usage error.
    code, out, err = _run(capsys, "bounds", "--algo", "na", "--kappa", "4",
                          "--n", "1")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "DimensionTooSmall"


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


def test_refining_an_invalid_closed_form_is_a_domain_error(capsys):
    # At kappa = 1e16 the closed-form NA certificate fails its float check:
    # a report without --refine says so, and --refine has nothing to start
    # from (exit 3), which is no usage error.
    argv = ("certify", "--algo", "na", "--kappa", "1e16", "--n", "8")
    code, out, _ = _run(capsys, *argv)
    assert code == 0 and json.loads(out)["valid"] is False
    code, out, err = _run(capsys, *argv, "--refine", "1")
    assert code == 3 and out == ""
    error = json.loads(err)
    assert error["error"] == "NoGuarantee"
    assert "kappa=1e+16" in error["message"]


@pytest.mark.parametrize("argv", [
    ("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps", "10",
     "--replicates", "0"),
    ("simulate", "--algo", "hb", "--kappa", "4", "--n", "3", "--steps", "10",
     "--replicates", "-2"),
    ("certify", "--algo", "na", "--kappa", "10", "--refine", "-5"),
])
def test_counts_that_do_nothing_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be >=" in err


_REQUESTS = [
    ("analyze", "--algo", "hb", "--spectrum", "1,4,9"),
    ("tune", "--algo", "gd", "--spectrum", "1,5,10", "--format", "csv"),
    ("certify", "--algo", "gd", "--kappa", "3", "--refine", "20"),
    ("simulate", "--algo", "na", "--kappa", "4", "--n", "3", "--steps",
     "200", "--seed", "5"),
    ("sweep", "--algo", "gd", "--d", "1", "--n0", "8,12,16,20"),
]
_BEFORE = [
    ("analyze", "--algo", "gd", "--nope"),                # argparse error
    ("simulate", "--algo", "gd", "--spectrum", "1,2", "--steps", "20",
     "--replicates", "2", "--seed", "9", "--objective", "pseudo-huber",
     "--format", "csv", "--sigma-mode", "equals-alpha"),  # other defaults
    ("consensus", "--algo", "hb", "--torus", "2,8", "--params", "explicit",
     "--alpha", "0.1", "--beta", "0.2", "--sigma", "3"),
    ("tune",),                                            # missing --algo
]


def _run_all(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("request_argv", _REQUESTS)
def test_shared_parser_keeps_no_state_between_calls(request_argv):
    # The parser is built once per process; a request must not see what an
    # earlier call parsed, failed on or set as a default.
    build_parser.cache_clear()
    alone = _run_all(request_argv)
    assert alone[0] == 0
    for before in _BEFORE:
        _run_all(before)
        assert _run_all(request_argv) == alone, before
    assert build_parser() is build_parser()


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


def test_tune_na_meets_its_cap(capsys):
    code, out, err = _run(capsys, "tune", "--algo", "na", "--kappa", "1e3",
                          "--n", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["algo"] == "na"
    assert report["rate_cap"] == 1.0 - 1.0 / math.sqrt(1e3)
    assert report["rho"] <= report["rate_cap"]
    assert 0 < report["feasible_slices"] <= report["slices"]


@pytest.mark.parametrize("extra", [(), ("--refine", "50")])
def test_gd_certificate_at_kappa_one_is_valid(capsys, extra):
    code, out, _ = _run(capsys, "certify", "--algo", "gd", "--kappa", "1",
                        *extra)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["bound"] == report["reference"] == 1.0


def test_certify_echoes_L(capsys):
    # --L sets m = L / kappa and so every number of the report; --refine 0
    # (the default) changes none, so config leaves it out.
    code, out, _ = _run(capsys, "certify", "--algo", "gd", "--kappa", "10",
                        "--L", "5")
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {"command": "certify", "kappa": 10.0,
                                "L": 5.0, "n": 1}
    assert report["m"] == 0.5
    code, out, _ = _run(capsys, "certify", "--algo", "gd", "--kappa", "10",
                        "--refine", "3")
    assert code == 0
    assert json.loads(out)["config"]["refine"] == 3


def test_tune_echoes_its_noise_settings(capsys):
    code, out, _ = _run(capsys, "tune", "--algo", "gd", "--spectrum",
                        "1,5,10", "--sigma", "2", "--sigma-mode",
                        "equals-alpha")
    assert code == 0
    assert json.loads(out)["config"] == {
        "command": "tune", "spectrum": "1,5,10", "cap_constant": 1.0,
        "sigma_mode": "equals_alpha"}
    code, out, _ = _run(capsys, "tune", "--algo", "gd", "--spectrum",
                        "1,5,10", "--sigma", "2")
    assert code == 0
    assert json.loads(out)["config"] == {
        "command": "tune", "spectrum": "1,5,10", "cap_constant": 1.0,
        "sigma": 2.0, "sigma_mode": "fixed"}


@pytest.mark.parametrize("argv", [
    ("analyze", "--algo", "gd", "--spectrum", "1,4"),
    ("simulate", "--algo", "hb", "--spectrum", "1,4", "--steps", "100"),
    ("tune", "--algo", "hb", "--spectrum", "1,4"),
])
def test_sigma_is_not_echoed_where_it_does_nothing(capsys, argv):
    # Under --sigma-mode equals-alpha the noise scale is alpha: --sigma
    # changes no number, so the report, config included, is the same.
    reports = []
    for sigma in ((), ("--sigma", "5")):
        code, out, _ = _run(capsys, *argv, "--sigma-mode", "equals-alpha",
                            *sigma)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert "sigma" not in reports[0]["config"]
    assert reports[0]["config"]["sigma_mode"] == "equals_alpha"


def test_simulate_echoes_delta_only_for_pseudo_huber(capsys):
    argv = ("simulate", "--algo", "hb", "--spectrum", "1,4", "--steps",
            "100", "--sigma", "0.5")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert "delta" not in config
    # The keys that bench/checks.py rebuilds the AlgoConfig from.
    assert {"algo", "alpha", "beta", "sigma", "sigma_mode"} <= set(config)
    assert config["sigma"] == 0.5
    code, out, _ = _run(capsys, *argv, "--objective", "pseudo-huber",
                        "--delta", "0.25")
    assert code == 0
    assert json.loads(out)["config"]["delta"] == 0.25


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


@pytest.mark.parametrize("argv, message", [
    (("--alpha", "0.1", "--beta", "0.5"),
     "--alpha/--beta only combine with --params explicit"),
    (("--params", "table2", "--beta", "0.5"),
     "--alpha/--beta only combine with --params explicit"),
    (("--params", "explicit", "--beta", "0.5"),
     "--params explicit requires --alpha"),
    (("--params", "table1"), "invalid choice: 'table1'"),
])
def test_consensus_parameter_flags_behave_like_analyze(capsys, argv,
                                                       message):
    code, out, err = _run(capsys, "consensus", "--algo", "hb", "--torus",
                          "2,8", *argv)
    assert code == 2 and out == "" and message in err
    if "table1" not in argv:  # analyze also takes table1
        assert _run(capsys, "analyze", "--algo", "hb", "--torus", "2,8",
                    *argv) == (code, out, err)


def test_consensus_echoes_the_config_analyze_resolves(capsys):
    # Both commands resolve --algo, --params and the noise flags on the
    # same torus spectrum, and consensus's J-bar is analyze's J.
    for params in ((), ("--params", "explicit", "--alpha", "0.2",
                        "--beta", "0.3")):
        argv = ("--algo", "hb", "--torus", "2,8", "--sigma", "2", *params)
        code, out, _ = _run(capsys, "consensus", *argv)
        assert code == 0
        consensus = json.loads(out)
        code, out, _ = _run(capsys, "analyze", *argv)
        analyze = json.loads(out)
        assert consensus["config"] == {**analyze["config"],
                                       "command": "consensus"}
        assert consensus["config"]["sigma"] == 2.0
        assert consensus["config"]["sigma_mode"] == "fixed"
        assert consensus["jbar"] == analyze["J"]


def test_consensus_enumerates_the_torus_once(capsys, monkeypatch):
    # One pass over the modes gives J-bar; the table2 tuning reads the
    # extremes alone, and no spectrum is built.
    import noiseamp.consensus
    calls = []
    original = noiseamp.consensus.torus_modes

    def counted(t):
        calls.append(t)
        return original(t)

    def refused(t):
        raise AssertionError("consensus built a torus spectrum")

    monkeypatch.setattr(noiseamp.consensus, "torus_modes", counted)
    monkeypatch.setattr(noiseamp.cli, "torus_spectrum", refused)
    monkeypatch.setattr(noiseamp.consensus, "torus_spectrum", refused)
    code, _, _ = _run(capsys, "consensus", "--algo", "na", "--torus", "2,16")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv, err, events", [
    (("--algo", "gd", "--torus", "2,8", "--params", "explicit", "--alpha",
      "1.5"),
     {"error": "Unstable", "message": "iteration is unstable: eigenvalue "
      "8.0 gives spectral radius 11.0 >= 1"}, ["check_stable"]),
    # sigma^2 overflows on the first chunk, after the stability check.
    (("--algo", "gd", "--torus", "2,64", "--sigma", "1e200"),
     {"error": "OverflowError",
      "message": "(34, 'Numerical result out of range')"},
     ["check_stable", "torus_modes"]),
    (("--algo", "gd", "--torus", "1,10000001"),
     {"error": "SizeOverflow", "message": "torus with 10000001^1 nodes "
      "exceeds the supported size 10000000"}, []),
])
def test_consensus_errors_precede_the_modes(capsys, monkeypatch, argv, err,
                                            events):
    # Each is one JSON line on stderr, and no mode is enumerated before
    # the stability check.
    import noiseamp.consensus
    seen = []

    def recorded(name):
        original = getattr(noiseamp.consensus, name)

        def wrapper(*args):
            seen.append(name)
            return original(*args)
        monkeypatch.setattr(noiseamp.consensus, name, wrapper)

    recorded("check_stable")
    recorded("torus_modes")
    code, out, stderr = _run(capsys, "consensus", *argv)
    assert code == 3 and out == ""
    assert stderr == json.dumps(err) + "\n"
    assert seen == events


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


@pytest.mark.parametrize("problem", [
    ("--algo", "na", "--spectrum", "1,10"),
    ("--algo", "na", "--spectrum", "1,10", "--replicates", "4"),
    ("--algo", "gd", "--kappa", "5", "--n", "3"),
])
def test_simulate_reports_the_z_score_of_j_hat(capsys, problem):
    argv = ("simulate", *problem, "--steps", "5000", "--seed", "4")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["j_hat_z"] == ((rep["j_hat"] - rep["j_exact"])
                              / rep["j_hat_stderr"])
    if "--replicates" not in problem:  # an ensemble's CSV is its per_step
        code, out, _ = _run(capsys, *argv, "--format", "csv")
        rows = dict(list(csv.reader(io.StringIO(out)))[1:])
        assert float(rows["j_hat_z"]) == rep["j_hat_z"]


@pytest.mark.parametrize("extra", [("--steps", "99"),
                                   ("--steps", "500", "--sigma", "0")])
def test_simulate_z_score_is_null_without_a_standard_error(capsys, extra):
    code, out, _ = _run(capsys, "simulate", "--algo", "hb", "--spectrum",
                        "1,10", *extra)
    rep = json.loads(out)
    assert code == 0 and not rep["j_hat_stderr"]
    assert rep["j_hat_z"] is None
    code, out, _ = _run(capsys, "simulate", "--algo", "hb", "--spectrum",
                        "1,10", *extra, "--format", "csv")
    assert ["j_hat_z", ""] in list(csv.reader(io.StringIO(out)))


def test_pseudo_huber_simulate_has_no_z_score(capsys):
    code, out, _ = _run(capsys, "simulate", "--algo", "hb", "--spectrum",
                        "1,10", "--steps", "500", "--objective",
                        "pseudo-huber")
    assert code == 0 and "j_hat_z" not in json.loads(out)


@pytest.mark.parametrize("argv", [
    ("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps",
     "10000000000000"),
    ("simulate", "--algo", "gd", "--kappa", "10", "--n", "1000000000000",
     "--steps", "10"),
    ("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps", "10",
     "--replicates", "1000000000000"),
    ("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps", "10",
     "--replicates", "1000000000000", "--objective", "pseudo-huber"),
    ("analyze", "--algo", "gd", "--kappa", "10", "--n", "1000000000000"),
    ("tune", "--algo", "hb", "--kappa", "10", "--n", "10000001"),
    ("bounds", "--algo", "gd", "--kappa", "4", "--n", "10000001"),
    ("bounds", "--algo", "gd", "--kappa", "1e6", "--n", str(10 ** 300)),
    ("certify", "--algo", "na", "--kappa", "1e6", "--n", str(10 ** 300)),
    ("certify", "--algo", "na", "--kappa", "1e6", "--n", str(10 ** 310)),
])
def test_oversized_requests_are_domain_errors(capsys, argv):
    # Each is refused before its arrays are allocated (they would take
    # terabytes), as one JSON error and exit 3.
    code, out, err = _run(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "SizeOverflow"


@pytest.mark.parametrize("n0", ["8,8,8,8", "8,16,16,32,64"])
def test_sweep_repeated_sizes_are_a_usage_error(capsys, n0):
    # A repeated size adds no point to the fit (numpy warned that it was
    # poorly conditioned); it fails before any lattice is summed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "sweep", "--algo", "gd", "--d", "1",
                              "--n0", n0)
    assert caught == []
    assert code == 2 and out == ""
    assert "repeated lattice sizes" in err


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


def test_sweep_echoes_sigma(capsys):
    code, out, _ = _run(capsys, "sweep", "--algo", "gd", "--d", "1",
                        "--n0", "8,16,32,64", "--sigma", "0.5")
    assert code == 0
    assert json.loads(out)["config"] == {
        "command": "sweep", "d": 1, "n0": "8,16,32,64", "sigma": 0.5}


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "bounds", "--algo", "gd", "--kappa", "4",
                        "--n", "2", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 2


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys,
                                                     target):
    # A missing directory and a path that is a directory: one error line,
    # no traceback and no report on stdout.
    code, out, err = _run(capsys, "bounds", "--algo", "gd", "--kappa", "4",
                          "--n", "2", "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out ")
    assert err.count("\n") == 1


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
    ("tune", "--algo", "na", "--kappa", "1e29", "--n", "3"),
    # kappa = 1e300 / 1e-300 overflows to inf and the tuned momentum is NaN.
    ("analyze", "--algo", "hb", "--spectrum", "1e300,1e-300"),
    ("analyze", "--algo", "na", "--spectrum", "1e300,1e-300"),
    ("analyze", "--algo", "na", "--spectrum", "1e300,1e-300", "--params",
     "table1"),
    ("simulate", "--algo", "hb", "--spectrum", "1e300,1e-300", "--steps",
     "10"),
    ("simulate", "--algo", "na", "--spectrum", "1e300,1e-300", "--steps",
     "10"),
    ("simulate", "--algo", "na", "--spectrum", "1e300,1e-300", "--params",
     "table1", "--steps", "10"),
    ("tune", "--algo", "na", "--spectrum", "1e300,1e-300"),
])
def test_huge_kappa_is_a_domain_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "KappaTooLarge"


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in report")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["gd", "na"]),
       st.floats(0.0, 15.0).map(lambda e: 10.0 ** e),
       st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e))
@example("gd", 4.0, 1e-310)   # m (2 L - m) underflows to 0
@example("gd", 4.0, 1e-323)   # m = L / kappa underflows to 0
@example("na", 1e10, 1e-300)  # lambda1, lambda2 and the bound overflow
@example("na", 100.0, 1e-290)  # (kappa / L) ** 2 overflows
def test_certify_at_any_L_is_strict_json_or_a_domain_error(algo, kappa, L):
    for extra in ([], ["--refine", "20"]):
        code, out, err = _run_all(["certify", "--algo", algo, "--kappa",
                                   repr(kappa), "--L", repr(L), *extra])
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert (code, out) == (3, ""), err
            assert set(json.loads(err)) == {"error", "message"}


@pytest.mark.parametrize("algo, kappa", [("gd", "1e14"), ("hb", "1e10"),
                                         ("hb", "1e27"), ("na", "1e10")])
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


def test_unstable_simulate_draws_no_noise(capsys, monkeypatch):
    # rho = 1 passes the step-size gate (alpha L = 2 < 4) and would not
    # diverge: the stability check must come before the 3e7-step run.
    def refused(*args, **kwargs):
        raise AssertionError("noise drawn for an unstable run")

    monkeypatch.setattr(montecarlo, "standard_normals", refused)
    code, out, err = _run(capsys, "simulate", "--algo", "gd", "--spectrum",
                          "1", "--params", "explicit", "--alpha", "2",
                          "--steps", "30000000")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "Unstable", "message": "iteration is unstable: eigenvalue "
        "1.0 gives spectral radius 1.0 >= 1"}


@pytest.mark.parametrize("argv", [
    # sigma^2 times the variance at lambda = 1 leaves double range
    ("analyze", "--algo", "gd", "--spectrum", "1,1e10", "--sigma", "1e150"),
    ("tune", "--algo", "gd", "--spectrum", "1,1e10", "--sigma", "1e150"),
    ("tune", "--algo", "hb", "--spectrum", "1,1e10", "--sigma", "1e150"),
    # every J_hat lambda term overflows, while J does not
    ("analyze", "--algo", "gd", "--spectrum", "1e200,1e210", "--sigma",
     "1e50"),
    # finite per-mode terms whose count-weighted sum overflows
    ("consensus", "--algo", "gd", "--torus", "2,1000", "--sigma", "1e151"),
    # an infinite term beside finite ones whose products with their counts
    # overflow
    ("consensus", "--algo", "hb", "--torus", "2,64", "--sigma", "1e153"),
    ("analyze", "--algo", "hb", "--torus", "2,64", "--sigma", "1e153"),
])
def test_overflowing_j_is_a_domain_error(capsys, tmp_path, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    assert caught == []
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "VarianceOverflow"
    # Every number is computed before --out is opened.
    path = tmp_path / "report.json"
    assert run([*argv, "--out", str(path)]) == 3 and not path.exists()


@pytest.mark.parametrize("source", [("--spectrum", "1,1e10"),
                                    ("--kappa", "1e10", "--n", "50")])
def test_huge_step_pseudo_huber_diverges_without_warning(capsys, source):
    # No quadratic bound applies, so the run starts and diverges; both the
    # scalar stepping (n = 2) and the vector stepping (n = 50) overflow to
    # inf silently and exit with NonFinite.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "simulate", "--algo", "gd", *source,
                              "--objective", "pseudo-huber", "--params",
                              "explicit", "--alpha", "1e300")
    assert caught == []
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "NonFinite"


# The argv fuzzer: each subcommand with its required flags, one problem
# source where it takes one, and up to four more of its flags, one in ten
# of them foreign to it.  One value in ten is hostile.  Sizes stay small
# (n <= 20, steps <= 1000, torus n0 <= 16, refine <= 50) so that every
# call is quick.
_HOSTILE = ["-1", "0", "-0.5", "nan", "inf", "-inf", "", "x", "1e300",
            "-1e-300", "1,2"]
_VALUES = {
    "--algo": ["gd", "hb", "na"],
    "--spectrum": ["1,4", "1,9,25", "3,4", "1,1e10", "0,1", "-1,2", "1",
                   "1e-300,1", "1e-310,2e-310", "1,nan", "a,b"],
    "--kappa": ["1", "4", "100", "1e6", "0.5", "1e20"],
    "--n": ["1", "2", "5", "20"],
    "--torus": ["1,8", "2,8", "2,16", "3,8", "2", "0,5", "6,3", "2,2"],
    "--params": ["table1", "table2", "explicit"],
    "--alpha": ["0.1", "0.5", "1e-9", "3", "1e300"],
    "--beta": ["0.3", "0.99", "1", "-0.1"],
    "--sigma": ["1", "0.5", "0", "1e200"],
    "--sigma-mode": ["fixed", "equals-alpha"],
    "--format": ["json", "csv"],
    "--steps": ["1", "10", "1000", "0", "-5"],
    "--replicates": ["1", "2", "3", "0", "-1"],
    "--seed": ["0", "7", "-3"],
    "--objective": ["quadratic", "pseudo-huber"],
    "--delta": ["1", "0.1", "0", "-1"],
    "--cap-constant": ["1", "0.5", "3", "20", "0"],
    "--L": ["1", "1e-3", "0", "-2"],
    "--refine": ["0", "5", "50", "-5"],
    "--d": ["1", "2", "3", "0", "6"],
    "--n0": ["8,12,16,4", "8,16", "4,5,6,7", "8,x", "3,4,5,16", ""],
    "--nope": ["1"],
}
_PROBLEM = ["--spectrum", "--kappa", "--n", "--torus"]
_CONFIG = ["--params", "--alpha", "--beta", "--sigma", "--sigma-mode"]
# Required flags, then the other flags of each subcommand.
_COMMANDS = {
    "analyze": (["--algo"], _PROBLEM + _CONFIG + ["--format"]),
    "bounds": (["--algo", "--kappa", "--n"], ["--format"]),
    "certify": (["--algo", "--kappa"], ["--L", "--n", "--refine",
                                        "--format"]),
    "tune": (["--algo"], _PROBLEM + ["--cap-constant", "--sigma",
                                     "--sigma-mode", "--format"]),
    "consensus": (["--algo", "--torus"], _CONFIG[:-1] + ["--format"]),
    # simulate's default of 100,000 steps is not small
    "simulate": (["--algo", "--steps"],
                 _PROBLEM + _CONFIG + ["--replicates", "--seed", "--objective",
                                       "--delta", "--format"]),
    "sweep": (["--algo", "--d", "--n0"], ["--sigma", "--format"]),
    "nope": ([], []),
}
_SOURCES = [["--spectrum"], ["--kappa", "--n"], ["--torus"]]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    flags = list(required)
    if "--spectrum" in optional:
        flags += draw(st.sampled_from(_SOURCES))
    foreign = sorted(set(_VALUES) - set(optional) - {"--steps"})
    for _ in range(draw(st.integers(0, 4))):
        own = optional and draw(st.integers(0, 9)) > 0
        flags.append(draw(st.sampled_from(optional if own else foreign)))
    argv = [command]
    for flag in flags:
        hostile = flag != "--steps" and draw(st.integers(0, 9)) == 0
        argv += [flag, draw(st.sampled_from(_HOSTILE if hostile
                                            else _VALUES[flag]))]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    # Any argv ends in exit 0, 2 or 3 without a traceback or a
    # RuntimeWarning (an error under this suite's warning filter);
    # a domain error (3) writes one JSON object to stderr and no report.
    code, out, err = _run_all(argv)
    assert code in (0, 2, 3), (argv, code)
    if code == 3:
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert out == ""


# Every subcommand's options: option string -> (dest, default, type,
# choices, required), in parser order.
_OUTPUT = {"--format": ("format", "json", None, ["json", "csv"], False),
           "--out": ("out", None, None, None, False)}
_SOURCE = {"--spectrum": ("spectrum", None, None, None, False),
           "--kappa": ("kappa", None, float, None, False),
           "--n": ("n", None, int, None, False),
           "--torus": ("torus", None, None, None, False)}
_ALGO = {"--algo": ("algo", None, None, ["gd", "hb", "na"], True)}
_STEP = {"--alpha": ("alpha", None, float, None, False),
         "--beta": ("beta", None, float, None, False)}
_SIGMA = {"--sigma": ("sigma", 1.0, float, None, False)}
_SIGMA_MODE = {"--sigma-mode": ("sigma_mode", "fixed", None,
                                ["fixed", "equals-alpha"], False)}
_PRESETS = {"--params": ("params", "table2", None,
                         ["table1", "table2", "explicit"], False)}
_SURFACE = {
    "analyze": {**_OUTPUT, **_SOURCE, **_ALGO, **_PRESETS, **_STEP,
                **_SIGMA, **_SIGMA_MODE},
    "bounds": {**_ALGO, "--kappa": ("kappa", None, float, None, True),
               "--n": ("n", None, int, None, True), **_OUTPUT},
    "certify": {"--algo": ("algo", None, None, ["gd", "na"], True),
                "--kappa": ("kappa", None, float, None, True),
                "--L": ("L", 1.0, float, None, False),
                "--n": ("n", 1, int, None, False),
                "--refine": ("refine", 0, int, None, False), **_OUTPUT},
    "tune": {**_ALGO, **_SOURCE,
             "--cap-constant": ("cap_constant", 1.0, float, None, False),
             **_SIGMA, **_SIGMA_MODE, **_OUTPUT},
    "consensus": {**_ALGO, "--torus": ("torus", None, None, None, True),
                  "--params": ("params", "table2", None,
                               ["table2", "explicit"], False),
                  **_STEP, **_SIGMA, **_OUTPUT},
    "simulate": {**_OUTPUT, **_SOURCE, **_ALGO, **_PRESETS, **_STEP,
                 **_SIGMA, **_SIGMA_MODE,
                 "--steps": ("steps", 100_000, int, None, False),
                 "--replicates": ("replicates", 1, int, None, False),
                 "--seed": ("seed", 0, int, None, False),
                 "--objective": ("objective", "quadratic", None,
                                 ["quadratic", "pseudo-huber"], False),
                 "--delta": ("delta", 1.0, float, None, False)},
    "sweep": {**_ALGO, "--d": ("d", None, int, None, True),
              "--n0": ("n0", None, None, None, True), **_SIGMA, **_OUTPUT},
}


def test_parser_surface_is_pinned():
    # Adding, dropping or retyping a flag, or changing a default, fails
    # here; so does a flag that the fuzzer's table does not exercise.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_SURFACE)
    for command, parser in sub.choices.items():
        options = [a for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert [(a.option_strings, a.dest, a.default, a.type, a.choices,
                 a.required) for a in options] == [
            ([flag], *spec) for flag, spec in _SURFACE[command].items()
        ], command
        required, optional = _COMMANDS[command]
        assert set(_SURFACE[command]) == {*required, *optional, "--out"}


# The reference report writer: json.dumps with indent=2, and the report
# flattened to field,value rows through csv.writer, each array as its list
# and each Records table as the list of its records' dicts.  cli._emit
# writes the same bytes column-wise.
def _expanded(obj):
    """``obj`` with every array as its list and every Records table
    expanded to a list of dicts."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Records):
        columns = {k: c.tolist() if isinstance(c, np.ndarray) else list(c)
                   for k, c in obj.columns.items()}
        return [{k: c[i] for k, c in columns.items()}
                for i in range(len(obj))]
    if isinstance(obj, dict):
        return {k: _expanded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_expanded, obj))
    return obj


def _reference_flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reference_flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reference_flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _reference_text(report, fmt):
    report = _expanded(report)
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["field", "value"])
    rows = []
    _reference_flatten("", report, rows)
    writer.writerows(rows)
    return buf.getvalue()


def _emitted_text(report, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, argparse.Namespace(format=fmt, out=None))
    return out.getvalue()


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1e308, math.nan,
                   math.inf, -math.inf]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_strings = st.one_of(st.text(max_size=6),
                     st.sampled_from(['a"b', "a,b", "a\nb", "a\rb", " a ",
                                      "é", "日本", "%s", "%d%%", ""]))
_leaf_values = st.one_of(
    _floats, _floats.map(np.float64), _strings, st.booleans(), st.none(),
    st.integers(-10, 10), st.integers(-2 ** 80, 2 ** 80),
    st.just(np.int64(7)))  # not JSON: json.dumps raises TypeError
_keys = st.one_of(_strings, st.integers(-3, 3), st.booleans(), st.none(),
                  st.sampled_from([1.5, math.inf, math.nan]),
                  st.just((1, 2)))  # not a JSON key: TypeError


@st.composite
def _record_lists(draw, values):
    """Dicts that share their keys in one order, one of them perturbed."""
    keys = draw(st.lists(_keys, max_size=4))
    records = [{k: draw(values) for k in keys}
               for _ in range(draw(st.integers(0, 5)))]
    if records and keys and draw(st.booleans()):
        i = draw(st.integers(0, len(records) - 1))
        change = draw(st.sampled_from(["reorder", "extra", "drop", "nest"]))
        rec = records[i]
        if change == "reorder":
            records[i] = dict(reversed(list(rec.items())))
        elif change == "extra":
            rec[draw(_keys)] = draw(values)
        elif change == "drop":
            del rec[next(iter(rec))]
        else:
            rec[next(iter(rec))] = draw(st.lists(values, max_size=2))
    return records


# Typed array columns, whose dtype may decide how the writer formats them.
_DTYPED = {np.float64: _floats, np.int64: st.integers(-2 ** 63, 2 ** 63 - 1),
           np.bool_: st.booleans(), object: _leaf_values}


@st.composite
def _tables(draw):
    """Records with 0, 1, 2 or more than RECORDS_PER_WRITE records.  A
    column holds floats, ints, strs or any leaves, as a list or a numpy
    array, with at most one odd leaf in it; or it is a float64 (nan, +-inf,
    -0.0 and 5e-324 included), int64, bool or object array, with at most
    one other value of its kind in it (a nan in one chunk only, say)."""
    size = draw(st.sampled_from([0, 1, 2, RECORDS_PER_WRITE + 2]))
    columns = {}
    for key in draw(st.lists(_strings, max_size=3, unique=True)):
        if draw(st.booleans()):
            dtype = draw(st.sampled_from(list(_DTYPED)))
            kind = _DTYPED[dtype]
            column = np.array(
                (draw(st.lists(kind, min_size=1, max_size=3)) * size)[:size],
                dtype=dtype)
            if size and draw(st.booleans()):
                column[draw(st.integers(0, size - 1))] = draw(kind)
            columns[key] = column
            continue
        kind = draw(st.sampled_from(
            [_floats, st.integers(-2 ** 70, 2 ** 70), _strings,
             _leaf_values]))
        column = (draw(st.lists(kind, min_size=1, max_size=3)) * size)[:size]
        if column and draw(st.booleans()):
            column[draw(st.integers(0, size - 1))] = draw(_leaf_values)
        columns[key] = np.array(column) if draw(st.booleans()) else column
    return Records(columns)


@st.composite
def _float_arrays(draw):
    """1-D float arrays of 0, 1, 2 or more than RECORDS_PER_WRITE values,
    non-finite ones included."""
    size = draw(st.sampled_from([0, 1, 2, RECORDS_PER_WRITE + 2]))
    values = draw(st.lists(_floats, min_size=1, max_size=3))
    return np.array((values * size)[:size], dtype=float)


def _containers(children):
    lists = st.lists(children, max_size=4)
    return st.one_of(lists, lists.map(tuple),
                     st.dictionaries(_keys, children, max_size=4),
                     _record_lists(children),
                     st.lists(_floats, max_size=6), _float_arrays())


_reports = st.recursive(st.one_of(_leaf_values, _tables()), _containers,
                        max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_reports)
@example({"per_mode": [{"lambda": v, "j_hat": v, "count": 2}
                       for v in _SPECIAL_FLOATS],
          "floats": _SPECIAL_FLOATS, "np": [np.float64(v) for v in
                                            _SPECIAL_FLOATS]})
@example({"a,b": [{"x": 1.0}, {"x": 2.0}], 'q"': [1.0], "n\nl": [{"%": 1}],
          "%d": [{"%s": 0.5, "y": 1}, {"%s": 1.5, "y": 2}], "empty": [],
          "one": [{"k": 1.0}], "none": {}, "big": [2 ** 64, -2 ** 70]})
@example({"per_mode": Records({
    "lambda": np.array(_SPECIAL_FLOATS), "j_hat": _SPECIAL_FLOATS,
    "count": np.arange(-5, 5), "%s": ['a"b', "a,b", "a\nb", "a\rb", " a ",
                                      "é", "日本", "%s", "%d%%", ""]}),
    "a,b": Records({"x": [1.0], "%d": [2]}), "none": Records({}),
    "empty": Records({"x": np.array([]), "y": []})})
@example({"big": Records({
    "lambda": np.linspace(0.1, 1.0, RECORDS_PER_WRITE + 7),
    "count": np.arange(RECORDS_PER_WRITE + 7), "s": ["a"] * 7 + [
        'q"%'] * RECORDS_PER_WRITE}), "odd": Records({
    "x": [0.5] * (RECORDS_PER_WRITE + 1) + [math.nan],
    "y": [1] * RECORDS_PER_WRITE + [True, None]})})
@example({"typed": Records({
    "f": np.array([0.5, -0.0, 5e-324] * RECORDS_PER_WRITE + [math.inf]),
    "i": np.arange(-2 ** 63, -2 ** 63 + 3 * RECORDS_PER_WRITE + 1),
    "b": np.ones(3 * RECORDS_PER_WRITE + 1, bool),
    "o": np.array([1.5, None, "s"] * RECORDS_PER_WRITE + [2], object)}),
    "nan": np.array([1.0] * RECORDS_PER_WRITE + [math.nan, -math.inf])})
def test_report_writer_matches_the_reference(report):
    # The JSON and CSV texts are byte for byte the reference's, or both
    # raise the same exception type.
    for fmt in ("json", "csv"):
        assert (_outcome(_emitted_text, report, fmt)
                == _outcome(_reference_text, report, fmt)), fmt


def _analyze_report(argv):
    """The parsed args and the report of an ``analyze`` argv."""
    args = build_parser().parse_args(argv)
    s = _resolve_spectrum(args)
    cfg = _resolve_config(args, s)
    return args, {"config": _config_echo(args, cfg),
                  **variance_amplification(cfg, s).to_dict()}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_torus_report_matches_the_reference_writer(fmt):
    argv = ["analyze", "--algo", "hb", "--torus", "2,24", "--format", fmt]
    _, report = _analyze_report(argv)
    modes = report["per_mode"]
    assert list(modes.columns) == ["lambda", "j_hat", "count"]
    code, out = _run_stdout(argv)
    assert code == 0
    assert out == _reference_text(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writing_a_report_holds_one_chunk_at_a_time(fmt, tmp_path):
    # The writer formats RECORDS_PER_WRITE records at a time straight into
    # --out, so its peak allocation does not grow with the mode count.
    def peak(torus):
        args, report = _analyze_report(
            ["analyze", "--algo", "gd", "--torus", torus, "--format", fmt,
             "--out", str(tmp_path / "report")])
        tracemalloc.start()
        try:
            _emit(report, args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak("2,200"), peak("2,800")  # 5,150 and 80,600 modes
    assert large <= 1.25 * small, (small, large)


def test_ensemble_traces_are_written_a_chunk_at_a_time(tmp_path):
    # An ensemble report hands its per-step arrays to the writer, which
    # converts RECORDS_PER_WRITE values at a time: the peak allocation of
    # building and writing the report stays far below one trace's size.
    steps = 1 << 20
    trace = np.linspace(0.0, 1.0, steps + 1)
    res = SimResult(j_hat=0.5, steps=steps, replicates=2, seed=0,
                    per_step=trace, per_step_stderr=trace * 0.5,
                    j_hat_stderr=0.01)
    for fmt in ("json", "csv"):
        args = argparse.Namespace(format=fmt, out=str(tmp_path / "r"))
        tracemalloc.start()
        try:
            _emit(res.to_dict(), args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace.nbytes / 4, (fmt, peak)


def _leaves_only_json_writes(obj, leaves):
    """The bool, None and non-finite float leaves of a report, in order."""
    if isinstance(obj, dict):
        for v in obj.values():
            _leaves_only_json_writes(v, leaves)
    elif isinstance(obj, list):
        for v in obj:
            _leaves_only_json_writes(v, leaves)
    elif obj is None or isinstance(obj, bool) or (
            isinstance(obj, float) and not math.isfinite(obj)):
        leaves.append(obj)
    return leaves


@pytest.mark.parametrize("argv", [
    ("analyze", "--algo", "hb", "--torus", "2,64"),
    ("sweep", "--algo", "na", "--d", "2", "--n0", "8,16,24,32"),
    ("simulate", "--algo", "hb", "--spectrum", "1,4,9", "--steps", "200",
     "--replicates", "3"),
    ("simulate", "--algo", "gd", "--spectrum", "1,4", "--steps", "50",
     "--sigma", "0"),  # j_hat_z is null
    ("certify", "--algo", "na", "--kappa", "10"),  # valid is true
])
def test_real_reports_stay_on_the_column_path(capsys, monkeypatch, argv):
    # The writer hands json.dumps the leaves that it alone writes and no
    # list: per-mode tables and per-step traces are written a column at a
    # time, and sweep rows (list columns, str ones among them) record by
    # record through the scalar writes.
    passed = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        passed.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert not [o for o in passed if isinstance(o, (list, tuple)) and o]
    assert passed == _leaves_only_json_writes(json.loads(out), [])
