"""Correctness checks on the reports the benchmark's requests produce.

Every request's exit code and report are checked outside the timed region.
Reference values that cost real work (Lyapunov solves, torus sums, the
re-run of a simulation) are cached per request, so each distinct request
pays for its reference once per run.

The torus references are computed here from the lattice alone: the
spectrum is built one plane at a time and each mode's variance comes from
the companion form z^2 - b z - a shared by GD, HB and NA, not from the
per-method closed forms the program uses.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from noiseamp import (Algo, AlgoConfig, Quadratic, SigmaMode, make_spectrum,
                      propagate_covariance, simulate, variance_via_eigenvalues,
                      variance_via_lyapunov)
from noiseamp.lmi import gd_certificate, na_certificate

from workloads import Request

ROUTE_RTOL = 1e-10       # analyze: J against the Lyapunov and eigenvalue routes
TORUS_RTOL = 1e-9        # consensus/sweep: jbar against the harness's own sum
MAX_Z = 6.0              # simulate: |j_hat - j_exact| in standard errors
BATCHES = 20             # batch means for the standard error of j_hat
ENSEMBLE_POINTS = 4      # iterate indices checked against the recursion


class CheckFailed(Exception):
    """The report or exit code of one request is wrong."""


def _flags(argv) -> dict[str, str]:
    """``--name value`` pairs of an argv (every benchmark flag takes one)."""
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--")}


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rtol: float, what: str):
    _require(math.isfinite(got) and abs(got - want) <= rtol * abs(want),
             f"{what} = {got!r}, reference {want!r} (rtol {rtol:g})")


def _parse(text: str, fmt: str) -> Any:
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if header == ["field", "value"]:
        return {k: v for k, v in body}
    return [dict(zip(header, row)) for row in body]


def _torus_axis(n0: int) -> np.ndarray:
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(n0) / n0))


def _lattice_sums(axis: np.ndarray, dims: int) -> np.ndarray:
    """Every sum of ``dims`` axis values, one per lattice point."""
    out = np.zeros(1)
    for _ in range(dims):
        out = np.add.outer(out, axis).ravel()
    return out


def _companion(algo: str, alpha: float, beta: float, lams: np.ndarray):
    mu = alpha * lams
    if algo == "gd":
        return np.zeros_like(mu), 1.0 - mu
    if algo == "hb":
        return np.full_like(mu, -beta), 1.0 + beta - mu
    return -beta * (1.0 - mu), (1.0 + beta) * (1.0 - mu)


def _optimal(algo: str, m: float, L: float) -> tuple[float, float]:
    kappa = L / m
    if algo == "gd":
        return 2.0 / (L + m), 0.0
    if algo == "hb":
        r = math.sqrt(kappa)
        return 4.0 / (math.sqrt(L) + math.sqrt(m)) ** 2, ((r - 1) / (r + 1)) ** 2
    rb = math.sqrt(3.0 * kappa + 1.0)
    return 4.0 / (3.0 * L + m), (rb - 2.0) / (rb + 2.0)


def _torus_reference(algo: str, d: int, n0: int, sigma: float) -> dict:
    """jbar and kappa of ``algo`` at its quadratic-optimal tuning."""
    axis = _torus_axis(n0)
    m, L = float(axis[1]), d * float(axis.max())
    alpha, beta = _optimal(algo, m, L)
    rest = _lattice_sums(axis, d - 1)
    parts = []
    for a in axis:
        lams = a + rest
        lams = lams[lams > 0.0]
        ca, cb = _companion(algo, alpha, beta, lams)
        jhat = (1.0 - ca) / ((1.0 + ca) * (1.0 - cb - ca) * (1.0 + cb - ca))
        parts.append(math.fsum(jhat))
    return {"jbar": sigma * sigma * math.fsum(parts), "kappa": L / m}


def _spectrum_values(f: dict[str, str]) -> np.ndarray:
    if "--spectrum" in f:
        return np.array([float(v) for v in f["--spectrum"].split(",")])
    if "--torus" in f:
        d, n0 = (int(v) for v in f["--torus"].split(","))
        lams = _lattice_sums(_torus_axis(n0), d)
        return lams[lams > 0.0]
    return np.linspace(1.0, float(f["--kappa"]), int(f["--n"]))


def _config(rep: dict) -> AlgoConfig:
    return AlgoConfig(algo=Algo(rep["algo"]), alpha=float(rep["alpha"]),
                      beta=float(rep["beta"]), sigma=float(rep["sigma"]),
                      sigma_mode=SigmaMode(rep.get("sigma_mode", "fixed")))


class Checker:
    """Checks request outcomes; holds the per-run reference cache."""

    def __init__(self):
        self._refs: dict[Any, Any] = {}
        self._j_hat: dict[tuple[str, ...], float] = {}

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, req: Request, code: int, out: str, err: str) -> str | None:
        """Why the outcome of ``req`` is wrong, or None if it is correct."""
        try:
            self._check(req, code, out, err)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
        return None

    def _check(self, req: Request, code: int, out: str, err: str):
        _require(code == req.expect_exit,
                 f"exit {code}, expected {req.expect_exit}")
        if code == 3:
            lines = err.strip().splitlines()
            payload = json.loads(lines[-1]) if lines else {}
            _require(isinstance(payload, dict) and "error" in payload
                     and "message" in payload,
                     "exit 3 without a JSON error on stderr")
            return
        f = _flags(req.argv)
        rep = _parse(out, f.get("--format", "json"))
        getattr(self, "_" + req.argv[0])(req, f, rep)

    def _analyze(self, req, f, rep):
        cfg = AlgoConfig(algo=Algo(rep["algo"]), alpha=float(rep["alpha"]),
                         beta=float(rep["beta"]), sigma=float(rep["sigma"]))
        key = ("analyze", f.get("--spectrum"), f.get("--kappa"), f.get("--n"),
               f.get("--torus"), cfg)

        def routes():
            s = make_spectrum(_spectrum_values(f))
            return (variance_via_lyapunov(cfg, s),
                    variance_via_eigenvalues(cfg, s))
        lyap, eig = self._ref(key, routes)
        j = float(rep["J"])
        _close(j, lyap, ROUTE_RTOL, "J (Lyapunov route)")
        _close(j, eig, ROUTE_RTOL, "J (eigenvalue route)")

    def _bounds(self, req, f, rep):
        _require(0.0 < rep["lower"] <= rep["upper"] < math.inf,
                 f"bounds out of order: {rep['lower']!r}, {rep['upper']!r}")

    def _certify(self, req, f, rep):
        _require(rep["valid"] is True, "certificate not valid")
        algo, kappa = f["--algo"], float(f["--kappa"])
        L, n = float(f.get("--L", 1.0)), int(f.get("--n", 1))

        def closed_form():
            if algo == "gd":
                return gd_certificate(L / kappa, L, n=n)[1].bound
            return na_certificate(kappa, L, n=n)[1].bound
        closed = self._ref(("certify", algo, kappa, L, n), closed_form)
        _require(rep["bound"] <= closed,
                 f"refined bound {rep['bound']!r} exceeds closed-form "
                 f"bound {closed!r}")

    def _tune(self, req, f, rep):
        _require(0.0 < rep["J"] < math.inf, f"J = {rep['J']!r}")
        _require(rep["rho"] <= rep["rate_cap"],
                 f"rho {rep['rho']!r} exceeds the cap {rep['rate_cap']!r}")

    def _torus_row(self, algo, d, n0, sigma, row):
        ref = self._ref(("torus", algo, d, n0, sigma),
                        lambda: _torus_reference(algo, d, n0, sigma))
        _close(float(row["jbar"]), ref["jbar"], TORUS_RTOL,
               f"jbar on torus {d},{n0}")
        _close(float(row["kappa"]), ref["kappa"], TORUS_RTOL,
               f"kappa on torus {d},{n0}")
        _require(int(row["n"]) == n0 ** d, f"n = {row['n']}, want {n0 ** d}")

    def _consensus(self, req, f, rep):
        d, n0 = (int(v) for v in f["--torus"].split(","))
        self._torus_row(f["--algo"], d, n0, float(f.get("--sigma", 1.0)), rep)

    def _sweep(self, req, f, rep):
        rows = rep if isinstance(rep, list) else rep["rows"]
        sizes = sorted(int(v) for v in f["--n0"].split(","))
        _require([int(r["n0"]) for r in rows] == sizes,
                 "sweep rows do not match the requested sizes")
        for row in rows:
            self._torus_row(f["--algo"], int(f["--d"]), int(row["n0"]),
                            float(f.get("--sigma", 1.0)), row)

    def _simulate(self, req, f, rep):
        j_hat = float(rep["j_hat"])
        _require(0.0 < j_hat < math.inf, f"j_hat = {j_hat!r}")
        first = self._j_hat.setdefault(req.argv, j_hat)
        _require(j_hat == first,
                 f"j_hat {j_hat!r} differs from {first!r} for the same seed")
        if f.get("--objective") == "pseudo-huber":
            if "per_step" in rep:
                _require(all(math.isfinite(v) for v in rep["per_step"]),
                         "non-finite ensemble trace")
            return
        cfg = _config(rep["config"])
        s = make_spectrum(_spectrum_values(f))
        steps = int(f["--steps"])
        if "per_step" in rep:
            exact = self._ref(("transient", req.argv),
                              lambda: propagate_covariance(cfg, s, steps + 1))
            for t in np.linspace(steps / ENSEMBLE_POINTS, steps,
                                 ENSEMBLE_POINTS).astype(int):
                got, se = rep["per_step"][t], rep["per_step_stderr"][t]
                _require(abs(got - exact[t]) <= MAX_Z * se,
                         f"ensemble E|x|^2 at t={t} is {got!r}, recursion "
                         f"gives {exact[t]!r} (stderr {se!r})")
            return
        se = self._ref(("stderr", req.argv),
                       lambda: _batch_stderr(cfg, s, steps, int(f["--seed"]),
                                             j_hat))
        z = abs(j_hat - float(rep["j_exact"])) / se
        _require(z <= MAX_Z, f"j_hat {j_hat!r} is {z:.1f} standard errors "
                             f"from j_exact {rep['j_exact']!r}")


def _batch_stderr(cfg: AlgoConfig, s, steps: int, seed: int,
                  j_hat: float) -> float:
    """Batch-means standard error of j_hat, from a re-run of the trajectory.

    The re-run must also reproduce the reported j_hat bit for bit.
    """
    res = simulate(cfg, Quadratic(s), steps, seed, track_per_step=True)
    _require(res.j_hat == j_hat,
             f"re-run gives j_hat {res.j_hat!r}, the report {j_hat!r}")
    sq = res.per_step[1 if cfg.algo == Algo.GD else 2:]
    size = sq.size // BATCHES
    means = sq[:size * BATCHES].reshape(BATCHES, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(BATCHES))
