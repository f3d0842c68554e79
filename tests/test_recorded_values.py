"""Outputs recorded before GD, HB and NA shared one two-step recursion.

For GD and HB the shared per-mode formulas do the same floating-point
operations as the per-method ones they replaced, so the values must match
bit for bit.  The one exception is HB's rate: the spectral radius formula
changed, and at a double root the float inputs fix the radius only to about
sqrt(eps).  NA's coefficients a = beta mu - beta and
b = 1 + beta - (1 + beta) mu round differently from the factored forms
-beta (1 - mu) and (1 + beta)(1 - mu), so NA agrees to rounding.  The
explicit pseudo-Huber step is bit-identical for every method.
"""

import numpy as np
import pytest

from noiseamp import (Algo, AlgoConfig, PseudoHuber, Quadratic, TorusSpec,
                      consensus_variance, make_spectrum,
                      optimal_quadratic_params, propagate_covariance,
                      simulate, variance_amplification)

SPECTRUM = [1.0, 2.5, 4.0, 9.0, 30.0]

# analyze (J, J_prime, rho) at the quadratic-optimal tuning, consensus
# (jbar, rho) on the 64 x 64 torus, and, at sigma = 0.7, the first five
# propagate_covariance entries and simulate j_hat (2000 steps, seed 3) on
# the quadratic and on a 3-dimensional pseudo-Huber objective (m=1, L=30).
RECORDED = {
    Algo.GD: {
        "analyze": (22.826517366648954, 276.5067605883397, 0.935483870967742),
        "consensus": (11120.386917935099, 0.9975952582083509),
        "propagate": [0.0, 2.4499999999999997, 4.008210197710718,
                      5.164838579739929, 6.07660753818327],
        "quadratic": 11.734648349691119,
        "huber": 1.727507705673564,
    },
    Algo.HB: {
        "analyze": (29.57899651551241, 358.30224894086956, 0.6912258224102302),
        "consensus": (45864.6582134123, 0.9329347317566126),
        "propagate": [0.0, 0.0, 2.4499999999999997, 5.8529324895023915,
                      8.676745286268737],
        "quadratic": 15.151591382445885,
        "huber": 2.473004276842524,
    },
    Algo.NA: {
        "analyze": (52.8302827452641, 163.21125547124444, 0.7903430326556167),
        "consensus": (65534.57228230943, 0.9599444580096496),
        "propagate": [0.0, 0.0, 2.4499999999999997, 6.270736646252422,
                      10.3671411115553],
        "quadratic": 27.12666891644211,
        "huber": 2.217308908477541,
    },
}

# Relative tolerance of the closed forms and of the quadratic simulation.
CLOSED_FORM_RTOL = {Algo.GD: 0.0, Algo.HB: 0.0, Algo.NA: 1e-13}
QUADRATIC_RTOL = {Algo.GD: 0.0, Algo.HB: 0.0, Algo.NA: 1e-12}


def _check_rate(algo, got, want):
    if algo == Algo.GD:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=0.0, abs=1e-7)


def _cfg(algo, sigma=1.0):
    p = optimal_quadratic_params(algo, min(SPECTRUM), max(SPECTRUM))
    return AlgoConfig(algo=algo, alpha=p.alpha, beta=p.beta, sigma=sigma)


@pytest.mark.parametrize("algo", list(Algo))
def test_closed_forms_match_recorded_values(algo):
    want = RECORDED[algo]
    rtol = CLOSED_FORM_RTOL[algo]
    rep = variance_amplification(_cfg(algo), make_spectrum(SPECTRUM))
    np.testing.assert_allclose([rep.j, rep.j_prime], want["analyze"][:2],
                               rtol=rtol, atol=0.0)
    _check_rate(algo, rep.rho, want["analyze"][2])
    rec = consensus_variance(algo, TorusSpec(d=2, n0=64))
    np.testing.assert_allclose(rec.jbar, want["consensus"][0], rtol=rtol,
                               atol=0.0)
    _check_rate(algo, rec.rho, want["consensus"][1])
    out = propagate_covariance(_cfg(algo, sigma=0.7),
                               make_spectrum(SPECTRUM), 5)
    np.testing.assert_allclose(out, want["propagate"], rtol=rtol, atol=0.0)


@pytest.mark.parametrize("algo", list(Algo))
def test_simulations_match_recorded_values(algo):
    cfg = _cfg(algo, sigma=0.7)
    quad = simulate(cfg, Quadratic(make_spectrum(SPECTRUM)), 2000, seed=3)
    np.testing.assert_allclose(quad.j_hat, RECORDED[algo]["quadratic"],
                               rtol=QUADRATIC_RTOL[algo], atol=0.0)
    huber = simulate(cfg, PseudoHuber(1.0, 30.0, 3), 2000, seed=3)
    assert huber.j_hat == RECORDED[algo]["huber"]
