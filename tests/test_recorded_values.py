"""Outputs recorded before GD, HB and NA shared one two-step recursion.

For GD and HB the shared per-mode formulas do the same floating-point
operations as the per-method ones they replaced, so the values must match
bit for bit.  The one exception is HB's rate: the spectral radius formula
changed, and at a double root the float inputs fix the radius only to about
sqrt(eps).  NA's coefficients a = beta mu - beta and
b = 1 + beta - (1 + beta) mu round differently from the factored forms
-beta (1 - mu) and (1 + beta)(1 - mu), so NA agrees to rounding.  The
explicit pseudo-Huber step is bit-identical for every method.  The two
simulate values per method were re-recorded once, with the same
tolerances, when the noise generator changed from Box-Muller to a
ziggurat.  The GD and HB consensus values on the 64 x 64 torus were
re-recorded once, with the same tolerance, when mirror axis frequencies k
and n0 - k started to share one float (they rounded apart by an ulp), so
the spectrum holds one mode per multiset of distinct axis values: J-bar
moved by -1.15e-15 and -1.27e-15 relative.

The tune results were re-recorded once golden-section search stopped at a
bracket width relative to the bracket (it stopped at an absolute 1e-10
before, so small feasible steps got few iterations).  The closed-form
edges keep GD's interval bit for bit; for HB the golden-section tolerance
and the float rate near double roots allow 1e-8 relative in alpha and
1e-11 relative in J.  No tune may be worse than the J recorded with the
absolute stop.
"""

import numpy as np
import pytest

from noiseamp import (Algo, AlgoConfig, InfeasibleCap, PseudoHuber,
                      Quadratic, TorusSpec, consensus_variance, make_spectrum,
                      optimal_quadratic_params, propagate_covariance,
                      simulate, tune_constrained, variance_amplification)

SPECTRUM = [1.0, 2.5, 4.0, 9.0, 30.0]

# analyze (J, J_prime, rho) at the quadratic-optimal tuning, consensus
# (jbar, rho) on the 64 x 64 torus, and, at sigma = 0.7, the first five
# propagate_covariance entries and simulate j_hat (2000 steps, seed 3) on
# the quadratic and on a 3-dimensional pseudo-Huber objective (m=1, L=30).
RECORDED = {
    Algo.GD: {
        "analyze": (22.826517366648954, 276.5067605883397, 0.935483870967742),
        "consensus": (11120.386917935086, 0.9975952582083509),
        "propagate": [0.0, 2.4499999999999997, 4.008210197710718,
                      5.164838579739929, 6.07660753818327],
        "quadratic": 10.659545439062938,
        "huber": 1.723632406037495,
    },
    Algo.HB: {
        "analyze": (29.57899651551241, 358.30224894086956, 0.6912258224102302),
        "consensus": (45864.658213412244, 0.9329347317566126),
        "propagate": [0.0, 0.0, 2.4499999999999997, 5.8529324895023915,
                      8.676745286268737],
        "quadratic": 14.246917502796062,
        "huber": 2.5616108012047603,
    },
    Algo.NA: {
        "analyze": (52.8302827452641, 163.21125547124444, 0.7903430326556167),
        "consensus": (65534.57228230943, 0.9599444580096496),
        "propagate": [0.0, 0.0, 2.4499999999999997, 6.270736646252422,
                      10.3671411115553],
        "quadratic": 24.683589118482345,
        "huber": 2.149081873009057,
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


def _tune_spectrum(kappa, n, seed):
    """Extremes 1 and kappa, the other eigenvalues log-uniform."""
    rng = np.random.default_rng(seed)
    return make_spectrum(np.concatenate([[1.0, kappa],
                                         kappa ** rng.random(n - 2)]))


# tune results (alpha, beta, J) for the benchmark's tune shapes (algo,
# kappa, n, cap constant) on _tune_spectrum(kappa, n, seed=index), and for
# the README's spectrum 1,5,25, each with the J recorded under the absolute
# golden-section stop.  None marks an infeasible cap.
RECORDED_TUNES = [
    (("gd", 10.0, 10, 0.5),
     (0.17015117056843373, 0.0, 18.492121641656585), 18.492121641656585),
    (("gd", 100.0, 30, 1.0),
     (0.01914922637298487, 0.0, 178.01318847914374), 178.0131884791437),
    (("gd", 1000.0, 50, 0.8),
     (0.0019742440819352476, 0.0, 1530.3162324636237), 1530.3162324636257),
    (("hb", 10.0, 50, 1.0),
     (0.2200638908802865, 0.22424548703875868, 82.76419379635658),
     82.7641937963566),
    (("hb", 100.0, 20, 1.0),
     (0.03102989101048361, 0.6207309809267754, 162.2042583684451),
     162.20425856053237),
    (("hb", 1000.0, 10, 0.5),
     (0.0034984147046541432, 0.7664278530909878, 1736.4938805846093),
     1736.4939269825286),
    (("gd", 300.0, 20, 3.0), None, None),
    (("hb", 300.0, 20, 3.0), None, None),
]
README_TUNE = ((0.09701564972488912, 0.4119374011253243, 13.676477203430617),
               13.676477204258623)


def _check_tune(res, want, j_absolute_stop):
    alpha, beta, j = want
    assert res.beta == beta
    assert res.alpha == pytest.approx(alpha, rel=1e-8, abs=0.0)
    assert res.j == pytest.approx(j, rel=1e-11, abs=0.0)
    assert res.j <= j_absolute_stop * (1.0 + 1e-12)
    assert res.rho <= res.rate_cap


@pytest.mark.parametrize("seed", range(len(RECORDED_TUNES)))
def test_tunes_match_recorded_values(seed):
    (algo, kappa, n, cap), want, j_absolute_stop = RECORDED_TUNES[seed]
    s = _tune_spectrum(kappa, n, seed)
    if want is None:
        with pytest.raises(InfeasibleCap):
            tune_constrained(Algo(algo), s, cap_constant=cap)
    else:
        _check_tune(tune_constrained(Algo(algo), s, cap_constant=cap), want,
                    j_absolute_stop)


def test_readme_tune_matches_recorded_value():
    res = tune_constrained(Algo.HB, make_spectrum([1.0, 5.0, 25.0]))
    _check_tune(res, *README_TUNE)
