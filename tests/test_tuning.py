import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noiseamp import (Algo, AlgoConfig, InfeasibleCap, KappaTooSmall,
                      NoGuarantee, SigmaMode, acceleration_floor,
                      conventional_params, convergence_rate,
                      hb_tradeoff_margin, make_spectrum,
                      modal_spectral_radius, modal_variance,
                      na_jhat_m_lower_bound, optimal_quadratic_params,
                      tune_constrained, variance_amplification)
from noiseamp.tuning import _step_interval


def test_conventional_params_values():
    p = conventional_params(Algo.GD, 1.0, 9.0)
    assert p.alpha == pytest.approx(1.0 / 9.0)
    assert p.rho == pytest.approx(math.sqrt(1.0 - 2.0 / 10.0))
    p = conventional_params(Algo.NA, 1.0, 9.0)
    assert p.alpha == pytest.approx(1.0 / 9.0)
    assert p.beta == pytest.approx(0.5)
    assert p.rho == pytest.approx(math.sqrt(1.0 - 1.0 / 3.0))
    with pytest.raises(NoGuarantee):
        conventional_params(Algo.HB, 1.0, 9.0)


def test_optimal_quadratic_params_values():
    p = optimal_quadratic_params(Algo.GD, 1.0, 9.0)
    assert p.alpha == pytest.approx(0.2)
    assert p.rho == pytest.approx(0.8)
    p = optimal_quadratic_params(Algo.HB, 1.0, 9.0)
    assert p.alpha == pytest.approx(4.0 / 16.0)
    assert p.beta == pytest.approx(0.25)
    assert p.rho == pytest.approx(0.5)
    p = optimal_quadratic_params(Algo.NA, 1.0, 9.0)
    rb = math.sqrt(28.0)
    assert p.alpha == pytest.approx(1.0 / 7.0)
    assert p.beta == pytest.approx((rb - 2.0) / (rb + 2.0))
    assert p.rho == pytest.approx((rb - 2.0) / rb)


def test_stated_rates_are_achieved_on_extremes():
    for algo in (Algo.GD, Algo.HB, Algo.NA):
        for kappa in (1.5, 9.0, 400.0):
            p = optimal_quadratic_params(algo, 1.0, kappa)
            cfg = AlgoConfig(algo=algo, alpha=p.alpha, beta=p.beta)
            rho = max(np.atleast_1d(
                modal_spectral_radius(cfg, np.array([1.0, kappa]))))
            # NA's optimal tuning puts lambda = m exactly on the branch
            # boundary of the radius formula, where square-root sensitivity
            # limits the attainable agreement to ~sqrt(eps).
            assert rho == pytest.approx(p.rho, rel=1e-7)


def test_tune_constrained_gd_respects_cap():
    s = make_spectrum([1.0, 3.0, 10.0])
    res = tune_constrained(Algo.GD, s, cap_constant=1.0)
    assert res.rho <= res.rate_cap + 1e-9
    # Loosening the cap cannot hurt the achieved variance.
    loose = tune_constrained(Algo.GD, s, cap_constant=0.1)
    assert loose.j <= res.j + 1e-9


def test_tune_constrained_gd_infeasible():
    s = make_spectrum([1.0, 10.0])
    with pytest.raises(InfeasibleCap):
        tune_constrained(Algo.GD, s, cap_constant=10.0)


def test_tune_constrained_hb():
    s = make_spectrum([1.0, 25.0])
    res = tune_constrained(Algo.HB, s, cap_constant=1.0)
    assert res.rho <= res.rate_cap + 1e-9
    # The quadratic-optimal tuning is feasible at c = 1, so the tuned J
    # cannot be worse than it.
    p = optimal_quadratic_params(Algo.HB, 1.0, 25.0)
    j_opt = variance_amplification(
        AlgoConfig(algo=Algo.HB, alpha=p.alpha, beta=p.beta), s).j
    assert res.j <= j_opt * (1 + 1e-9)
    with pytest.raises(InfeasibleCap):
        tune_constrained(Algo.HB, s, cap_constant=20.0)


# Relative margin around the slice edges, safe for r in [0.05, 0.99] and
# beta not within 1% of r^2.  Crossing the margin moves the rate at an edge
# by at least 1e-4 * EDGE_MARGIN (there mu >= (1 - r)^2), and away from a
# double root (|r^2 - beta| >= 0.01 r^2) its rounding error stays below
# 2e-12.  Above r^2 the rate is at least sqrt(beta) >= 1.005 r.  kappa and
# m do not enter these bounds; they vary the scan.
EDGE_MARGIN = 1e-6


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.floats(1.0, 1e4), st.floats(1e-3, 1e3), st.floats(0.05, 0.99),
       st.floats(0.0, 1.0, exclude_max=True))
def test_step_interval_matches_a_rate_scan(kappa, m, r, beta):
    assume(not 0.99 * r * r < beta < 1.01 * r * r)
    s = make_spectrum([m, kappa * m])

    def feasible(alpha):
        cfg = AlgoConfig(algo=Algo.HB, alpha=float(alpha), beta=beta)
        return convergence_rate(cfg, s) <= r

    edges = _step_interval(beta, r, s.m, s.L)
    scan = np.linspace(0.0, 2.0 * (1.0 + beta) / s.L, 401)[1:]
    if edges is None:
        assert not any(map(feasible, scan))
        return
    lo, hi = edges
    below, above = lo * (1.0 - EDGE_MARGIN), hi * (1.0 + EDGE_MARGIN)
    first, last = lo * (1.0 + EDGE_MARGIN), hi * (1.0 - EDGE_MARGIN)
    assert all(feasible(a) for a in [first, last, *scan]
               if first <= a <= last)
    assert not any(feasible(a) for a in [below, above, *scan]
                   if 0.0 < a and not below < a < above)


def test_gd_edges_are_the_zero_momentum_slice():
    # At beta = 0, h = r + beta / r keeps GD's edges bit for bit.
    r = 1.0 - 0.5 / 7.0
    assert _step_interval(0.0, r, 0.3, 2.1) == ((1.0 - r) / 0.3,
                                                 (1.0 + r) / 2.1)


def test_gd_half_factor_of_optimal_rate_tuning():
    # The variance-optimal GD step size loses at most a factor two relative
    # to the rate-optimal one on symmetric spectra.
    rng = np.random.default_rng(9)
    for _ in range(10):
        m, L = 1.0, float(rng.uniform(3.0, 50.0))
        inner = rng.uniform(m, L, size=4)
        s = make_spectrum(np.concatenate([[m, L], inner, m + L - inner]))
        res = tune_constrained(Algo.GD, s, cap_constant=0.01)
        p = optimal_quadratic_params(Algo.GD, m, L)
        j_rate = variance_amplification(
            AlgoConfig(algo=Algo.GD, alpha=p.alpha), s).j
        assert res.j >= 0.5 * j_rate - 1e-9
        assert res.j <= j_rate * (1 + 1e-9)


def test_hb_tradeoff_margin_nonnegative():
    rng = np.random.default_rng(10)
    s = make_spectrum([1.0, 40.0])
    for mode in (SigmaMode.FIXED, SigmaMode.EQUALS_ALPHA):
        count = 0
        while count < 200:
            beta = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(1e-4, 2.0 * (1.0 + beta) / 40.0))
            cfg = AlgoConfig(algo=Algo.HB, alpha=alpha, beta=beta,
                             sigma_mode=mode)
            if max(np.atleast_1d(
                    modal_spectral_radius(cfg, s.values))) >= 1 - 1e-9:
                continue
            margin = hb_tradeoff_margin(cfg, s)
            assert margin["product"] >= margin["floor"] - 1e-12
            assert margin["margin"] == pytest.approx(
                margin["product"] - margin["floor"])
            count += 1
    with pytest.raises(ValueError):
        hb_tradeoff_margin(AlgoConfig(algo=Algo.GD, alpha=0.1), s)


def test_na_smallest_mode_floor():
    rng = np.random.default_rng(12)
    count = 0
    while count < 300:
        kappa = float(rng.uniform(2.01, 1e4))
        beta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(1e-6, 2.0 / kappa))
        cfg = AlgoConfig(algo=Algo.NA, alpha=alpha, beta=beta)
        if max(np.atleast_1d(modal_spectral_radius(
                cfg, np.array([1.0, kappa])))) >= 1 - 1e-12:
            continue
        assert modal_variance(cfg, 1.0) >= na_jhat_m_lower_bound(kappa, beta)
        count += 1
    with pytest.raises(KappaTooSmall):
        na_jhat_m_lower_bound(2.0, 0.5)


def test_acceleration_floor():
    out = acceleration_floor(Algo.HB, 100.0, samples=500, seed=1)
    assert out["min_ratio"] > 0.0
    assert out["feasible"] >= 1
    with pytest.raises(InfeasibleCap):
        acceleration_floor(Algo.NA, 4.0, cap_constant=10.0, samples=10)
    with pytest.raises(ValueError):
        acceleration_floor(Algo.GD, 100.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([Algo.GD, Algo.HB]),
       st.lists(st.floats(0.05, 10.0), min_size=2, max_size=10),
       st.floats(1e-8, 1e8))
@example(Algo.HB, [1.0, 5.0, 25.0], 1e8)
def test_tuned_variance_is_scale_free(algo, values, c):
    # J is invariant under lambda -> c lambda, alpha -> alpha / c, so the
    # tuned J must not depend on the spectrum's scale.
    s = make_spectrum(values)
    assume(s.kappa > 2.0)
    j = tune_constrained(algo, s).j
    scaled = tune_constrained(algo, make_spectrum(c * s.values)).j
    assert scaled == pytest.approx(j, rel=1e-10, abs=0.0)
