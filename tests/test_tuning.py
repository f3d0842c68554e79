import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noiseamp import (Algo, AlgoConfig, InfeasibleCap, KappaTooLarge,
                      NoGuarantee, SigmaMode, TorusSpec, Unstable,
                      acceleration_floor, conventional_params,
                      convergence_rate, hb_tradeoff_margin, make_spectrum,
                      modal_spectral_radius, optimal_quadratic_params,
                      torus_spectrum, tune_constrained,
                      variance_amplification)
from noiseamp.dynamics import INSTABILITY_THRESHOLD
from noiseamp.tuning import (GOLDEN_TOL, _SEARCH, _nesterov_band,
                             _step_interval)


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


@pytest.mark.parametrize("kappa", [1.5, 25.0, 1e3, 1e6])
def test_tune_constrained_na(kappa):
    s = make_spectrum([1.0, kappa])
    res = tune_constrained(Algo.NA, s, cap_constant=1.0)
    assert res.rho <= res.rate_cap == 1.0 - 1.0 / math.sqrt(kappa)
    # The rate-optimal tuning, 1 - 2 / sqrt(3 kappa + 1), meets c = 1, so
    # the tuned J cannot be worse than it.
    p = optimal_quadratic_params(Algo.NA, 1.0, kappa)
    j_opt = variance_amplification(
        AlgoConfig(algo=Algo.NA, alpha=p.alpha, beta=p.beta), s).j
    assert res.j <= j_opt * (1 + 1e-9)
    # c = 1.2 lies beyond the optimal rate's 2 / sqrt(3).
    with pytest.raises(InfeasibleCap):
        tune_constrained(Algo.NA, s, cap_constant=1.2)


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

    edges = _step_interval(beta, 0.0, r, s.m, s.L)
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


def _rate(alpha, beta, gamma, lams):
    """The largest root modulus of the two-step family at any look-ahead."""
    cfg = SimpleNamespace(alpha=alpha, beta=beta, gamma=gamma)
    return float(modal_spectral_radius(cfg, np.asarray(lams)).max())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 0.99), st.sampled_from(["zero", "beta", "free"]),
       st.floats(0.0, 1.5), st.floats(0.05, 0.99), st.floats(1e-3, 1e3),
       st.floats(1.0, 1e4))
def test_step_interval_holds_the_rate_at_any_look_ahead(beta, look_ahead,
                                                        free, r, m, kappa):
    # Every alpha in the interval keeps rho <= r at m and at L, and alpha
    # just outside it does not, whatever the sign of b's coefficient
    # 1 + gamma - gamma / r.
    gamma = {"zero": 0.0, "beta": beta, "free": free}[look_ahead]
    lams = [m, kappa * m]
    edges = _step_interval(beta, gamma, r, *lams)
    scan = np.linspace(0.0, 4.0 / lams[1], 401)[1:]
    if edges is None:
        assert all(_rate(a, beta, gamma, lams) > r for a in scan)
        return
    lo, hi = edges
    first, last = lo * (1.0 + EDGE_MARGIN), hi * (1.0 - EDGE_MARGIN)
    assume(first < last)  # room for points inside
    inside = [first, last, *scan[(first <= scan) & (scan <= last)]]
    assert all(_rate(a, beta, gamma, lams) <= r for a in inside)
    outside = [hi * (1.0 + EDGE_MARGIN)] + ([lo * (1.0 - EDGE_MARGIN)]
                                            if lo > 0.0 else [])
    assert all(_rate(a, beta, gamma, lams) > r for a in outside)


def _heavy_ball_interval(beta, r, m, L):
    """The gamma = 0 step interval in its original closed form."""
    h = r + beta / r
    lo = max(1.0 + beta - h, 0.0) / m
    hi = (1.0 + beta + h) / L
    if beta > r * r or lo > hi:
        return None
    return lo, hi


def test_zero_look_ahead_keeps_the_heavy_ball_interval_bit_for_bit():
    def bits(edges):
        return None if edges is None else tuple(map(float.hex, edges))

    rs = [0.05, 0.3, 0.5, 0.9, 1.0 - 0.5 / 7.0, 0.99, 1.0 - 1e-8]
    for r in rs:
        momenta = np.concatenate([np.linspace(0.0, 1.0, 97, endpoint=False),
                                  r * r * (1.0 + np.linspace(-1e-3, 1e-3, 9))])
        for beta in momenta.tolist():
            for m, L in [(1.0, 1.0), (0.3, 2.1), (1e-3, 7.0), (2.0, 2e6)]:
                assert (bits(_step_interval(beta, 0.0, r, m, L))
                        == bits(_heavy_ball_interval(beta, r, m, L)))


def test_gd_edges_are_the_zero_momentum_slice():
    # At beta = 0, h = r + beta / r keeps GD's edges bit for bit.
    r = 1.0 - 0.5 / 7.0
    assert _step_interval(0.0, 0.0, r, 0.3, 2.1) == ((1.0 - r) / 0.3,
                                                      (1.0 + r) / 2.1)


@pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4])
def test_nesterov_band_spans_every_feasible_momentum(kappa):
    r = 1.0 - 1.0 / math.sqrt(kappa)
    band = _nesterov_band(r, 1.0, kappa)
    assert band == sorted(band) and len(band) > 100
    # The band reaches above r^2, where heavy ball has no slice.
    assert band[0] < r * r < band[-1]
    feasible = [b for b in np.linspace(0.0, 1.0, 20001)[:-1].tolist()
                if _step_interval(b, b, r, 1.0, kappa) is not None]
    assert band[0] <= feasible[0] and feasible[-1] <= band[-1]
    # Its ends are the band's to the float.
    for end, out in ((band[0], 0.0), (band[-1], 1.0)):
        assert _step_interval(end, end, r, 1.0, kappa) is not None
        beyond = math.nextafter(end, out)
        assert _step_interval(beyond, beyond, r, 1.0, kappa) is None


def test_nesterov_search_is_not_beaten_by_a_dense_band_scan(monkeypatch):
    # The least J sits at the band's lower end, where J is steep in beta.
    # The search's slices crowd the band's ends, so it stays within 0.1%
    # of 2,001 evenly spaced slices.
    s = make_spectrum([1.0, 100.0])
    res = tune_constrained(Algo.NA, s)
    band = _nesterov_band(res.rate_cap, s.m, s.L)
    dense = np.linspace(band[0], band[-1], 2001).tolist()
    monkeypatch.setitem(_SEARCH, Algo.NA,
                        (math.sqrt, lambda r, m, L: dense))
    scan = tune_constrained(Algo.NA, s)
    assert res.j <= scan.j * (1.0 + 1e-3)
    assert res.beta < band[0] + 1e-3 * (band[-1] - band[0])


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


def test_acceleration_floor():
    out = acceleration_floor(Algo.HB, 100.0)
    assert out["min_ratio"] > 0.0
    assert 0 < out["feasible_slices"] <= out["slices"] < out["evaluations"]
    # NA's feasible momenta form a band about 1e-2 wide at kappa = 1e3.
    for kappa in (1e3, 1e4):
        out = acceleration_floor(Algo.NA, kappa)
        res = tune_constrained(Algo.NA, make_spectrum([1.0, kappa]))
        assert out["min_ratio"] == res.j / kappa ** 1.5 > 0.0
        assert out["rate_cap"] == res.rate_cap
        assert out["feasible_slices"] > 0
    with pytest.raises(InfeasibleCap):
        acceleration_floor(Algo.NA, 4.0, cap_constant=10.0)
    with pytest.raises(ValueError):
        acceleration_floor(Algo.GD, 100.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(list(Algo)),
       st.lists(st.floats(0.05, 10.0), min_size=2, max_size=10),
       st.floats(1e-8, 1e8))
@example(Algo.HB, [1.0, 5.0, 25.0], 1e8)
@example(Algo.HB, [3.0, 4.0], 1e-3)   # every momentum-grid point exceeds r^2
def test_tuned_variance_is_scale_free(algo, values, c):
    # J is invariant under lambda -> c lambda, alpha -> alpha / c, so the
    # tuned J must not depend on the spectrum's scale.
    s = make_spectrum(values)
    assume(s.kappa > 1.0)
    j = tune_constrained(algo, s).j
    scaled = tune_constrained(algo, make_spectrum(c * s.values)).j
    assert scaled == pytest.approx(j, rel=1e-10, abs=0.0)


def _golden_min(fn, lo, hi, tol=GOLDEN_TOL):
    """Scale-free golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _reference_tune(algo, s, cap_constant=1.0, sigma=1.0,
                    sigma_mode=SigmaMode.FIXED):
    """The search slice by slice: one scalar golden-section search per
    momentum, each evaluation one AlgoConfig and one variance_amplification.
    Returns (alpha, beta, J, rho)."""
    scale, momenta = _SEARCH[algo]
    kappa = s.kappa
    cap = 1.0 - cap_constant / scale(kappa)
    if cap <= 0.0:
        raise InfeasibleCap(f"rate cap {cap!r} is non-positive")
    if cap > INSTABILITY_THRESHOLD:
        raise KappaTooLarge("cap above the instability threshold")

    def capped_j(alpha, beta):
        cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=sigma,
                         sigma_mode=sigma_mode)
        try:
            rep = variance_amplification(cfg, s)
        except Unstable:
            return math.inf
        return rep.j if rep.rho <= cap else math.inf

    best = None
    for beta in momenta(cap, s.m, s.L):
        gamma = beta if algo == Algo.NA else 0.0
        edges = _step_interval(beta, gamma, cap, s.m, s.L)
        if edges is None:
            continue
        alpha, j = _golden_min(lambda a: capped_j(a, beta), *edges)
        if j < math.inf and (best is None or (j, beta, alpha) < best):
            best = (j, beta, alpha)
    if best is None:
        raise InfeasibleCap("no parameters reach the cap")
    j, beta, alpha = best
    rho = convergence_rate(AlgoConfig(algo=algo, alpha=alpha, beta=beta), s)
    return alpha, beta, j, rho


def _outcome(search, *args, **kwargs):
    """(alpha, beta, J, rho) as floats, or the exception type raised."""
    try:
        out = search(*args, **kwargs)
    except (InfeasibleCap, KappaTooLarge, ValueError) as exc:
        return type(exc)
    if isinstance(out, tuple):
        return out
    return out.alpha, out.beta, out.j, out.rho


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([Algo.GD, Algo.HB]),
       st.one_of(
           st.lists(st.floats(0.05, 100.0), min_size=1, max_size=8).map(
               make_spectrum),
           st.sampled_from([(2, 16), (1, 9), (3, 5)]).map(
               lambda t: torus_spectrum(TorusSpec(*t)))),
       st.floats(0.05, 3.0), st.floats(0.1, 10.0),
       st.sampled_from(list(SigmaMode)))
@example(Algo.HB, torus_spectrum(TorusSpec(2, 16)), 1.0, 1.0,
         SigmaMode.FIXED)
@example(Algo.HB, make_spectrum([3.0, 4.0]), 1.0, 1.0, SigmaMode.FIXED)
@example(Algo.GD, make_spectrum([1.0, 10.0]), 10.0, 1.0, SigmaMode.FIXED)
@example(Algo.HB, make_spectrum([1.0, 25.0]), 20.0, 1.0,
         SigmaMode.EQUALS_ALPHA)
# NA's 400 slices cost the slice-by-slice search about 1 s each time.
@example(Algo.NA, make_spectrum([1.0, 100.0]), 1.0, 1.0, SigmaMode.FIXED)
@example(Algo.NA, make_spectrum([1.0, 3.0, 10.0]), 0.5, 2.0,
         SigmaMode.EQUALS_ALPHA)
@example(Algo.NA, make_spectrum([1.0, 100.0]), 3.0, 1.0, SigmaMode.FIXED)
def test_lockstep_search_matches_the_slice_by_slice_search(
        algo, s, cap_constant, sigma, sigma_mode):
    # Every slice takes the same probes and comparisons as its own scalar
    # search, so alpha, beta, J and rho agree bit for bit, and so does the
    # exception when no slice meets the cap.
    args = (algo, s, cap_constant, sigma, sigma_mode)
    assert (_outcome(tune_constrained, *args)
            == _outcome(_reference_tune, *args))


def test_tuning_effort_is_reported():
    res = tune_constrained(Algo.HB, make_spectrum([1.0, 5.0, 25.0]))
    assert 0 < res.feasible_slices <= res.slices
    # Two probes and one midpoint per slice, plus one probe per iteration.
    assert res.evaluations > 3 * res.slices
    # Heavy ball's minimum presses against the rate cap: the bracket ends
    # at the step interval's edge, where rho equals the cap to rounding.
    assert res.alpha_at_edge is True
    assert res.rho == pytest.approx(res.rate_cap, rel=1e-9)
    # Under a loose cap GD's minimum lies inside its interval.
    gd = tune_constrained(Algo.GD, make_spectrum([1.0, 5.0, 25.0]),
                          cap_constant=0.01)
    assert (gd.slices, gd.feasible_slices) == (1, 1)
    assert gd.alpha_at_edge is False
    assert set(gd.to_dict()) >= {"slices", "feasible_slices", "evaluations",
                                 "alpha_at_edge"}
