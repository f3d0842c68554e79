import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiseamp import (Algo, AlgoConfig, DimensionTooSmall, SigmaMode,
                      Unstable, extreme_modal_values, hb_gd_ratio,
                      make_spectrum, na_gd_ratio_bounds,
                      optimal_quadratic_params, variance_amplification,
                      variance_bounds, variance_via_eigenvalues,
                      variance_via_lyapunov)
from noiseamp.dynamics import ConfigRows
from noiseamp.variance import _modal_variance_raw


def _j_hat(cfg, lam):
    """J_hat(lambda): J on the one-mode spectrum {lambda}."""
    return variance_amplification(cfg, make_spectrum([lam])).j


def _table2_cfg(algo, m, L, sigma=1.0):
    p = optimal_quadratic_params(algo, m, L)
    return AlgoConfig(algo=algo, alpha=p.alpha, beta=p.beta, sigma=sigma)


def test_modal_variance_normalized_mode():
    # At alpha * lambda = 1 gradient descent has unit variance gain.
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.5)
    assert _j_hat(cfg, 2.0) == pytest.approx(1.0)


def test_modal_variance_closed_forms():
    alpha, beta, lam, sigma = 0.07, 0.6, 3.0, 1.3
    mu = alpha * lam
    cfg = AlgoConfig(algo=Algo.HB, alpha=alpha, beta=beta, sigma=sigma)
    expected = sigma ** 2 * (1 + beta) / (mu * (1 - beta) * (2 * (1 + beta) - mu))
    assert _j_hat(cfg, lam) == pytest.approx(expected, rel=1e-14)

    cfg = AlgoConfig(algo=Algo.NA, alpha=alpha, beta=beta, sigma=sigma)
    bm = beta * (1 - mu)
    expected = sigma ** 2 * (1 + bm) / (mu * (1 - bm)
                                        * (2 * (1 + beta) - (2 * beta + 1) * mu))
    assert _j_hat(cfg, lam) == pytest.approx(expected, rel=1e-14)


def test_three_routes_agree():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = make_spectrum(rng.uniform(0.1, 8.0, size=rng.integers(1, 25)))
        algo = [Algo.GD, Algo.HB, Algo.NA][rng.integers(3)]
        beta = 0.0 if algo == Algo.GD else float(rng.uniform(0.0, 0.98))
        cfg = AlgoConfig(algo=algo, alpha=float(rng.uniform(1e-3, 1.9 / s.L)),
                         beta=beta, sigma=float(rng.uniform(0.1, 2.0)))
        try:
            rep = variance_amplification(cfg, s)
        except Unstable:
            continue
        assert variance_via_lyapunov(cfg, s) == pytest.approx(rep.j, rel=1e-10)
        assert variance_via_eigenvalues(cfg, s) == pytest.approx(rep.j, rel=1e-10)


def test_report_contents():
    s = make_spectrum([1.0, 9.0])
    cfg = _table2_cfg(Algo.GD, 1.0, 9.0)
    rep = variance_amplification(cfg, s)
    assert rep.j == pytest.approx(math.fsum(rep.per_mode), rel=1e-15)
    assert rep.j_prime == pytest.approx(
        math.fsum(rep.per_mode * rep.spectrum.values), rel=1e-15)
    assert rep.rho == pytest.approx(8.0 / 10.0)
    d = rep.to_dict()
    assert d["J"] == rep.j and len(d["per_mode"]) == 2
    modes = d["per_mode"].columns
    assert list(modes) == ["lambda", "j_hat"]
    assert modes["lambda"] is s.values and modes["j_hat"] is rep.per_mode


def test_sigma_scaling_and_mode():
    s = make_spectrum([1.0, 5.0])
    base = variance_amplification(
        AlgoConfig(algo=Algo.HB, alpha=0.1, beta=0.3, sigma=1.0), s).j
    quad = variance_amplification(
        AlgoConfig(algo=Algo.HB, alpha=0.1, beta=0.3, sigma=2.0), s).j
    assert quad == pytest.approx(4.0 * base, rel=1e-14)
    eq = variance_amplification(
        AlgoConfig(algo=Algo.HB, alpha=0.1, beta=0.3, sigma=5.0,
                   sigma_mode=SigmaMode.EQUALS_ALPHA), s).j
    assert eq == pytest.approx(0.1 ** 2 * base, rel=1e-14)


def test_unstable_reports_offender():
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.0)
    with pytest.raises(Unstable) as exc:
        variance_amplification(cfg, make_spectrum([1.0, 3.0]))
    assert exc.value.lam == 3.0


def test_hb_gd_ratio_identity():
    assert hb_gd_ratio(1.0) == pytest.approx(1.0)
    assert hb_gd_ratio(9.0) == pytest.approx(16.0 / 15.0, rel=1e-15)
    for kappa in (2.0, 9.0, 1e2, 1e4):
        beta = ((math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)) ** 2
        assert hb_gd_ratio(kappa) == pytest.approx(
            1.0 / (1.0 - beta ** 2), rel=1e-13)
    with pytest.raises(ValueError):
        hb_gd_ratio(0.5)


def test_ratio_is_spectrum_independent():
    rng = np.random.default_rng(4)
    for kappa in (1.0, 9.0, 100.0):
        cfg_g = _table2_cfg(Algo.GD, 1.0, kappa)
        cfg_h = _table2_cfg(Algo.HB, 1.0, kappa)
        for _ in range(20):
            inner = rng.uniform(1.0, kappa, size=rng.integers(0, 8))
            s = make_spectrum(np.concatenate([[1.0, kappa], inner]))
            jg = variance_amplification(cfg_g, s).j
            jh = variance_amplification(cfg_h, s).j
            assert jh / jg == pytest.approx(hb_gd_ratio(kappa), rel=1e-12)


def test_extreme_modal_values_gd():
    vals = extreme_modal_values(Algo.GD, 9.0)
    assert vals["j_at_m"] == pytest.approx(100.0 / 36.0, rel=1e-14)
    assert vals["j_at_L"] == vals["j_at_m"]
    cfg = _table2_cfg(Algo.GD, 1.0, 9.0)
    assert _j_hat(cfg, 1.0) == pytest.approx(vals["j_at_m"], rel=1e-14)
    assert _j_hat(cfg, 1.0 / cfg.alpha) == pytest.approx(1.0, rel=1e-14)


def test_extreme_modal_values_na():
    vals = extreme_modal_values(Algo.NA, 9.0)
    # frozen from the modal Lyapunov fixed point at lambda = m
    assert vals["j_at_m"] == pytest.approx(6.0189391263549945, rel=1e-12)
    cfg = _table2_cfg(Algo.NA, 1.0, 9.0)
    assert _j_hat(cfg, 1.0) == pytest.approx(vals["j_at_m"], rel=1e-12)
    assert _j_hat(cfg, 9.0) == pytest.approx(vals["j_at_L"], rel=1e-12)
    assert _j_hat(cfg, 1.0 / cfg.alpha) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        extreme_modal_values(Algo.HB, 9.0)
    with pytest.raises(ValueError):
        extreme_modal_values(Algo.NA, 0.5)


def test_extreme_values_growth_envelopes():
    for kappa in np.logspace(0.5, 6, 30):
        vals = extreme_modal_values(Algo.NA, float(kappa))
        kb = 3.0 * kappa + 1.0
        assert kb ** 1.5 / 32.0 <= vals["j_at_m"] <= kb ** 1.5 / 8.0
        assert 9.0 * math.sqrt(kb) / 64.0 <= vals["j_at_L"] \
            <= 9.0 * math.sqrt(kb) / 8.0


def test_na_gd_ratio_bounds_contain_ratio():
    rng = np.random.default_rng(6)
    for kappa in (5.0, 50.0, 500.0):
        cfg_g = _table2_cfg(Algo.GD, 1.0, kappa)
        cfg_n = _table2_cfg(Algo.NA, 1.0, kappa)
        for n in (2, 5, 10):
            lo, hi = na_gd_ratio_bounds(kappa, n)
            assert lo <= hi
            for _ in range(20):
                inner = rng.uniform(1.0, kappa, size=n - 2)
                s = make_spectrum(np.concatenate([[1.0, kappa], inner]))
                ratio = (variance_amplification(cfg_n, s).j
                         / variance_amplification(cfg_g, s).j)
                assert lo - 1e-9 <= ratio <= hi + 1e-9
    with pytest.raises(DimensionTooSmall):
        na_gd_ratio_bounds(10.0, 1)


def test_variance_bounds_sandwich():
    rng = np.random.default_rng(8)
    for kappa in (3.0, 30.0):
        for n in (2, 6):
            for algo in (Algo.GD, Algo.HB, Algo.NA):
                lower, upper = variance_bounds(algo, kappa, n)
                assert 0.0 < lower <= upper
                cfg = _table2_cfg(algo, 1.0, kappa)
                for _ in range(25):
                    inner = rng.uniform(1.0, kappa, size=n - 2)
                    s = make_spectrum(np.concatenate([[1.0, kappa], inner]))
                    j = variance_amplification(cfg, s).j
                    assert lower - 1e-9 * upper <= j <= upper * (1 + 1e-12)
    for algo, kappa, n, error in ((Algo.NA, 10.0, 1, DimensionTooSmall),
                                  (Algo.GD, 10.0, 0, DimensionTooSmall),
                                  (Algo.GD, 0.5, 3, ValueError),
                                  ("adam", 10.0, 3, ValueError)):
        with pytest.raises(error):
            variance_bounds(algo, kappa, n)
    with pytest.raises(ValueError, match="kappa must be >= 1"):
        variance_bounds(Algo.GD, kappa=0.5, n=3)


@st.composite
def _gamma_zero_configs(draw):
    """(cfg, lams): a GD or HB AlgoConfig, or ConfigRows of HB points with
    the shared gamma 0.0, and eigenvalues whose largest has alpha lambda
    anywhere up to the stability edge 2 (1 + beta)."""
    lams = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=1,
                                  max_size=8)))
    fraction = st.floats(1e-12, 1.0, exclude_max=True)

    def alpha(beta):
        return draw(fraction) * 2.0 * (1.0 + beta) / float(lams.max())

    sigma = draw(st.floats(0.0, 10.0))
    mode = draw(st.sampled_from(list(SigmaMode)))
    betas = st.floats(0.0, 1.0, exclude_max=True)
    kind = draw(st.sampled_from(["gd", "hb", "rows"]))
    if kind == "rows":
        beta = np.array(draw(st.lists(betas, min_size=1, max_size=4)))
        alphas = np.array([alpha(b) for b in beta.tolist()])
        return ConfigRows(alphas[:, None], beta[:, None], 0.0, sigma,
                          mode), lams
    beta = draw(betas) if kind == "hb" else 0.0
    return AlgoConfig(algo=Algo(kind), alpha=alpha(beta), beta=beta,
                      sigma=sigma, sigma_mode=mode), lams


def _closed_form(cfg, lams):
    """The module's J_hat closed form as one expression, not in place."""
    beta, gamma, mu = cfg.beta, cfg.gamma, cfg.alpha * lams
    return (cfg.noise_power * (1.0 + beta - gamma * mu)
            / (mu * (1.0 - beta + gamma * mu)
               * (2.0 * (1.0 + beta) - (1.0 + 2.0 * gamma) * mu)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gamma_zero_configs())
def test_gamma_zero_form_rounds_as_the_general_one(case):
    # The scalar gamma = 0.0 takes the short form; a zero array of gamma
    # cannot, and must give the same bytes, as the closed form does.
    cfg, lams = case
    general = SimpleNamespace(alpha=cfg.alpha, beta=cfg.beta,
                              noise_power=cfg.noise_power, gamma=np.zeros(1))
    assert cfg.gamma == 0.0 and type(cfg.gamma) is float
    # alpha lambda rounded to the edge: x / 0 (or 0 / 0 at sigma = 0).
    with np.errstate(divide="ignore", invalid="ignore"):
        short = _modal_variance_raw(cfg, lams)
        full = _modal_variance_raw(general, lams)
        plain = _closed_form(general, lams)
    assert short.shape == full.shape == plain.shape
    assert short.tobytes() == full.tobytes() == plain.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
       st.floats(0.0, 1.0, exclude_max=True),
       st.floats(1e-12, 1.0, exclude_max=True), st.floats(0.0, 10.0),
       st.sampled_from(list(SigmaMode)))
def test_look_ahead_form_rounds_as_the_closed_form(lams, beta, fraction,
                                                    sigma, mode):
    # NA's gamma = beta takes the general form, evaluated in place.
    lams = np.array(lams)
    alpha = fraction * 2.0 * (1.0 + beta) / ((1.0 + 2.0 * beta)
                                             * float(lams.max()))
    cfg = AlgoConfig(algo=Algo.NA, alpha=alpha, beta=beta, sigma=sigma,
                     sigma_mode=mode)
    rows = ConfigRows(np.array([[alpha]]), np.array([[beta]]),
                      np.array([[beta]]), sigma, mode)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in (cfg, rows):
            assert (_modal_variance_raw(c, lams).tobytes()
                    == _closed_form(c, lams).tobytes())
