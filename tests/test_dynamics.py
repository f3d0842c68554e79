import math
import warnings

import numpy as np
import pytest

from noiseamp import (Algo, AlgoConfig, SigmaMode, Unstable, UnstableMode,
                      convergence_rate, make_spectrum, modal_spectral_radius,
                      modal_system, modal_variance, nesterov_stable,
                      propagate_covariance, variance_via_lyapunov)
from noiseamp.dynamics import (_modal_lyapunov, check_stable,
                               companion_coefficients)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(algo=Algo.GD, alpha=-0.1)
    with pytest.raises(ValueError):
        AlgoConfig(algo=Algo.HB, alpha=0.1, beta=1.0)
    with pytest.raises(ValueError):
        AlgoConfig(algo=Algo.GD, alpha=0.1, beta=0.5)
    cfg = AlgoConfig(algo=Algo.NA, alpha=0.25, sigma=3.0,
                     sigma_mode=SigmaMode.EQUALS_ALPHA)
    assert cfg.effective_sigma == 0.25


def test_modal_system_matrices():
    cfg = AlgoConfig(algo=Algo.HB, alpha=0.1, beta=0.5)
    ms = modal_system(cfg, 2.0)
    np.testing.assert_allclose(ms.a_hat, [[0.0, 1.0], [-0.5, 1.3]])
    np.testing.assert_allclose(ms.b_hat, [[0.0], [1.0]])
    np.testing.assert_allclose(ms.c_hat, [[1.0, 0.0]])

    cfg = AlgoConfig(algo=Algo.NA, alpha=0.1, beta=0.5)
    ms = modal_system(cfg, 2.0)
    np.testing.assert_allclose(ms.a_hat, [[0.0, 1.0], [-0.4, 1.2]])

    cfg = AlgoConfig(algo=Algo.GD, alpha=0.1)
    ms = modal_system(cfg, 2.0)
    np.testing.assert_allclose(ms.a_hat, [[0.8]])
    assert ms.order == 1


def test_zero_momentum_reduces_to_gradient_descent():
    for algo in (Algo.HB, Algo.NA):
        cfg = AlgoConfig(algo=algo, alpha=0.3, beta=0.0)
        for lam in (0.5, 1.0, 2.5, 4.0):
            assert modal_spectral_radius(cfg, lam) == pytest.approx(
                abs(1.0 - 0.3 * lam), abs=1e-14)


def test_spectral_radius_matches_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        algo = [Algo.GD, Algo.HB, Algo.NA][rng.integers(3)]
        beta = 0.0 if algo == Algo.GD else float(rng.uniform(0.0, 0.999))
        cfg = AlgoConfig(algo=algo, alpha=float(rng.uniform(0.01, 3.0)),
                         beta=beta)
        lam = float(rng.uniform(0.01, 5.0))
        ms = modal_system(cfg, lam)
        expected = float(np.max(np.abs(np.linalg.eigvals(ms.a_hat))))
        assert modal_spectral_radius(cfg, lam) == pytest.approx(
            expected, rel=1e-11, abs=1e-11)


def test_convergence_rate_is_worst_mode():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = make_spectrum(rng.uniform(0.1, 5.0, size=rng.integers(1, 30)))
        cfg = AlgoConfig(algo=Algo.HB, alpha=float(rng.uniform(0.01, 0.5)),
                         beta=float(rng.uniform(0.0, 0.95)))
        scan = max(modal_spectral_radius(cfg, float(l)) for l in s.values)
        assert convergence_rate(cfg, s) == pytest.approx(scan, rel=1e-14)
    # Modes a few ulps inside the extremes, with m at a double root of NA or
    # HB.  There b^2 + 4a cancels, so the float inputs fix the radius only
    # to about sqrt(eps), and a mode next to m can compute a larger radius
    # than m itself.  The rate read at m and L agrees with the scan to
    # that accuracy.
    for _ in range(200):
        beta = float(rng.uniform(0.0, 0.999))
        m, L = float(rng.uniform(0.01, 5.0)), float(rng.uniform(5.0, 50.0))
        near = [v for k in range(1, 6)
                for v in (m + k * np.spacing(m), L - k * np.spacing(L))]
        s = make_spectrum([m, L, *near])
        for algo, mu in ((Algo.NA, ((1.0 - beta) / (1.0 + beta)) ** 2),
                         (Algo.HB, (1.0 - math.sqrt(beta)) ** 2)):
            cfg = AlgoConfig(algo=algo, alpha=mu / m, beta=beta)
            scan = max(modal_spectral_radius(cfg, float(l)) for l in s.values)
            assert convergence_rate(cfg, s) == pytest.approx(scan, abs=1e-7)


def test_nesterov_stability_boundary():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m = float(rng.uniform(0.01, 2.0))
        L = m * float(rng.uniform(1.0, 50.0))
        beta = float(rng.uniform(0.0, 0.999))
        alpha = float(rng.uniform(1e-4, 3.0 / L))
        cfg = AlgoConfig(algo=Algo.NA, alpha=alpha, beta=beta)
        rho = float(np.max(modal_spectral_radius(cfg, np.array([m, L]))))
        if abs(rho - 1.0) < 1e-10:
            continue
        assert nesterov_stable(alpha, beta, m, L) == (rho < 1.0)


def test_lyapunov_solution_satisfies_equation():
    # Each row (p00, p01, p11) of one batched solve is the symmetric P of
    # P = A P A^T + sigma^2 B B^T in companion form, A = [[0, 1], [a, b]]
    # and B = [0; 1]; GD is the case a = 0.
    rng = np.random.default_rng(5)
    for _ in range(500):
        algo = [Algo.GD, Algo.HB, Algo.NA][rng.integers(3)]
        beta = 0.0 if algo == Algo.GD else float(rng.uniform(0.0, 0.95))
        cfg = AlgoConfig(algo=algo, alpha=float(rng.uniform(0.01, 1.0)),
                         beta=beta, sigma=float(rng.uniform(0.1, 2.0)))
        lams = rng.uniform(0.05, 1.9 / cfg.alpha, size=3)
        lams = lams[modal_spectral_radius(cfg, lams) < 0.9999]
        for lam, (p00, p01, p11) in zip(lams, _modal_lyapunov(cfg, lams)):
            a, b = companion_coefficients(cfg, lam)
            A = np.array([[0.0, 1.0], [a, b]])
            p = np.array([[p00, p01], [p01, p11]])
            res = A @ p @ A.T - p + np.diag([0.0, cfg.sigma ** 2])
            assert np.abs(res).max() <= 1e-9 * max(1.0, np.abs(p).max())


def test_lyapunov_fixed_point_oracle():
    # The smallest mode at each quadratic-optimal tuning for kappa = 9.
    # p00 is frozen from an independent fixed-point iteration of
    # P <- A P A^T + B B^T (GD: 25/9, HB: 80/27).  Stationarity gives
    # p11 = p00, and Yule-Walker p01 = b p00 / (1 - a).
    rb = math.sqrt(28.0)
    for cfg, p00 in (
            (AlgoConfig(algo=Algo.GD, alpha=0.2), 25.0 / 9.0),
            (AlgoConfig(algo=Algo.HB, alpha=0.25, beta=0.25), 80.0 / 27.0),
            (AlgoConfig(algo=Algo.NA, alpha=4.0 / 28.0,
                        beta=(rb - 2.0) / (rb + 2.0)), 6.0189391263549945)):
        p = _modal_lyapunov(cfg, 1.0)
        a, b = companion_coefficients(cfg, 1.0)
        assert p[0] == pytest.approx(p00, rel=1e-12)
        assert p[2] == pytest.approx(p[0], rel=1e-14)
        assert p[1] == pytest.approx(b * p00 / (1.0 - a), rel=1e-12)


def test_unstable_mode_raises():
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.0)
    with pytest.raises(UnstableMode) as exc:
        modal_variance(cfg, 2.5)
    assert exc.value.lam == 2.5
    with pytest.raises(Unstable) as exc:
        check_stable(cfg, make_spectrum([0.5, 2.5]))
    assert exc.value.lam == 2.5


def test_propagate_covariance_start():
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.0)
    out = propagate_covariance(cfg, make_spectrum([1.0]), 3)
    np.testing.assert_allclose(out, [0.0, 1.0, 1.0])
    # After one step every mode holds sigma^2.
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.1)
    assert propagate_covariance(cfg, make_spectrum([1.0, 4.0]), 50)[1] == 2.0


def test_propagate_covariance_converges_to_steady_state():
    s = make_spectrum([1.0, 4.0, 9.0])
    for algo in (Algo.GD, Algo.HB, Algo.NA):
        beta = 0.0 if algo == Algo.GD else 0.4
        cfg = AlgoConfig(algo=algo, alpha=0.1, beta=beta, sigma=0.7)
        steady = variance_via_lyapunov(cfg, s)
        out = propagate_covariance(cfg, s, 3000)
        assert out[-1] == pytest.approx(steady, rel=1e-8)
        assert np.all(np.diff(out) >= -1e-12)  # monotone ramp-up


def test_propagate_covariance_refuses_unstable_config():
    cfg = AlgoConfig(algo=Algo.NA, alpha=1.0, beta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Unstable) as exc:
            propagate_covariance(cfg, make_spectrum([0.5, 2.5]), 5000)
    assert exc.value.lam == 2.5
