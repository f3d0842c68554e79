"""End-to-end acceptance criteria.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line.
"""

import math
import time

import numpy as np
import pytest

from noiseamp import (Algo, AlgoConfig, PseudoHuber, Quadratic, Regime,
                      SigmaMode, Unstable, assemble_lmi, check_stable,
                      conventional_params, ensemble_variance,
                      gd_certificate, hb_gd_ratio, make_spectrum,
                      modal_spectral_radius, na_certificate,
                      optimal_quadratic_params, propagate_covariance,
                      q_bounds, scaling_sweep, simulate, tune_constrained,
                      variance_amplification, variance_bounds,
                      variance_via_eigenvalues, variance_via_lyapunov)
from noiseamp.dynamics import companion_coefficients


def _report(num: int, desc: str, ok: bool):
    print(f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _table2_cfg(algo, m, L, **kw):
    p = optimal_quadratic_params(algo, m, L)
    return AlgoConfig(algo=algo, alpha=p.alpha, beta=p.beta, **kw)


def test_criterion_01_triple_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    ok = True
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 51))
        s = make_spectrum(rng.uniform(0.05, 10.0, size=n))
        algo = [Algo.GD, Algo.HB, Algo.NA][rng.integers(3)]
        beta = 0.0 if algo == Algo.GD else float(rng.uniform(0.0, 0.98))
        cfg = AlgoConfig(algo=algo, alpha=float(rng.uniform(1e-3, 1.9 / s.L)),
                         beta=beta, sigma=float(rng.uniform(0.1, 2.0)))
        if float(np.max(modal_spectral_radius(cfg, s.values))) >= 0.99999:
            continue
        checked += 1
        j1 = variance_amplification(cfg, s).j
        j2 = variance_via_lyapunov(cfg, s)
        j3 = variance_via_eigenvalues(cfg, s)
        ok &= abs(j2 - j1) <= 1e-10 * abs(j1)
        ok &= abs(j3 - j1) <= 1e-10 * abs(j1)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(1, f"closed form = Lyapunov = eigenvalue form on 1000 configs "
               f"(rel 1e-10, {elapsed:.2f}s < 5s)", ok)


def test_criterion_02_hb_gd_ratio():
    rng = np.random.default_rng(102)
    ok = abs(hb_gd_ratio(9.0) - 16.0 / 15.0) <= 1e-12
    for kappa in (1.0, 9.0, 1e2, 1e4):
        cfg_g = _table2_cfg(Algo.GD, 1.0, kappa)
        cfg_h = _table2_cfg(Algo.HB, 1.0, kappa)
        expected = hb_gd_ratio(kappa)
        for _ in range(50):
            inner = rng.uniform(1.0, kappa, size=rng.integers(0, 9))
            s = make_spectrum(np.concatenate([[1.0, kappa], inner]))
            ratio = (variance_amplification(cfg_h, s).j
                     / variance_amplification(cfg_g, s).j)
            ok &= abs(ratio - expected) <= 1e-12 * expected
    _report(2, "spectrum-independent HB/GD ratio, 16/15 at kappa=9 "
               "(rel 1e-12)", ok)


def test_criterion_03_variance_bounds_containment():
    rng = np.random.default_rng(103)
    ok = True
    for kappa in (10.0, 1e3):
        for n in (2, 10):
            cfgs = {algo: _table2_cfg(algo, 1.0, kappa)
                    for algo in (Algo.GD, Algo.HB, Algo.NA)}
            bounds = {algo: variance_bounds(algo, kappa, n)
                      for algo in cfgs}
            for _ in range(1000):
                inner = rng.uniform(1.0, kappa, size=n - 2)
                s = make_spectrum(np.concatenate([[1.0, kappa], inner]))
                for algo, cfg in cfgs.items():
                    j = variance_amplification(cfg, s).j
                    lower, upper = bounds[algo]
                    ok &= lower - 1e-9 * upper <= j <= upper * (1 + 1e-12)
    _report(3, "lower <= J <= upper for 1000 spectra x {kappa} x {n}, "
               "all three methods", ok)


def test_criterion_04_certificates():
    t0 = time.monotonic()
    ok = True
    for kappa in (2.0, 10.0, 1e3):
        prob, cert = gd_certificate(1.0, kappa)
        lhs = assemble_lmi(prob, cert)
        expected = np.diag([0.0, -1.0 / (2.0 * kappa - 1.0)])
        ok &= bool(np.abs(lhs - expected).max() <= 1e-12)
        ok &= cert.valid
    for kappa in (2.0, 10.0, 1e2, 1e4, 1e6):
        _, cert = na_certificate(kappa, 1.0)
        ok &= cert.valid
    for kappa in np.logspace(0.0, 6.0, 50):
        _, cert = na_certificate(float(kappa), 1.0)
        ok &= cert.bound <= 4.08 * q_bounds(Algo.NA, float(kappa), 1)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(4, f"GD residual formula (1e-12), NA certificates valid to "
               f"kappa=1e6, bound <= 4.08 reference ({elapsed:.2f}s < 1s)", ok)


def test_criterion_05_nesterov_stability():
    rng = np.random.default_rng(105)
    disagreements = 0
    checked = 0
    while checked < 10000:
        m = float(rng.uniform(0.01, 2.0))
        L = m * float(rng.uniform(1.0, 100.0))
        beta = float(rng.uniform(0.0, 0.9999))
        alpha = float(rng.uniform(1e-4, 3.0 / L))
        cfg = AlgoConfig(algo=Algo.NA, alpha=alpha, beta=beta)
        rho = 0.0
        for lam in (m, L):
            a, b = companion_coefficients(cfg, lam)
            a_hat = np.array([[0.0, 1.0], [a, b]])
            rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(a_hat)))))
        if abs(rho - 1.0) < 1e-10:
            continue  # boundary band excluded
        checked += 1
        # The paper's threshold m < (2 beta + 2) / (alpha kappa (2 beta + 1)).
        threshold = m < (2.0 * beta + 2.0) / (alpha * (L / m)
                                              * (2.0 * beta + 1.0))
        try:
            check_stable(cfg, make_spectrum([m, L]))
            stable = True
        except Unstable:
            stable = False
        if not threshold == stable == (rho < 1.0):
            disagreements += 1
    _report(5, "stability threshold and check_stable match numerical "
               "spectral radius on 10000 configs (boundary band excluded)",
            disagreements == 0)


def test_criterion_06_hb_tradeoff():
    rng = np.random.default_rng(106)
    ok = True
    for kappa in (10.0, 1e2, 1e3):
        s = make_spectrum([1.0, kappa])
        for mode in (SigmaMode.FIXED, SigmaMode.EQUALS_ALPHA):
            count = 0
            while count < 1000:
                beta = float(rng.uniform(0.0, 1.0))
                alpha = float(rng.uniform(1e-6, 2.0 * (1.0 + beta) / kappa))
                cfg = AlgoConfig(algo=Algo.HB, alpha=alpha, beta=beta,
                                 sigma=float(rng.uniform(0.1, 3.0)),
                                 sigma_mode=mode)
                if float(np.max(modal_spectral_radius(
                        cfg, s.values))) >= 1.0 - 1e-9:
                    continue
                count += 1
                rep = variance_amplification(cfg, s)
                if mode == SigmaMode.EQUALS_ALPHA:
                    floor = (kappa / (8.0 * s.L)) ** 2
                else:
                    floor = (cfg.sigma * (kappa + 1.0) / 8.0) ** 2
                ok &= rep.j / (1.0 - rep.rho) >= floor * (1 - 1e-12)
    _report(6, "J/(1-rho) >= variance floor for 1000 stable HB tunings at "
               "each kappa, both noise modes", ok)


def test_criterion_07_torus_scaling():
    t0 = time.monotonic()
    ok = True
    cases = [
        (Algo.GD, 1, [32, 64, 128, 256, 384, 512], ("slope", 0.5, 0.1)),
        (Algo.GD, 2, [32, 64, 128, 256, 384, 512], ("regime",
                                                    Regime.LOGARITHMIC)),
        (Algo.GD, 3, [16, 24, 32, 48, 64, 96], ("abs_slope", 0.05)),
        (Algo.NA, 1, [32, 64, 128, 256, 384, 512], ("slope", 1.0, 0.1)),
        (Algo.NA, 3, [16, 24, 32, 48, 64, 96], ("slope", 0.25, 0.1)),
        (Algo.NA, 4, [8, 12, 16, 24, 32, 40], ("regime", Regime.LOGARITHMIC)),
        (Algo.HB, 3, [16, 24, 32, 48, 64, 96], ("slope", 0.5, 0.1)),
        (Algo.HB, 4, [8, 12, 16, 24, 32, 40], ("slope", 0.5, 0.1)),
    ]
    for algo, d, n0s, check in cases:
        res = scaling_sweep(algo, d, n0s)
        if check[0] == "slope":
            ok &= abs(res.slope - check[1]) <= check[2]
        elif check[0] == "abs_slope":
            ok &= abs(res.slope) <= check[1]
        else:
            ok &= res.regime == check[1]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _report(7, f"torus scaling slopes/regimes match theory for GD/HB/NA in "
               f"d=1..4 ({elapsed:.1f}s < 60s)", ok)


def test_criterion_08_monte_carlo_agreement():
    s = make_spectrum([1.0, 9.0])
    ok = True
    for algo in (Algo.GD, Algo.HB, Algo.NA):
        cfg = _table2_cfg(algo, 1.0, 9.0)
        exact = variance_amplification(cfg, s).j
        res = simulate(cfg, Quadratic(s), 1_000_000, seed=7)
        ok &= abs(res.j_hat - exact) <= 0.03 * exact
    # ensemble mode tracks the covariance recursion
    st = make_spectrum(2.0 - 2.0 * np.cos(np.arange(1, 51) * np.pi / 51.0))
    cfg = _table2_cfg(Algo.NA, st.m, st.L)
    ens = ensemble_variance(cfg, Quadratic(st), 1000, 20, seed=3)
    theory = propagate_covariance(cfg, st, 1001)
    for t in range(100, 1001, 100):  # 10 checkpoints
        se = max(float(ens.per_step_stderr[t]), 1e-12)
        ok &= abs(float(ens.per_step[t]) - theory[t]) <= 5.0 * se
    _report(8, "seeded Monte Carlo within 3% of exact J (T=1e6) and "
               "ensemble within 5 SE of the covariance recursion", ok)


def test_criterion_09_acceleration_floor_and_gd_half_factor():
    ok = True
    ratios = []
    for kappa in (1e2, 1e3, 1e4):
        res = tune_constrained(Algo.HB, make_spectrum([1.0, kappa]))
        ratios.append(res.j / kappa ** 1.5)
    for a, b in zip(ratios, ratios[1:]):
        ok &= (max(a, b) / min(a, b)) <= 10.0
    rng = np.random.default_rng(109)
    for _ in range(10):
        m, L = 1.0, float(rng.uniform(3.0, 100.0))
        inner = rng.uniform(m, L, size=4)
        s = make_spectrum(np.concatenate([[m, L], inner, m + L - inner]))
        res = tune_constrained(Algo.GD, s, cap_constant=0.01)
        j_rate = variance_amplification(
            AlgoConfig(algo=Algo.GD, alpha=2.0 / (L + m)), s).j
        ok &= res.j >= 0.5 * j_rate - 1e-9
        ok &= res.j <= j_rate * (1 + 1e-9)
    _report(9, "accelerated variance floor J/kappa^1.5 bounded across kappa "
               "and GD variance-optimal within factor 2 of rate-optimal", ok)


def test_criterion_10_pseudo_huber_respects_certificate():
    m, L, n = 1.0, 10.0, 4
    tp = conventional_params(Algo.NA, m, L)
    cfg = AlgoConfig(algo=Algo.NA, alpha=tp.alpha, beta=tp.beta,
                     sigma_mode=SigmaMode.EQUALS_ALPHA)
    _, cert = na_certificate(L / m, L, n=n)
    bound = cert.bound * cfg.effective_sigma ** 2
    res = simulate(cfg, PseudoHuber(m, L, n), 1_000_000, seed=11,
                   track_per_step=True)
    # batch-means standard error of the time average
    sq = np.asarray(res.per_step[1:])
    batches = sq[:len(sq) // 100 * 100].reshape(100, -1).mean(axis=1)
    se = float(batches.std(ddof=1)) / math.sqrt(len(batches))
    ok = res.j_hat <= bound + 3.0 * se
    _report(10, f"pseudo-Huber simulation (J_hat={res.j_hat:.4f}) within "
                f"certified bound {bound:.4f} + 3 SE", ok)
