"""Property tests over random stable configurations of every preset."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiseamp import (Algo, AlgoConfig, convergence_rate, make_spectrum,
                      modal_spectral_radius, variance_amplification,
                      variance_via_eigenvalues, variance_via_lyapunov)

# Derandomized, so that tier-1 runs the same examples every time.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

spectra = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=20)


@st.composite
def configs(draw, max_fraction=0.95):
    """(cfg, spectrum), with alpha a fraction of the preset's stability edge.

    On the spectrum's largest eigenvalue L every preset is stable exactly
    when alpha L (1 + 2 gamma) < 2 (1 + beta); ``max_fraction`` > 1 also
    draws unstable configurations.
    """
    algo = draw(st.sampled_from(list(Algo)))
    s = make_spectrum(draw(spectra))
    beta = 0.0 if algo == Algo.GD else draw(st.floats(0.0, 0.95))
    gamma = beta if algo == Algo.NA else 0.0
    edge = 2.0 * (1.0 + beta) / ((1.0 + 2.0 * gamma) * s.L)
    alpha = draw(st.floats(0.01, max_fraction)) * edge
    sigma = draw(st.floats(0.1, 2.0))
    return AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=sigma), s


@PROPERTY
@given(configs(), st.floats(1e-3, 1e3))
def test_scale_invariance(case, c):
    # J depends on (alpha, lambda) only through mu = alpha lambda.
    cfg, s = case
    j = variance_amplification(cfg, s).j
    scaled = variance_amplification(replace(cfg, alpha=cfg.alpha / c),
                                    make_spectrum(c * s.values)).j
    assert scaled == pytest.approx(j, rel=1e-12)


@PROPERTY
@given(configs(), st.floats(0.01, 100.0))
def test_variance_is_proportional_to_sigma_squared(case, sigma):
    cfg, s = case
    unit = variance_amplification(replace(cfg, sigma=1.0), s).j
    j = variance_amplification(replace(cfg, sigma=sigma), s).j
    assert j == pytest.approx(sigma * sigma * unit, rel=1e-12)


@PROPERTY
@given(configs())
def test_three_routes_agree(case):
    cfg, s = case
    j = variance_amplification(cfg, s).j
    assert variance_via_lyapunov(cfg, s) == pytest.approx(j, rel=1e-10)
    assert variance_via_eigenvalues(cfg, s) == pytest.approx(j, rel=1e-10)


@settings(PROPERTY, max_examples=400)
@given(configs(max_fraction=1.5))
def test_rate_at_extremes_equals_full_scan(case):
    cfg, s = case
    scan = float(np.max(modal_spectral_radius(cfg, s.values)))
    assert convergence_rate(cfg, s) == scan
