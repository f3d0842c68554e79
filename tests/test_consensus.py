import math

import numpy as np
import pytest

from noiseamp import (Algo, AlgoConfig, Regime, SizeOverflow, TorusSpec,
                      Unstable, consensus_variance, hb_gd_ratio,
                      nonzero_torus_eigenvalues, reciprocal_sum,
                      scaling_sweep, torus_eigenvalues)


def test_torus_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(d=0, n0=8)
    with pytest.raises(ValueError):
        TorusSpec(d=6, n0=8)
    with pytest.raises(ValueError):
        TorusSpec(d=1, n0=2)
    with pytest.raises(SizeOverflow):
        TorusSpec(d=3, n0=300)
    assert TorusSpec(d=3, n0=4).n == 64


def test_ring_eigenvalues():
    eigs = np.sort(torus_eigenvalues(TorusSpec(d=1, n0=4)))
    np.testing.assert_allclose(eigs, [0.0, 2.0, 2.0, 4.0], atol=1e-12)


def test_exactly_one_zero_mode():
    for d, n0 in [(1, 5), (2, 6), (3, 4), (4, 3)]:
        t = TorusSpec(d=d, n0=n0)
        eigs = torus_eigenvalues(t)
        assert eigs.size == t.n
        assert np.count_nonzero(eigs == 0.0) == 1
        assert nonzero_torus_eigenvalues(t).size == t.n - 1


def test_largest_eigenvalue_and_conditioning():
    # lambda_max = 4d for even n0; kappa grows like n0^2.
    for d in (1, 2, 3):
        ratios = []
        for n0 in (8, 16, 32):
            t = TorusSpec(d=d, n0=n0)
            lams = nonzero_torus_eigenvalues(t)
            assert lams.max() == pytest.approx(4.0 * d, rel=1e-12)
            ratios.append((lams.max() / lams.min()) / n0 ** 2)
        assert max(ratios) / min(ratios) < 1.2


def test_mirror_symmetry_of_spectrum():
    # The map i -> n0 - i preserves each axis spectrum.
    axis = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(7) / 7))
    np.testing.assert_allclose(axis[1:], axis[1:][::-1], atol=1e-12)


def test_ring_gd_reference_value():
    rec = consensus_variance(Algo.GD, TorusSpec(d=1, n0=4))
    assert rec.jbar == pytest.approx(27.0 / 8.0, rel=1e-12)
    assert rec.kappa == pytest.approx(2.0, rel=1e-12)
    assert rec.n == 4
    assert rec.jbar_over_n == pytest.approx(27.0 / 32.0, rel=1e-12)


def test_hb_gd_ratio_on_torus():
    t = TorusSpec(d=2, n0=12)
    g = consensus_variance(Algo.GD, t)
    h = consensus_variance(Algo.HB, t)
    assert h.jbar / g.jbar == pytest.approx(hb_gd_ratio(g.kappa), rel=1e-12)


def test_explicit_config_override():
    t = TorusSpec(d=1, n0=8)
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.2)
    rec = consensus_variance(Algo.GD, t, cfg=cfg)
    lams = nonzero_torus_eigenvalues(t)
    expected = math.fsum(1.0 / (0.2 * l * (2.0 - 0.2 * l)) for l in lams)
    assert rec.jbar == pytest.approx(expected, rel=1e-12)


def test_explicit_unstable_config_raises():
    # GD on a 2-d torus with even n0 has L = 8: alpha = 1.5 gives rho = 11.
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.5)
    with pytest.raises(Unstable) as exc:
        consensus_variance(Algo.GD, TorusSpec(d=2, n0=8), cfg=cfg)
    assert exc.value.lam == pytest.approx(8.0)
    assert exc.value.rho == pytest.approx(11.0)


def test_sigma_scaling():
    t = TorusSpec(d=2, n0=6)
    base = consensus_variance(Algo.NA, t, sigma=1.0).jbar
    assert consensus_variance(Algo.NA, t, sigma=3.0).jbar == pytest.approx(
        9.0 * base, rel=1e-12)


def test_reciprocal_sum_growth_law():
    # sum of 1/lambda tracks B(n0) with bounded ratio as n0 doubles.
    for d in (1, 2, 3):
        ratios = [reciprocal_sum(TorusSpec(d=d, n0=n0))["ratio"]
                  for n0 in (16, 32, 64)]
        assert max(ratios) / min(ratios) < 1.6
    # d = 1 exact: sum 1/lambda = (n0^2 - 1) / 12 over the ring.
    out = reciprocal_sum(TorusSpec(d=1, n0=64))
    assert out["sum"] == pytest.approx((64.0 ** 2 - 1.0) / 12.0, rel=1e-10)


def test_scaling_sweep_regimes():
    r = scaling_sweep(Algo.GD, 1, [32, 64, 128, 256])
    assert r.regime == Regime.POWER_LAW
    assert r.slope == pytest.approx(0.5, abs=0.1)
    assert [row.n0 for row in r.rows] == [32, 64, 128, 256]
    r = scaling_sweep(Algo.GD, 3, [8, 12, 16, 24, 32, 40])
    assert r.regime == Regime.CONSTANT
    with pytest.raises(ValueError):
        scaling_sweep(Algo.GD, 1, [8, 16])
