import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiseamp import (Algo, AlgoConfig, ConsensusRecord, Quadratic, Regime,
                      SizeOverflow, TorusSpec, Unstable, consensus_variance,
                      convergence_rate, hb_gd_ratio, make_spectrum,
                      optimal_quadratic_params, propagate_covariance,
                      scaling_sweep, torus_eigenvalues, torus_spectrum,
                      variance_amplification)
from noiseamp.spectrum import _weighted_sum
from noiseamp.variance import _modal_variance_raw


def _nonzero_lattice(t):
    """Every node's nonzero eigenvalue: the full-lattice reference."""
    eigs = torus_eigenvalues(t)
    return eigs[eigs > 0.0]


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
        assert len(torus_spectrum(t)) == t.n - 1


def test_largest_eigenvalue_and_conditioning():
    # lambda_max = 4d for even n0; kappa grows like n0^2.
    for d in (1, 2, 3):
        ratios = []
        for n0 in (8, 16, 32):
            t = TorusSpec(d=d, n0=n0)
            s = torus_spectrum(t)
            assert s.L == pytest.approx(4.0 * d, rel=1e-12)
            ratios.append(s.kappa / n0 ** 2)
        assert max(ratios) / min(ratios) < 1.2


def test_mirror_symmetry_of_spectrum():
    # The map k -> n0 - k preserves each axis spectrum, bit for bit.
    for n0 in range(3, 65):
        eigs = torus_eigenvalues(TorusSpec(d=1, n0=n0))
        assert eigs[1:].tobytes() == eigs[1:][::-1].tobytes()


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


def _explicit_record(t, cfg):
    """The record of ``cfg`` on ``t``, built as the CLI's --params explicit
    builds it."""
    return ConsensusRecord.from_report(
        t, variance_amplification(cfg, torus_spectrum(t)))


def test_explicit_config_override():
    t = TorusSpec(d=1, n0=8)
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.2)
    rec = _explicit_record(t, cfg)
    lams = _nonzero_lattice(t)
    expected = math.fsum(1.0 / (0.2 * l * (2.0 - 0.2 * l)) for l in lams)
    assert rec.jbar == pytest.approx(expected, rel=1e-12)


def test_explicit_unstable_config_raises():
    # GD on a 2-d torus with even n0 has L = 8: alpha = 1.5 gives rho = 11.
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.5)
    with pytest.raises(Unstable) as exc:
        _explicit_record(TorusSpec(d=2, n0=8), cfg)
    assert exc.value.lam == pytest.approx(8.0)
    assert exc.value.rho == pytest.approx(11.0)


def test_sigma_scaling():
    t = TorusSpec(d=2, n0=6)
    base = consensus_variance(Algo.NA, t, sigma=1.0).jbar
    assert consensus_variance(Algo.NA, t, sigma=3.0).jbar == pytest.approx(
        9.0 * base, rel=1e-12)


def test_scaling_sweep_regimes():
    r = scaling_sweep(Algo.GD, 1, [32, 64, 128, 256])
    assert r.regime == Regime.POWER_LAW
    assert r.slope == pytest.approx(0.5, abs=0.1)
    assert [row.n0 for row in r.rows] == [32, 64, 128, 256]
    r = scaling_sweep(Algo.GD, 3, [8, 12, 16, 24, 32, 40])
    assert r.regime == Regime.CONSTANT
    with pytest.raises(ValueError):
        scaling_sweep(Algo.GD, 1, [8, 16])


@st.composite
def tori(draw):
    """A torus with 1 <= d <= 5, n0 >= 3 and at most 2e5 nodes."""
    d = draw(st.integers(1, 5))
    n0 = draw(st.integers(3, math.floor(2e5 ** (1.0 / d) + 1e-9)))
    return TorusSpec(d=d, n0=n0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(list(Algo)), tori())
def test_multiset_sums_match_full_lattice(algo, t):
    # The reference is the full-lattice evaluation: every node's eigenvalue,
    # one math.fsum over all of them.
    lams = _nonzero_lattice(t)
    m, L = float(lams.min()), float(lams.max())
    p = optimal_quadratic_params(algo, m, L)
    cfg = AlgoConfig(algo=algo, alpha=p.alpha, beta=p.beta)
    rec = consensus_variance(algo, t)
    assert rec.kappa == L / m
    assert rec.rho == convergence_rate(cfg, make_spectrum(lams))
    jbar = math.fsum(_modal_variance_raw(cfg, lams))
    if t.d <= 2:
        assert rec.jbar == jbar
    else:
        # A multiset's axis values are added in one order; the lattice adds
        # them in every order, which can round apart by an ulp.
        assert rec.jbar == pytest.approx(jbar, rel=1e-14, abs=0.0)
    s = torus_spectrum(t)
    assert s.n == t.n - 1
    # analyze --torus and consensus share one path.
    rep = variance_amplification(cfg, s)
    assert rep.j == rec.jbar
    if t.d <= 2:
        assert rep.j_prime == math.fsum(_modal_variance_raw(cfg, lams) * lams)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tori())
def test_one_mode_per_multiset_of_distinct_axis_values(t):
    # An axis has n0 // 2 + 1 distinct values, so the nonzero spectrum has
    # one mode per multiset of d of them, less the all-zero one.
    s = torus_spectrum(t)
    assert s.values.size == math.comb(t.n0 // 2 + t.d, t.d) - 1


def test_weighted_sum_is_exact():
    # Reference: math.fsum with every weight split into powers of two, so
    # that each product value * 2**bit is exact.
    rng = np.random.default_rng(7)
    for trial in range(200):
        size = int(rng.integers(1, 500))
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size)
        if trial % 2:
            values = np.abs(values)
        weights = rng.integers(0, 4000, size)
        parts = [values * (weights & (1 << bit)) for bit in range(12)]
        assert _weighted_sum(values, weights) == math.fsum(
            np.concatenate(parts))


def _fsum_reference(values, weights, bits):
    parts = [values * (weights & (1 << bit)) for bit in range(bits)]
    return math.fsum(np.concatenate(parts))


def test_weighted_sum_of_rows_is_exact_per_row():
    # Rows x modes give each row's exactly rounded sum; rows of different
    # scales share one bincount per digit, and a non-finite row falls back
    # to fsum alone.  Weight sums near 2**35 take three digits.
    rng = np.random.default_rng(8)
    for trial in range(60):
        rows, size = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        scale = 10.0 ** rng.uniform(-30, 30, (rows, 1))
        values = rng.standard_normal((rows, size)) * scale
        top = 4000 if trial % 2 else 2 ** 34 // size
        weights = rng.integers(0, top, size)
        if trial % 5 == 0:
            values[0, 0] = math.inf
        sums = _weighted_sum(values, weights)
        assert sums.shape == (rows,)
        for row, total in zip(values, sums.tolist()):
            if np.isfinite(row).all():
                assert total == _weighted_sum(row, weights)
                assert total == _fsum_reference(row, weights, 35)
            else:
                assert total == math.inf


def test_rho_at_names_the_extreme_that_sets_rho():
    # 2-d torus, n0 = 8: m = 2 - sqrt(2), L = 8.  GD's radius is
    # max(1 - alpha m, alpha L - 1).
    t = TorusSpec(d=2, n0=8)
    small = _explicit_record(t, AlgoConfig(algo=Algo.GD, alpha=0.05))
    assert small.rho_at == "m"
    assert small.rho == pytest.approx(1.0 - 0.05 * (2.0 - math.sqrt(2.0)))
    large = _explicit_record(t, AlgoConfig(algo=Algo.GD, alpha=0.24))
    assert large.rho_at == "L"
    assert large.rho == pytest.approx(0.24 * 8.0 - 1.0)
    assert large.to_dict()["rho_at"] == "L"
    rows = scaling_sweep(Algo.NA, 2, [8, 12, 16, 24]).to_dict()["rows"]
    assert all(row["rho_at"] in ("m", "L") for row in rows)


def test_torus_spectrum_expands_for_simulation():
    # Quadratic repeats each eigenvalue by its count, in descending order,
    # and the transient variance counts each mode with its multiplicity.
    t = TorusSpec(d=2, n0=5)
    s = torus_spectrum(t)
    full = make_spectrum(_nonzero_lattice(t))
    assert list(Quadratic(s).lams) == list(full.values)
    cfg = AlgoConfig(algo=Algo.HB, alpha=0.1, beta=0.4)
    np.testing.assert_allclose(propagate_covariance(cfg, s, 30),
                               propagate_covariance(cfg, full, 30),
                               rtol=1e-13, atol=0.0)
