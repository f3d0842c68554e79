import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from noiseamp import (Algo, AlgoConfig, EmptySpectrum, NonPositiveEigenvalue,
                      Spectrum, TorusSpec, make_spectrum, torus_spectrum,
                      variance_amplification)
from noiseamp.spectrum import MODES_PER_CHUNK


def test_sorting_and_accessors():
    s = make_spectrum([2.0, 9.0, 1.0, 4.0])
    assert list(s.values) == [9.0, 4.0, 2.0, 1.0]
    assert s.m == 1.0
    assert s.L == 9.0
    assert s.kappa == 9.0
    assert s.n == 4
    assert len(s) == 4


def test_single_eigenvalue():
    s = make_spectrum([3.0])
    assert s.m == s.L == 3.0
    assert s.kappa == 1.0


def test_empty_raises():
    with pytest.raises(EmptySpectrum):
        make_spectrum([])


@pytest.mark.parametrize("bad", [[1.0, 0.0], [-2.0], [1.0, float("nan")],
                                 [float("inf")]])
def test_nonpositive_raises(bad):
    with pytest.raises(NonPositiveEigenvalue):
        make_spectrum(bad)


def test_counts_weight_every_sum():
    # A spectrum with multiplicities keeps its order and counts each value.
    s = Spectrum(values=np.array([2.0, 0.1, 3.0]), counts=np.array([4, 1, 2]))
    assert (s.m, s.L, s.kappa) == (0.1, 3.0, 30.0)
    assert s.n == len(s) == 7
    assert list(s.values) == [2.0, 0.1, 3.0]
    expanded = np.repeat(s.values, s.counts)
    assert s.sum(1.0 / s.values) == math.fsum(1.0 / expanded)
    assert make_spectrum(expanded).sum(expanded) == s.sum(s.values)


def _exact_row_sum(row):
    """The float sum of a row's non-finite terms if it has any, else its
    exact sum rounded once (+-inf past the largest double)."""
    special = [x for x in row if not math.isfinite(x)]
    if special:
        return sum(special)
    total = sum(map(Fraction, row))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


_TERMS = st.one_of(
    st.floats(), st.sampled_from([1e308, -1e308, math.inf, -math.inf,
                                  math.nan]))


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=6),
              elements=_TERMS))
@example(np.array([1e308, 1e308, -1e308]))
@example(np.array([[math.inf, -math.inf, 1.0], [1e308, 1e308, math.nan]]))
def test_explicit_and_multiset_sums_agree_and_never_raise(terms):
    # An explicit spectrum (math.fsum, which raises on an intermediate
    # overflow or on inf - inf) and the same modes counted once each
    # (the exact fold) give the same exactly rounded sums.
    modes = np.arange(1.0, terms.shape[-1] + 1.0)
    explicit = Spectrum(values=modes).sum(terms)
    multiset = Spectrum(values=modes,
                        counts=np.ones(modes.size, np.int64)).sum(terms)
    if terms.ndim == 1:
        assert type(explicit) is type(multiset) is float
    rows = np.atleast_2d(terms)
    expected = [_exact_row_sum(row) for row in rows.tolist()]
    np.testing.assert_array_equal(np.atleast_1d(explicit), expected)
    np.testing.assert_array_equal(np.atleast_1d(multiset), expected)
    if terms.tolist() == [1e308, 1e308, -1e308]:
        assert explicit == 1e308


def _exact_weighted_sum(row, counts):
    """sum(term * count) in exact arithmetic, rounded once."""
    return float(sum(Fraction(t) * c for t, c in zip(row, counts.tolist())))


@pytest.mark.parametrize("bits", [34, 52, 53, 60, 62])
def test_huge_counts_sum_exactly(bits):
    # Counts from 2**35 on are cut into digits before the float bincounts
    # (a count of 2**52 once left no bits per mantissa digit, and counts
    # above 2**53 lost bits as floats).
    counts = np.array([1, 2 ** bits, 2 ** bits - 1, 2 ** 63 - 1])
    s = Spectrum(values=np.array([3.0, 1.0, 0.5, 2.0]), counts=counts)
    terms = np.array([[0.1, 1 / 3, -2.5e-7, 1e-300],
                      [1e300, -1e280, 5e-324, 7.0]])
    for row, total in zip(terms, s.sum(terms).tolist()):
        assert total == _exact_weighted_sum(row, counts)
        assert s.sum(row) == total
    s = Spectrum(values=np.array([3.0, 1.0]), counts=np.array([1, 2 ** bits]))
    rep = variance_amplification(AlgoConfig(algo=Algo.GD, alpha=0.5), s)
    assert rep.j == _exact_weighted_sum(rep.per_mode, s.counts)
    assert rep.j == pytest.approx(4 / 3 * 2.0 ** bits)


def test_huge_counts_over_many_chunks_sum_exactly():
    # Random int64 counts over two chunks, a few of them small.
    rng = np.random.default_rng(3)
    size = MODES_PER_CHUNK + 5
    counts = rng.integers(0, 2 ** 63 - 1, size, dtype=np.int64,
                          endpoint=True)
    counts[:100] = rng.integers(0, 50, 100)
    terms = rng.standard_normal((2, size)) * 10.0 ** rng.uniform(
        -30, 30, (2, size))
    sums = Spectrum(values=np.ones(size), counts=counts).sum(terms)
    for row, total in zip(terms, sums.tolist()):
        assert total == _exact_weighted_sum(row, counts)


@pytest.mark.parametrize("counts", [[2 ** 62, 2 ** 62], [2 ** 63 - 1] * 3,
                                    [2 ** 62 - 1, 1], [3, 2 ** 63 - 1]])
def test_total_multiplicity_is_exact_past_int64(counts):
    # An int64 sum wraps from 2**63 on: counts [2**62, 2**62] once gave
    # n = -2**63.  n is the exact total, as the one summed term by term.
    s = Spectrum(values=np.arange(1.0, len(counts) + 1.0),
                 counts=np.array(counts))
    assert type(s.n) is int and s.n == sum(counts)
    assert s.sum(np.ones(len(counts))) == float(sum(counts))


def test_reading_n_on_a_torus_allocates_no_list_of_its_counts():
    # n is summed once, at construction: a read of it on the 125,750
    # modes of this torus allocates nothing as large as their counts.
    s = torus_spectrum(TorusSpec(2, 1000))
    tracemalloc.start()
    try:
        n = s.n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1000 ** 2 - 1 and type(n) is int
    assert peak < 64 * 1024, peak
