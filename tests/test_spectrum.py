import math

import numpy as np
import pytest

from noiseamp import (EmptySpectrum, NonPositiveEigenvalue, Spectrum,
                      make_spectrum)


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
