"""Eigenvalue spectra of strongly convex quadratic objectives.

A spectrum is the multiset of Hessian eigenvalues 0 < m <= ... <= L.  All
closed-form variance results in this package are sums over these modal
eigenvalues.  An explicit spectrum (:func:`make_spectrum`) lists every
eigenvalue, sorted descending; a torus Laplacian (:mod:`noiseamp.consensus`)
lists its modes unsorted, each with its multiplicity in ``counts``.  Every
per-mode sum (:meth:`Spectrum.sum`) counts each term with its multiplicity
and rounds once, so it equals ``math.fsum`` of the expanded list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySpectrum, NonPositiveEigenvalue


@dataclass(frozen=True)
class Spectrum:
    """Multiset of positive Hessian eigenvalues.

    ``counts`` holds the multiplicity of each entry of ``values`` (None:
    each is listed once).  ``m`` and ``L`` are read at construction.
    """

    values: np.ndarray
    counts: np.ndarray | None = None
    m: float = field(init=False)
    L: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.values.min()))
        object.__setattr__(self, "L", float(self.values.max()))

    @property
    def n(self) -> int:
        """Total multiplicity: the problem dimension."""
        counts = self.counts
        return self.values.size if counts is None else int(counts.sum())

    @property
    def kappa(self) -> float:
        return self.L / self.m

    def __len__(self) -> int:
        return self.n

    def sum(self, terms: np.ndarray) -> float:
        """Exactly rounded sum of terms aligned with ``values``."""
        if self.counts is None:
            return math.fsum(terms)  # the same rounding, without the setup
        return _weighted_sum(terms, self.counts)


def make_spectrum(values: Iterable[float] | Sequence[float]) -> Spectrum:
    """Validate and sort eigenvalues into a :class:`Spectrum`.

    Raises :class:`EmptySpectrum` for an empty input and
    :class:`NonPositiveEigenvalue` if any eigenvalue is <= 0 or non-finite.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = np.ravel(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise EmptySpectrum("spectrum must contain at least one eigenvalue")
    if not np.all(np.isfinite(arr)):
        raise NonPositiveEigenvalue("eigenvalues must be finite")
    if np.any(arr <= 0.0):
        bad = float(arr[arr <= 0.0][0])
        raise NonPositiveEigenvalue(f"eigenvalues must be positive, got {bad!r}")
    return Spectrum(values=np.sort(arr)[::-1].copy())


_DIGIT_BITS = 18  # 2**18 * (weight sum < 2**35) stays below 2**53


def _weighted_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """sum(values * weights) rounded once, as math.fsum of the expanded list.

    Every value is an integer mantissa times a power of two.  The mantissa
    is cut into 18-bit digits; per exponent, np.bincount adds digit * weight
    in float64, which is exact because every partial sum is an integer below
    2**53.  Python integers then add the per-exponent sums and round the
    total once.  Needs nonnegative integer weights with sum below 2**35.
    """
    if not np.isfinite(values).all():
        return math.fsum(values * weights)
    mant, expo = np.frexp(values)
    mant = (mant * 2.0 ** 53).astype(np.int64)
    low = int(expo.min())
    expo -= low
    total = 0
    for shift in range(0, 53, _DIGIT_BITS):
        digit = mant >> shift
        if shift + _DIGIT_BITS < 53:
            digit &= (1 << _DIGIT_BITS) - 1
        sums = np.bincount(expo, weights=digit * weights)
        nz = np.flatnonzero(sums)
        total += sum(int(v) << int(e) for e, v in zip(nz, sums[nz])) << shift
    scale = low - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)
