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

    def sum(self, terms: np.ndarray) -> float | np.ndarray:
        """Exactly rounded sum of terms aligned with ``values``.

        Rows x modes ``terms`` give an array of row sums.
        """
        if self.counts is not None:
            return _weighted_sum(terms, self.counts)
        if terms.ndim == 1:
            return math.fsum(terms)  # the same rounding, without the setup
        return np.array([math.fsum(row) for row in terms.tolist()])


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


# Bins per exponent (a power of two): adjacent terms add independently.
_LANES = 4


def _weighted_sum(values: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """sum(values * weights) rounded once, as math.fsum of the expanded list.

    Every value is an integer mantissa times a power of two.  The mantissa
    is cut into digits of 53 - log2(weight sum) bits, so that per exponent
    np.bincount adds digit * weight in float64 exactly: every partial sum
    is an integer below 2**53.  Python integers then add the per-exponent
    sums and round the total once.  Needs nonnegative integer weights with
    sum below 2**35 (at most three digits).  Rows x modes ``values`` give
    an array of row sums, one bincount per digit serving every row.
    """
    rows = np.atleast_2d(values)
    out = np.empty(len(rows))
    finite = np.isfinite(rows).all(axis=1)
    for i in np.flatnonzero(~finite):
        out[i] = math.fsum(rows[i] * weights)
    if finite.any():
        out[finite] = _digit_sums(rows[finite] if not finite.all() else rows,
                                  weights)
    return out if values.ndim == 2 else float(out[0])


def _digit_sums(rows: np.ndarray, weights: np.ndarray) -> list[float]:
    """Exactly rounded weighted sums of finite rows (see _weighted_sum)."""
    digit_bits = 53 - int(weights.sum()).bit_length()
    mant, expo = np.frexp(rows)
    mant = (mant * 2.0 ** 53).astype(np.int64)
    low = expo.min(axis=1, keepdims=True)
    width = int(expo.max() - low.min()) + 1
    # Bin (row, exponent, lane); the lanes split runs of equal exponents,
    # whose additions would otherwise wait on each other.  Built in place,
    # as are the digits: these arrays are as large as the spectrum.
    bins = expo.astype(np.intp)
    del expo
    bins -= low
    bins += width * np.arange(len(rows))[:, None]
    bins *= _LANES
    bins += np.arange(rows.shape[1]) & (_LANES - 1)
    weights = weights.astype(float)
    totals = [0] * len(rows)
    for shift in range(0, 53, digit_bits):
        digit = mant >> shift
        if shift + digit_bits < 53:
            digit &= (1 << digit_bits) - 1
        digit = digit * weights
        sums = np.bincount(bins.ravel(), weights=digit.ravel(),
                           minlength=len(rows) * width * _LANES)
        sums = sums.reshape(-1, _LANES).sum(axis=1)
        nz = np.flatnonzero(sums)
        for b, v in zip(nz.tolist(), sums[nz].tolist()):
            row, e = divmod(b, width)
            totals[row] += int(v) << (e + shift)
    out = []
    for total, scale in zip(totals, (low.ravel() - 53).tolist()):
        out.append(float(total << scale) if scale >= 0
                   else total / (1 << -scale))
    return out
