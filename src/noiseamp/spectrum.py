"""Eigenvalue spectra of strongly convex quadratic objectives.

A spectrum is the multiset of Hessian eigenvalues 0 < m <= ... <= L.  All
closed-form variance results in this package are sums over these modal
eigenvalues.  An explicit spectrum (:func:`make_spectrum`) lists every
eigenvalue, sorted descending; a torus Laplacian (:mod:`noiseamp.consensus`)
lists its modes unsorted, each with its multiplicity in ``counts``.  Every
per-mode sum (:meth:`Spectrum.sum`) counts each term with its multiplicity
and rounds once, to +-inf or nan where a term is not finite or the sum
leaves double range, and never raises; it adds MODES_PER_CHUNK modes at a
time, exactly (:func:`_chunked_sums`), and rounds after the last.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySpectrum, NonPositiveEigenvalue


@dataclass(frozen=True)
class Spectrum:
    """Multiset of positive Hessian eigenvalues.

    ``counts`` holds the multiplicity of each entry of ``values`` (None:
    each is listed once).  ``m``, ``L`` and ``n``, the total multiplicity
    exactly (the problem dimension), are read at construction.
    """

    values: np.ndarray
    counts: np.ndarray | None = None
    m: float = field(init=False)
    L: float = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.values.min()))
        object.__setattr__(self, "L", float(self.values.max()))
        counts = self.counts
        if counts is None:
            n = self.values.size
        elif counts.size * int(counts.max()) < 2 ** 63:
            n = int(counts.sum())
        else:  # an int64 sum would wrap: add Python ints
            n = sum(counts.tolist())
        object.__setattr__(self, "n", n)

    @property
    def kappa(self) -> float:
        return self.L / self.m

    def __len__(self) -> int:
        return self.n

    def sum(self, terms: np.ndarray) -> float | np.ndarray:
        """Exactly rounded sum of terms aligned with ``values``, as
        :func:`_chunked_sums` gives it; never raises.

        Rows x modes ``terms`` give an array of row sums.
        """
        counts = self.counts
        if counts is None:
            try:  # the same rounding, without the setup
                if terms.ndim == 1:
                    return math.fsum(terms)
                return np.array([math.fsum(row) for row in terms.tolist()])
            except (OverflowError, ValueError):  # overflow, or inf - inf
                counts = np.ones(self.values.size, np.int64)
        rows = np.atleast_2d(terms)
        sums = _chunked_sums(
            ((rows[:, i:i + MODES_PER_CHUNK], counts[i:i + MODES_PER_CHUNK])
             for i in range(0, rows.shape[1], MODES_PER_CHUNK)), len(rows))
        return sums if terms.ndim == 2 else float(sums[0])


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


# Modes per chunk of a chunked sum or enumeration: small enough that a
# chunk's temporaries (128 KiB per float64 array) stay in cache, large
# enough that the per-chunk Python overhead stays small.  On a 2-CPU x86 VM,
# 4,096 paid that overhead and 65,536 faulted in fresh pages.
MODES_PER_CHUNK = 16_384

# Bins per exponent (a power of two): adjacent terms add independently.
# The lane of each mode of a chunk, built once.
_LANES = 4
_LANE_OF = np.arange(MODES_PER_CHUNK) & (_LANES - 1)

# Exact sums are integers in units of 2**-_UNIT_BITS: frexp's least
# exponent, -1073, less the 53 bits of a mantissa.
_UNIT_BITS = 1126

# A chunk whose weights total below 2**_DIRECT_BITS (every torus: it has
# fewer than 2**24 lattice points) cuts mantissas into digits of 18 bits
# or more, at most three; heavier weights are cut into digits first.
_DIRECT_BITS = 35


def _chunked_sums(chunks: Iterable[tuple[np.ndarray, np.ndarray]],
                  n_rows: int) -> np.ndarray:
    """Row sums of terms * weights over (rows x modes terms, weights)
    chunks, each rounded once; never raises.

    The finite terms of each chunk add exactly (:func:`_exact_sums`) and
    the totals round after the last chunk, to +-inf past the largest
    double.  A row with a non-finite term sums to the float sum of its
    non-finite terms (inf or nan), with no product formed: a finite term
    times its weight could overflow.
    """
    exact = [0] * n_rows
    special = np.zeros(n_rows)
    for terms, weights in chunks:
        finite = np.isfinite(terms)
        if not finite.all():
            with np.errstate(invalid="ignore"):  # inf - inf is nan
                special += np.where(finite, 0.0, terms).sum(axis=1)
            terms = np.where(finite, terms, 0.0)
        exact = list(map(operator.add, exact, _exact_sums(terms, weights)))
    return np.array([other if other else _rounded(total)
                     for total, other in zip(exact, special.tolist())])


def _rounded(total: int) -> float:
    """total * 2**-_UNIT_BITS rounded once; +-inf past the largest double."""
    try:
        return total / (1 << _UNIT_BITS)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _exact_sums(rows: np.ndarray, weights: np.ndarray) -> list[int]:
    """Exact weighted sums of finite rows, in units of 2**-_UNIT_BITS.

    Every value is an integer mantissa times a power of two.  The mantissa
    is cut into digits of 53 - log2(weight sum) bits, so that per exponent
    np.bincount adds digit * weight in float64 exactly: every partial sum
    is an integer below 2**53.  Python integers then add the per-exponent
    sums.  One bincount per digit serves every row; its arrays are as
    large as one chunk of modes.  Takes any nonnegative int64 weights:
    where they total 2**_DIRECT_BITS or more, each weight is cut into
    digits of _DIRECT_BITS - log2(modes) bits, whose totals stay below
    that, and the sums over each weight digit are shifted into place.
    """
    fweights = weights.astype(float)
    total = fweights.sum()  # exact below 2**53, and 2**53 or more above
    if not total < 2.0 ** _DIRECT_BITS:
        bits = _DIRECT_BITS - rows.shape[1].bit_length()
        shifts = range(0, 63, bits)
        parts = [_exact_sums(rows, (weights >> shift) & ((1 << bits) - 1))
                 for shift in shifts]
        return [sum(map(operator.lshift, row, shifts)) for row in zip(*parts)]
    digit_bits = 53 - int(total).bit_length()
    mant, expo = np.frexp(rows)
    mant = (mant * 2.0 ** 53).astype(np.int64)
    low = expo.min(axis=1, keepdims=True)
    width = int(expo.max() - low.min()) + 1
    # Bin (row, exponent, lane); the lanes split runs of equal exponents,
    # whose additions would otherwise wait on each other.  Built in place,
    # as are the digits.
    bins = expo.astype(np.intp)
    del expo
    bins -= low
    if len(rows) > 1:
        bins += width * np.arange(len(rows))[:, None]
    bins *= _LANES
    cols = rows.shape[1]
    bins += (_LANE_OF[:cols] if cols <= _LANE_OF.size
             else np.arange(cols) & (_LANES - 1))
    totals = [0] * len(rows)
    row_starts = width * np.arange(len(rows) + 1)
    for shift in range(0, 53, digit_bits):
        digit = mant >> shift
        if shift + digit_bits < 53:
            digit &= (1 << digit_bits) - 1
        digit = digit * fweights
        sums = np.bincount(bins.ravel(), weights=digit.ravel(),
                           minlength=len(rows) * width * _LANES)
        sums = sums.reshape(-1, _LANES).sum(axis=1)
        # Each row's nonzero bins, as Python ints shifted into place.
        nz = np.flatnonzero(sums)
        ints = sums[nz].astype(np.int64).tolist()
        shifts = (nz % width + shift).tolist()
        cuts = np.searchsorted(nz, row_starts).tolist()
        for row, (a, b) in enumerate(zip(cuts, cuts[1:])):
            totals[row] += sum(map(operator.lshift, ints[a:b], shifts[a:b]))
    return [total << (scale + _UNIT_BITS)
            for total, scale in zip(totals, (low.ravel() - 53).tolist())]
