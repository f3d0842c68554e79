"""Noise amplification of distributed averaging over torus networks.

Average consensus over the d-dimensional torus Z_{n0}^d is gradient descent
on the Laplacian quadratic, so its steady-state variance is the sum of the
per-mode closed forms over the nonzero Laplacian eigenvalues

    lambda_i = sum_{l=1..d} 2 (1 - cos(2 pi i_l / n0)),  i in Z_{n0}^d,

with exactly one zero eigenvalue (the consensus direction, dropped).  The
module evaluates J-bar = sum over nonzero modes and per-dimension scaling
sweeps of J-bar / n versus the condition number kappa = Theta(n0^2),
including the log-log slope and growth-regime classification.

:func:`torus_spectrum` lists the nonzero spectrum by eigenvalue multisets,
not by the n0^d lattice points.  An eigenvalue depends only on the multiset
of its d axis values.  Mirror frequencies k and n0 - k have the same axis
value, and both are evaluated at min(k, n0 - k), so they give the same
float too (evaluated apart, most pairs round apart by an ulp).  An axis
then has k = floor(n0 / 2) + 1 distinct values, each with its true
multiplicity.  Each multiset i_1 <= ... <= i_d is one mode, counted with
its lattice points: the product of its values' multiplicities times
d! / prod(run length)!.  That is C(k + d - 1, d) - 1 nonzero modes in place
of n0^d - 1 (176,850 in place of 8e6 for d = 3, n0 = 200).

The tuples grow one axis at a time.  A tuple whose last index is j extends
to one contiguous block of k - j tuples, by the indices j .. k - 1, and the
blocks follow the tuples' order, so the enumeration is a few repeats and
one gather per axis.  Adding an index multiplies the ordering count by the
new size and divides it by the length of the final run.  Only a block's
first entry repeats j, so only there does a run grow past 1 and the count
divide: every other entry is the parent count times the size times the new
value's multiplicity.  Each mode adds its axis values left to right, as the
full-lattice reference :func:`torus_eigenvalues` does, and both take their
axis values from one helper.

:func:`torus_modes` is the one enumeration.  It builds the first d - 1
axis steps whole, at most C(k + d - 2, d - 1) tuples, and yields the last
step a chunk of whole blocks at a time, about spectrum.MODES_PER_CHUNK
modes; a ring computes its k axis values a chunk at a time.
:func:`consensus_record` (and so :func:`consensus_variance` and
:func:`scaling_sweep`) sums J-bar over these chunks exactly, reading m and
L from the :class:`TorusSpec`: its memory is O(chunk + C(k + d - 2, d - 1)),
with no array as large as the spectrum; an overflowing J-bar raises from
:mod:`noiseamp.variance`, as any J does.  :func:`torus_spectrum` fills the
whole spectrum from the same chunks, for reports that list every mode.

Exactness against the full lattice: kappa and rho (read at the extreme
eigenvalues, which every ordering forms alike) are identical for every d,
and so is J-bar for d <= 2, where a + b == b + a in floating point.  For
d >= 3 the lattice adds the axis values of one multiset in several orders,
which can round apart by an ulp, so J-bar agrees to about 1e-16 relative.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import reduce
from typing import Any, Iterator, Sequence

import numpy as np

from . import spectrum
from .dynamics import Algo, AlgoConfig, check_stable, modal_spectral_radius
from .errors import SizeOverflow
from .spectrum import Spectrum
from .tuning import optimal_quadratic_params
from .variance import Records, _finite, _modal_variance_raw

MAX_NETWORK_SIZE = 10_000_000


@dataclass(frozen=True)
class TorusSpec:
    """A d-dimensional torus lattice with n0 nodes per axis.

    ``m`` and ``L`` are the extremes of :func:`torus_spectrum`, read at
    construction without enumerating its modes.  The axis values grow with
    j = 0 .. n0 // 2.  m is the mode (0, ..., 0, 1), the axis value at
    j = 1, and L the d-fold sum of the one at j = n0 // 2, added left to
    right as every mode is.  Rounded addition is monotone, so no mode
    rounds below m or above L.
    """

    d: int
    n0: int
    m: float = field(init=False)
    L: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.d <= 5:
            raise ValueError("torus dimension d must lie in 1..5")
        if self.n0 < 3:
            raise ValueError("need at least 3 nodes per axis")
        if self.n0 ** self.d > MAX_NETWORK_SIZE:
            raise SizeOverflow(
                f"torus with {self.n0}^{self.d} nodes exceeds the supported "
                f"size {MAX_NETWORK_SIZE}")
        m, top = _axis_at(np.array([1, self.n0 // 2]), self.n0).tolist()
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "L", reduce(lambda acc, _: acc + top,
                                             range(self.d - 1), top))

    @property
    def n(self) -> int:
        return self.n0 ** self.d


def _axis(n0: int) -> np.ndarray:
    """The n0 axis eigenvalues 2 (1 - cos(2 pi k / n0)), k = 0 .. n0 - 1.

    Each is evaluated at j = min(k, n0 - k), so mirror frequencies give the
    same float.
    """
    k = np.arange(n0)
    return _axis_at(np.minimum(k, n0 - k), n0)


def _axis_at(j: np.ndarray, n0: int) -> np.ndarray:
    """The axis eigenvalues 2 (1 - cos(2 pi j / n0)) at integer j."""
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * j / n0))


def _distinct_axis(n0: int, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The increasing axis values at 0 <= j <= n0 // 2, with multiplicity
    2 (frequencies j and n0 - j), or 1 at j = 0 and j = n0 / 2."""
    return _axis_at(j, n0), np.where((j == 0) | (2 * j == n0), 1, 2)


def torus_eigenvalues(t: TorusSpec) -> np.ndarray:
    """All n0^d Laplacian eigenvalues of the torus (unsorted lattice order)."""
    axis = _axis(t.n0)
    return reduce(lambda acc, _: np.add.outer(acc, axis).ravel(),
                  range(t.d - 1), axis)


def torus_modes(t: TorusSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The nonzero torus modes as (values, counts) chunks.

    ``values`` holds one eigenvalue per nondecreasing tuple of distinct axis
    values, and ``counts`` the number of lattice points with that
    eigenvalue.  The tuples come in lexicographic order of their indices,
    the all-zero tuple dropped.

    Each axis step replaces tuple i, whose last index is last[i], by the
    block of tuples that append last[i] .. k - 1 (:func:`_extend`).  The
    tuples of one value are the axis values; the steps up to d - 1 values
    are built whole, C(k + d - 2, d - 1) tuples at most.  The last step
    takes its parent tuples a group at a time, as many whole blocks as fit
    in spectrum.MODES_PER_CHUNK modes (one block if it alone is larger),
    and yields each group's modes as one chunk.  On a ring (d = 1) the
    axis values are the modes, computed a chunk of j at a time.
    """
    chunk = spectrum.MODES_PER_CHUNK
    k = t.n0 // 2 + 1
    if t.d == 1:  # one block, with no count to divide: cut it anywhere
        for start in range(1, k, chunk):
            yield _distinct_axis(t.n0, np.arange(start, min(start + chunk, k)))
        return
    vals, counts = _distinct_axis(t.n0, np.arange(k))
    parents = (vals, counts, np.ones_like(counts), np.arange(vals.size))
    for size in range(2, t.d):
        lams, weights, last, starts, start_run = _extend(vals, counts,
                                                         parents, size)
        run = np.ones_like(weights)
        run[starts] = start_run
        parents = (lams, weights, run, last)
    ends = np.cumsum(vals.size - parents[3])
    first = 0
    while first < ends.size:
        base = ends[first - 1] if first else 0
        stop = max(first + 1, int(np.searchsorted(
            ends, base + chunk, side="right")))
        lams, weights, *_ = _extend(
            vals, counts, [p[first:stop] for p in parents], t.d)
        zero = int(first == 0)  # the all-zero tuple opens the first block
        yield lams[zero:], weights[zero:]
        first = stop


def _extend(vals: np.ndarray, counts: np.ndarray,
            tuples: Sequence[np.ndarray], size: int) -> tuple[np.ndarray, ...]:
    """One axis step: the tuples of ``size`` axis values that extend
    ``tuples`` = (lams, weights, run, last), as (lams, weights, last,
    starts, start_run).

    Tuple i, with eigenvalue lams[i], ordering count times multiplicities
    weights[i], final run length run[i] and last index last[i], extends to
    the block of k - last[i] tuples that append last[i] .. k - 1.  The
    blocks start at ``starts = cumsum(ext) - ext``.  A new count is
    size * count times the new value's multiplicity; at a block start, the
    one entry whose last index repeats, size * count is first divided by
    the grown run length ``start_run``, which is exact since the result is
    a multinomial coefficient times multiplicities.  Elsewhere a new
    tuple's final run has length 1.
    """
    lams, weights, run, last = tuples
    ext = vals.size - last
    starts = np.cumsum(ext) - ext
    new = np.arange(ext.sum()) - np.repeat(starts - last, ext)
    # The ordering count grows from (size-1)!/prod(r!) to size!/prod(r!):
    # a factor size, divided by the new run length at a block start.
    start_run = run + 1
    grown = weights * size
    weights = np.repeat(grown, ext)
    weights[starts] = grown // start_run
    weights *= counts[new]
    return np.repeat(lams, ext) + vals[new], weights, new, starts, start_run


def torus_spectrum(t: TorusSpec) -> Spectrum:
    """Nonzero torus Laplacian spectrum, one mode per multiset of axis values.

    The modes of :func:`torus_modes`, unsorted, in C(k + d - 1, d) - 1
    entries, so ``n == t.n - 1``.
    """
    size = math.comb(t.n0 // 2 + t.d, t.d) - 1
    values, counts = np.empty(size), np.empty(size, np.int64)
    filled = 0
    for lams, weights in torus_modes(t):
        values[filled:filled + lams.size] = lams
        counts[filled:filled + lams.size] = weights
        filled += lams.size
    return Spectrum(values=values, counts=counts)


@dataclass(frozen=True)
class ConsensusRecord:
    """Variance summary of one algorithm on one torus.

    ``rho_at`` names the extreme eigenvalue whose mode sets ``rho``: "m" or
    "L" ("m" on a tie).
    """

    algo: Algo
    d: int
    n0: int
    n: int
    kappa: float
    rho: float
    rho_at: str
    jbar: float

    @property
    def jbar_over_n(self) -> float:
        return self.jbar / self.n

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "algo": self.algo.value,
                "jbar_over_n": self.jbar_over_n}


def consensus_record(cfg: AlgoConfig, t: TorusSpec) -> ConsensusRecord:
    """The record of ``cfg`` on ``t``; raises :class:`Unstable`, and
    :class:`VarianceOverflow` (from :mod:`noiseamp.variance`) where J-bar
    leaves double range.

    Stability is checked at the extremes before any mode is enumerated.
    J-bar is the exactly rounded sum of the per-mode variances, each
    counted with its multiplicity, a chunk of :func:`torus_modes` at a
    time (the fold behind :meth:`Spectrum.sum`): no array as large as
    the spectrum is held.
    """
    rho = check_stable(cfg, t)
    rho_m, rho_l = modal_spectral_radius(cfg, np.array([t.m, t.L]))
    jbar = _finite(float(spectrum._chunked_sums(
        ((_modal_variance_raw(cfg, lams)[None], counts)
         for lams, counts in torus_modes(t)), 1)[0]))
    return ConsensusRecord(algo=cfg.algo, d=t.d, n0=t.n0, n=t.n,
                           kappa=t.L / t.m, rho=rho,
                           rho_at="L" if rho_l > rho_m else "m", jbar=jbar)


def consensus_variance(algo: Algo, t: TorusSpec,
                       sigma: float = 1.0) -> ConsensusRecord:
    """J-bar of noisy distributed averaging over the torus.

    The method runs at its quadratic-optimal tuning for the nonzero extreme
    eigenvalues (other tunings: :func:`consensus_record`).  The zero mode
    is excluded (deviation-from-average variance).
    """
    params = optimal_quadratic_params(algo, t.m, t.L)
    cfg = AlgoConfig(algo=algo, alpha=params.alpha, beta=params.beta,
                     sigma=sigma)
    return consensus_record(cfg, t)


class Regime(str, Enum):
    POWER_LAW = "power_law"
    LOGARITHMIC = "logarithmic"
    CONSTANT = "constant"


@dataclass(frozen=True)
class SweepResult:
    """Scaling sweep of J-bar / n versus kappa for one algorithm/dimension.

    ``slope`` is the log-log least-squares slope fitted on the upper half of
    the sweep (largest networks), where the asymptotic regime dominates.
    """

    algo: Algo
    d: int
    rows: tuple[ConsensusRecord, ...]
    slope: float
    regime: Regime

    def to_dict(self) -> dict[str, Any]:
        """The report; ``rows`` is :class:`Records` with one column per key
        of :meth:`ConsensusRecord.to_dict`."""
        records = [r.to_dict() for r in self.rows]
        rows = {k: [r[k] for r in records] for k in records[0]}
        return {"algo": self.algo.value, "d": self.d,
                "slope": self.slope, "regime": self.regime.value,
                "rows": Records(rows)}


# Regime classification thresholds: a log-log slope above POWER_LAW_MIN_SLOPE
# is a power law; below it, relative growth of J-bar/n across the upper half
# distinguishes logarithmic growth from saturation at a constant.
POWER_LAW_MIN_SLOPE = 0.15
CONSTANT_MAX_GROWTH = 0.05


def scaling_sweep(algo: Algo, d: int, n0_values: Sequence[int],
                  sigma: float = 1.0) -> SweepResult:
    """Sweep torus sizes and fit the growth of J-bar / n against kappa.

    The sizes must be distinct: a repeated size adds a point at the same
    kappa, which says nothing about growth.
    """
    sizes = sorted(set(n0_values))
    if len(sizes) < len(n0_values):
        raise ValueError(f"repeated lattice sizes in {list(n0_values)}")
    if len(sizes) < 4:
        raise ValueError("a sweep needs at least 4 lattice sizes")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"a sweep needs a finite sigma > 0, got {sigma!r}: "
                         "J-bar has no log-log fit at zero or infinity")
    rows = [consensus_variance(algo, TorusSpec(d=d, n0=int(n0)), sigma=sigma)
            for n0 in sizes]
    slope, regime = _classify(rows)
    return SweepResult(algo=algo, d=d, rows=tuple(rows), slope=slope,
                       regime=regime)


def _classify(rows: Sequence[ConsensusRecord]) -> tuple[float, Regime]:
    upper = rows[len(rows) // 2:]
    x = np.log([r.kappa for r in upper])
    y = np.log([r.jbar_over_n for r in upper])
    slope = float(np.polyfit(x, y, 1)[0])
    if abs(slope) > POWER_LAW_MIN_SLOPE:
        return slope, Regime.POWER_LAW
    vals = [r.jbar_over_n for r in upper]
    growth = (vals[-1] - vals[0]) / abs(vals[0])
    if abs(growth) <= CONSTANT_MAX_GROWTH:
        return slope, Regime.CONSTANT
    return slope, Regime.LOGARITHMIC
