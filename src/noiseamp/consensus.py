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
of n0^d - 1 (176,850 in place of 8e6 for d = 3, n0 = 200).  Each mode adds
its axis values left to right, as the full-lattice reference
:func:`torus_eigenvalues` does, and both take their axis values from one
helper.

Exactness against the full lattice: kappa and rho (read at the extreme
eigenvalues, which every ordering forms alike) are identical for every d,
and so is J-bar for d <= 2, where a + b == b + a in floating point.  For
d >= 3 the lattice adds the axis values of one multiset in several orders,
which can round apart by an ulp, so J-bar agrees to about 1e-16 relative.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import reduce
from typing import Any, Sequence

import numpy as np

from .dynamics import Algo, AlgoConfig, modal_spectral_radius
from .errors import SizeOverflow
from .spectrum import Spectrum
from .tuning import optimal_quadratic_params
from .variance import VarianceReport, variance_amplification

MAX_NETWORK_SIZE = 10_000_000


@dataclass(frozen=True)
class TorusSpec:
    """A d-dimensional torus lattice with n0 nodes per axis."""

    d: int
    n0: int

    def __post_init__(self):
        if not 1 <= self.d <= 5:
            raise ValueError("torus dimension d must lie in 1..5")
        if self.n0 < 3:
            raise ValueError("need at least 3 nodes per axis")
        if self.n0 ** self.d > MAX_NETWORK_SIZE:
            raise SizeOverflow(
                f"torus with {self.n0}^{self.d} nodes exceeds the supported "
                f"size {MAX_NETWORK_SIZE}")

    @property
    def n(self) -> int:
        return self.n0 ** self.d


def _axis(n0: int) -> np.ndarray:
    """The n0 axis eigenvalues 2 (1 - cos(2 pi k / n0)), k = 0 .. n0 - 1.

    Each is evaluated at j = min(k, n0 - k), so mirror frequencies give the
    same float.
    """
    k = np.arange(n0)
    j = np.minimum(k, n0 - k)
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * j / n0))


def torus_eigenvalues(t: TorusSpec) -> np.ndarray:
    """All n0^d Laplacian eigenvalues of the torus (unsorted lattice order)."""
    axis = _axis(t.n0)
    return reduce(lambda acc, _: np.add.outer(acc, axis).ravel(),
                  range(t.d - 1), axis)


def torus_spectrum(t: TorusSpec) -> Spectrum:
    """Nonzero torus Laplacian spectrum, one mode per multiset of axis values.

    ``values`` holds one eigenvalue per nondecreasing tuple of distinct axis
    values (the all-zero tuple dropped), unsorted, and ``counts`` the number
    of lattice points with that eigenvalue, so ``n == t.n - 1``.
    """
    vals, counts = np.unique(_axis(t.n0), return_counts=True)
    last = np.arange(vals.size)
    lams, weights = vals, counts
    run = np.ones_like(counts)  # how often the tuple's last value repeats
    for size in range(2, t.d + 1):
        # Extend every tuple by each value index >= its last one.
        rows, new = np.nonzero(np.arange(vals.size) >= last[:, None])
        run = np.where(new == last[rows], run[rows] + 1, 1)
        # The ordering count grows from (size-1)!/prod(r!) to size!/prod(r!).
        weights = weights[rows] * size // run * counts[new]
        lams = lams[rows] + vals[new]
        last = new
    return Spectrum(values=lams[1:], counts=weights[1:])


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

    @classmethod
    def from_report(cls, t: TorusSpec,
                    rep: VarianceReport) -> ConsensusRecord:
        """The record of ``rep``, a variance report on ``t``'s spectrum."""
        s, cfg = rep.spectrum, rep.cfg
        rho_m, rho_l = modal_spectral_radius(cfg, np.array([s.m, s.L]))
        return cls(algo=cfg.algo, d=t.d, n0=t.n0, n=t.n, kappa=s.kappa,
                   rho=rep.rho, rho_at="L" if rho_l > rho_m else "m",
                   jbar=rep.j)

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "algo": self.algo.value,
                "jbar_over_n": self.jbar_over_n}


def consensus_variance(algo: Algo, t: TorusSpec,
                       sigma: float = 1.0) -> ConsensusRecord:
    """J-bar of noisy distributed averaging over the torus.

    The method runs at its quadratic-optimal tuning for the nonzero extreme
    eigenvalues (other tunings: :meth:`ConsensusRecord.from_report`).  The
    zero mode is excluded (deviation-from-average variance).
    """
    s = torus_spectrum(t)
    params = optimal_quadratic_params(algo, s.m, s.L)
    cfg = AlgoConfig(algo=algo, alpha=params.alpha, beta=params.beta,
                     sigma=sigma)
    return ConsensusRecord.from_report(t, variance_amplification(cfg, s))


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
        return {"algo": self.algo.value, "d": self.d,
                "slope": self.slope, "regime": self.regime.value,
                "rows": [r.to_dict() for r in self.rows]}


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
    if not sigma > 0.0:
        raise ValueError("a sweep needs sigma > 0: J-bar has no log-log fit "
                         "at zero")
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
