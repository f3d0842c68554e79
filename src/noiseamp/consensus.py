"""Noise amplification of distributed averaging over torus networks.

Average consensus over the d-dimensional torus Z_{n0}^d is gradient descent
on the Laplacian quadratic, so its steady-state variance is the sum of the
per-mode closed forms over the nonzero Laplacian eigenvalues

    lambda_i = sum_{l=1..d} 2 (1 - cos(2 pi i_l / n0)),  i in Z_{n0}^d,

with exactly one zero eigenvalue (the consensus direction, dropped).  The
module evaluates J-bar = sum over nonzero modes, the harmonic sum of the
spectrum with its growth law B(n0), and per-dimension scaling sweeps of
J-bar / n versus the condition number kappa = Theta(n0^2), including the
log-log slope and growth-regime classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Any, Iterable, Sequence

import numpy as np

from .dynamics import (INSTABILITY_THRESHOLD, Algo, AlgoConfig, SigmaMode,
                       modal_spectral_radius)
from .errors import SizeOverflow, Unstable
from .spectrum import Spectrum
from .tuning import optimal_quadratic_params
from .variance import _modal_variance_raw

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


def torus_eigenvalues(t: TorusSpec) -> np.ndarray:
    """All n0^d Laplacian eigenvalues of the torus (unsorted lattice order)."""
    axis = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(t.n0) / t.n0))
    return reduce(lambda acc, _: np.add.outer(acc, axis).ravel(),
                  range(t.d - 1), axis)


def nonzero_torus_eigenvalues(t: TorusSpec) -> np.ndarray:
    """Nonzero Laplacian eigenvalues (the single zero mode removed)."""
    eigs = torus_eigenvalues(t)
    return eigs[eigs > 0.0]


@dataclass(frozen=True)
class ConsensusRecord:
    """Variance summary of one algorithm on one torus."""

    algo: Algo
    d: int
    n0: int
    n: int
    kappa: float
    rho: float
    jbar: float

    @property
    def jbar_over_n(self) -> float:
        return self.jbar / self.n

    def to_dict(self) -> dict[str, Any]:
        return {"algo": self.algo.value, "d": self.d, "n0": self.n0,
                "n": self.n, "kappa": self.kappa, "rho": self.rho,
                "jbar": self.jbar, "jbar_over_n": self.jbar_over_n}


def consensus_variance(algo: Algo, t: TorusSpec,
                       cfg: AlgoConfig | None = None,
                       sigma: float = 1.0) -> ConsensusRecord:
    """J-bar of noisy distributed averaging over the torus.

    By default the method runs at its quadratic-optimal tuning for the
    nonzero extreme eigenvalues; pass ``cfg`` to override.  The zero mode is
    excluded (deviation-from-average variance).  Raises :class:`Unstable`
    if the method diverges on some nonzero mode.
    """
    lams = nonzero_torus_eigenvalues(t)
    m, L = float(lams.min()), float(lams.max())
    if cfg is None:
        params = optimal_quadratic_params(algo, m, L)
        cfg = AlgoConfig(algo=algo, alpha=params.alpha, beta=params.beta,
                         sigma=sigma)
    rhos = np.asarray(modal_spectral_radius(cfg, lams))
    rho = float(rhos.max())
    if rho >= INSTABILITY_THRESHOLD:
        raise Unstable(float(lams[int(np.argmax(rhos))]), rho)
    jbar = math.fsum(_modal_variance_raw(cfg, lams))
    return ConsensusRecord(algo=algo, d=t.d, n0=t.n0, n=t.n, kappa=L / m,
                           rho=rho, jbar=jbar)


def reciprocal_sum(t: TorusSpec) -> dict[str, float]:
    """Harmonic sum of the nonzero spectrum and its growth law B(n0).

    B(n0) = (n0^d - n0^2) / (d - 2) for d != 2 and n0^d log(n0) for d = 2;
    the ratio sum / B stays bounded above and below as n0 grows.
    """
    lams = nonzero_torus_eigenvalues(t)
    total = math.fsum(1.0 / lams)
    if t.d == 2:
        growth = t.n0 ** t.d * math.log(t.n0)
    else:
        growth = (t.n0 ** t.d - t.n0 ** 2) / (t.d - 2)
    return {"sum": total, "growth_law": growth, "ratio": total / growth}


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
    """Sweep torus sizes and fit the growth of J-bar / n against kappa."""
    if len(n0_values) < 4:
        raise ValueError("a sweep needs at least 4 lattice sizes")
    rows = [consensus_variance(algo, TorusSpec(d=d, n0=int(n0)), sigma=sigma)
            for n0 in sorted(n0_values)]
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
