"""Modal state-space models of noisy first-order methods on quadratics.

Gradient descent (GD), the heavy-ball method (HB) and Nesterov's
accelerated method (NA) are members of one two-step family,

    x+ = x + beta (x - x-) - alpha grad f(x + gamma (x - x-)) + sigma w,

with GD at beta = gamma = 0, HB at gamma = 0 and NA at gamma = beta.  For a
quadratic objective with Hessian eigenvalue lambda each member decouples
into the companion-form recursion

    psi+ = [[0, 1], [a, b]] psi + sigma [0; 1] w,
    a = gamma mu - beta,  b = 1 + beta - (1 + gamma) mu,  mu = alpha lambda,

on psi = (x^k, x^{k+1}), with characteristic polynomial z^2 - b z - a and
output matrix [1, 0] selecting the current iterate.  GD has a = 0 and keeps
its scalar recursion x+ = b x + sigma w.  This module gives the coefficients
(a, b) and the closed-form spectral radii, checks stability at a spectrum's
extremes, and solves the modal discrete Lyapunov equations numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import Unstable
from .spectrum import Spectrum

# A mode counts as unstable once its spectral radius reaches this threshold;
# steady-state variance grows like 1/(1 - rho^2) and loses all precision
# beyond it.
INSTABILITY_THRESHOLD = 1.0 - 1e-14


class Algo(str, Enum):
    GD = "gd"
    HB = "hb"
    NA = "na"


class SigmaMode(str, Enum):
    """How the injected-noise scale relates to the step size.

    FIXED uses ``sigma`` as given; EQUALS_ALPHA models pure gradient noise
    where the injected perturbation is ``alpha * w``.
    """

    FIXED = "fixed"
    EQUALS_ALPHA = "equals_alpha"


@dataclass(frozen=True)
class AlgoConfig:
    """Algorithm choice plus step size, momentum and noise scale."""

    algo: Algo
    alpha: float
    beta: float = 0.0
    sigma: float = 1.0
    sigma_mode: SigmaMode = SigmaMode.FIXED

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta!r}")
        if self.algo == Algo.GD and self.beta != 0.0:
            raise ValueError("gradient descent takes beta == 0")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(
                f"sigma must be finite and non-negative, got {self.sigma!r}")

    @property
    def gamma(self) -> float:
        """Gradient look-ahead of the two-step family: beta for NA, else 0."""
        return self.beta if self.algo == Algo.NA else 0.0

    @property
    def order(self) -> int:
        """Order of the modal recursion: 1 for GD, 2 for HB and NA."""
        return 1 if self.algo == Algo.GD else 2

    @property
    def effective_sigma(self) -> float:
        if self.sigma_mode == SigmaMode.EQUALS_ALPHA:
            return self.alpha
        return self.sigma

    @property
    def noise_power(self) -> float:
        """Variance sigma^2 of the injected noise."""
        return self.effective_sigma ** 2


class ConfigRows(NamedTuple):
    """Many points (alpha, beta, gamma) of the two-step family at once.

    ``alpha``, ``beta`` and ``gamma`` are column arrays (rows x 1) or
    floats shared by all rows (GD's and HB's gamma: 0.0).  The per-mode
    formulas that take an :class:`AlgoConfig` (:func:`companion_coefficients`,
    :func:`modal_spectral_radius`, ``variance._modal_variance_raw``) take
    a ConfigRows as well and broadcast it against a row of eigenvalues
    into rows x modes, each entry rounded as that row's AlgoConfig would
    round it.  Nothing is validated.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray | float
    sigma: float = 1.0
    sigma_mode: SigmaMode = SigmaMode.FIXED

    @property
    def noise_power(self) -> float | np.ndarray:
        if self.sigma_mode == SigmaMode.EQUALS_ALPHA:
            # Python's ** rounds as AlgoConfig's does; numpy's square of
            # an array can differ from it by an ulp.
            return np.array([[a ** 2] for a in self.alpha.ravel().tolist()])
        return self.sigma ** 2


def companion_coefficients(cfg: AlgoConfig | ConfigRows, lam):
    """(a, b) of the mode polynomial z^2 - b z - a, elementwise in lam.

    a = gamma mu - beta and b = 1 + beta - (1 + gamma) mu, mu = alpha lam.
    A :class:`ConfigRows` gives rows x eigenvalues.
    """
    mu = cfg.alpha * lam
    gamma = cfg.gamma
    return gamma * mu - cfg.beta, 1.0 + cfg.beta - (1.0 + gamma) * mu


def modal_spectral_radius(cfg: AlgoConfig | ConfigRows,
                          lam) -> float | np.ndarray:
    """Closed-form spectral radius of the modal iteration matrix.

    The roots of z^2 - b z - a have largest modulus
    max(sqrt|a|, |b|/2 + sqrt(max(b^2/4 + a, 0))): for complex roots
    |z|^2 = |a| >= b^2 / 4, and for real roots |a| = |z1 z2| <= max|z|^2.
    Accepts a scalar eigenvalue or an array (evaluated elementwise), and
    a :class:`ConfigRows` for rows x eigenvalues.
    """
    a, b = companion_coefficients(cfg, np.asarray(lam, dtype=float))
    half = 0.5 * np.abs(b)
    out = np.maximum(np.sqrt(np.abs(a)),
                     half + np.sqrt(np.maximum(half * half + a, 0.0)))
    return float(out) if out.ndim == 0 else out


def check_step_size(cfg: AlgoConfig, L: float):
    """Raise :class:`Unstable` at L when alpha L >= 4, before any overflow.

    No preset is stable there: stability at L needs alpha L <
    2 (1 + beta) / (1 + 2 gamma) <= 4.  The reported rate is inf from
    mu = 1e150 on, where b^2 could overflow.
    """
    mu = cfg.alpha * L  # a Python float: overflows to inf without a warning
    if mu >= 4.0:
        rho = float(modal_spectral_radius(cfg, L)) if mu < 1e150 else math.inf
        raise Unstable(L, rho)


def check_stable(cfg: AlgoConfig, s: Spectrum) -> float:
    """Return the convergence rate; :class:`Unstable` from 1 - 1e-14 on.

    The rate is the worst modal spectral radius, read at s.m and s.L only
    (L first, so that a tie names L): a ``consensus.TorusSpec``, which
    carries its extremes, serves as well as a :class:`Spectrum`.  Both
    roots of z^2 - b z - a lie in |z| <= r exactly when |a| <= r^2 and
    r |b| <= r^2 - a (Schur-Cohn), two conditions affine in mu = alpha
    lambda: every sublevel set of rho(lambda) is an interval, so rho is
    quasiconvex in lambda and peaks over [m, L] at an endpoint.  Steps
    rejected by :func:`check_step_size` never reach the rate formula.
    """
    check_step_size(cfg, s.L)
    lams = np.array([s.L, s.m])
    rhos = modal_spectral_radius(cfg, lams)
    rho = float(rhos.max())
    if not rho < INSTABILITY_THRESHOLD:
        raise Unstable(float(lams[rhos.argmax()]), rho, INSTABILITY_THRESHOLD)
    return rho


def _modal_lyapunov(cfg: AlgoConfig, lams) -> np.ndarray:
    """Rows (p00, p01, p11) of each mode's P = A P A^T + sigma^2 B B^T.

    With A = [[0, 1], [a, b]] and B = [0; 1] the three unknowns of the
    symmetric P solve a linear system, solved numerically for all modes in
    one batched call.  Stability is not checked.
    """
    a, b = companion_coefficients(cfg, np.asarray(lams, dtype=float))
    one, zero = np.ones_like(a), np.zeros_like(a)
    system = np.stack([one, zero, -one,
                       zero, 1.0 - a, -b,
                       -a * a, -2.0 * a * b, 1.0 - b * b], axis=-1)
    rhs = np.stack([zero, zero, one * cfg.noise_power], axis=-1)
    return np.linalg.solve(system.reshape(a.shape + (3, 3)),
                           rhs[..., None])[..., 0]


def propagate_covariance(cfg: AlgoConfig, s: Spectrum,
                         steps: int) -> np.ndarray:
    """Transient output variance trace(C P^t C^T) for t = 0 .. steps-1.

    Starts from P^0 = 0 and iterates P <- A P A^T + sigma^2 B B^T mode by
    mode (vectorized across modes) on the companion state; GD's iterate x^t
    is its second component.  Each mode counts with its multiplicity.
    Raises :class:`Unstable` if some mode diverges.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_stable(cfg, s)
    lams = s.values
    sig2 = cfg.noise_power
    w = np.ones_like(lams) if s.counts is None else s.counts.astype(float)
    a, b = companion_coefficients(cfg, lams)
    current = 2 - cfg.order
    p00 = p01 = p11 = np.zeros_like(lams)
    out = np.empty(steps)
    for t in range(steps):
        out[t] = float(np.dot(w, (p00, p11)[current]))
        p00, p01, p11 = (p11, a * p01 + b * p11,
                         a * a * p00 + 2.0 * a * b * p01 + b * b * p11 + sig2)
    return out
