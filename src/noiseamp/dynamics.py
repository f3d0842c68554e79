"""Modal state-space models of noisy first-order methods on quadratics.

For a quadratic objective with Hessian eigenvalue lambda, each of gradient
descent (GD), the heavy-ball method (HB) and Nesterov's accelerated method
(NA) decouples into a scalar (GD) or 2x2 companion-form (HB, NA) linear
recursion driven by additive white noise:

    GD:  x+   = (1 - alpha*lambda) x + sigma w
    HB:  psi+ = [[0, 1], [-beta, 1+beta-alpha*lambda]] psi + sigma [0;1] w
    NA:  psi+ = [[0, 1], [-beta(1-alpha*lambda),
                          (1+beta)(1-alpha*lambda)]] psi + sigma [0;1] w

with output matrix [1, 0] selecting the current iterate.  This module builds
those modal systems, gives closed-form spectral radii, checks Nesterov
stability, and solves the 2x2 discrete Lyapunov equation in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import Unstable, UnstableMode
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
            raise ValueError(f"sigma must be non-negative, got {self.sigma!r}")

    @property
    def effective_sigma(self) -> float:
        if self.sigma_mode == SigmaMode.EQUALS_ALPHA:
            return self.alpha
        return self.sigma


@dataclass(frozen=True)
class ModalSystem:
    """State-space matrices (A, B, C) of one decoupled mode."""

    algo: Algo
    lam: float
    a_hat: np.ndarray  # 1x1 for GD, 2x2 companion for HB/NA
    b_hat: np.ndarray
    c_hat: np.ndarray

    @property
    def order(self) -> int:
        return self.a_hat.shape[0]


def companion_coefficients(cfg: AlgoConfig, lam: float) -> tuple[float, float]:
    """(a, b) of the companion matrix [[0, 1], [a, b]] for HB/NA modes.

    The characteristic polynomial is z^2 - b z - a.
    """
    mu = cfg.alpha * lam
    if cfg.algo == Algo.HB:
        return -cfg.beta, 1.0 + cfg.beta - mu
    if cfg.algo == Algo.NA:
        return -cfg.beta * (1.0 - mu), (1.0 + cfg.beta) * (1.0 - mu)
    raise ValueError("companion form is defined for HB and NA only")


def modal_system(cfg: AlgoConfig, lam: float) -> ModalSystem:
    """Build the modal (A, B, C) for one Hessian eigenvalue."""
    if lam <= 0.0:
        raise ValueError(f"modal eigenvalue must be positive, got {lam!r}")
    if cfg.algo == Algo.GD:
        a = np.array([[1.0 - cfg.alpha * lam]])
        b = np.array([[1.0]])
        c = np.array([[1.0]])
    else:
        a0, b0 = companion_coefficients(cfg, lam)
        a = np.array([[0.0, 1.0], [a0, b0]])
        b = np.array([[0.0], [1.0]])
        c = np.array([[1.0, 0.0]])
    return ModalSystem(algo=cfg.algo, lam=float(lam), a_hat=a, b_hat=b, c_hat=c)


def modal_spectral_radius(cfg: AlgoConfig, lam) -> float | np.ndarray:
    """Closed-form spectral radius of the modal iteration matrix.

    Accepts a scalar eigenvalue or an array (evaluated elementwise).
    """
    lam_arr = np.asarray(lam, dtype=float)
    mu = cfg.alpha * lam_arr
    if cfg.algo == Algo.GD:
        out = np.abs(1.0 - mu)
    elif cfg.algo == Algo.HB:
        s = math.sqrt(cfg.beta)
        b = 1.0 + cfg.beta - mu
        disc = np.maximum(b * b - 4.0 * cfg.beta, 0.0)
        real_case = 0.5 * np.abs(b) + 0.5 * np.sqrt(disc)
        complex_mask = ((1.0 - s) ** 2 <= mu) & (mu <= (1.0 + s) ** 2)
        out = np.where(complex_mask, s, real_case)
    elif cfg.algo == Algo.NA:
        one_minus = 1.0 - mu
        b = (1.0 + cfg.beta) * one_minus
        disc = np.maximum(b * b - 4.0 * cfg.beta * one_minus, 0.0)
        real_case = 0.5 * np.abs(b) + 0.5 * np.sqrt(disc)
        lo = ((1.0 - cfg.beta) / (1.0 + cfg.beta)) ** 2
        complex_mask = (mu > lo) & (mu < 1.0)
        out = np.where(complex_mask,
                       np.sqrt(np.maximum(cfg.beta * one_minus, 0.0)),
                       real_case)
    else:  # pragma: no cover
        raise ValueError(f"unknown algorithm {cfg.algo!r}")
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return float(out)
    return out


def convergence_rate(cfg: AlgoConfig, s: Spectrum) -> float:
    """Worst-case modal spectral radius over the whole spectrum."""
    return float(np.max(modal_spectral_radius(cfg, s.values)))


def check_stable(cfg: AlgoConfig, s: Spectrum) -> float:
    """Return the convergence rate, raising :class:`Unstable` if >= 1."""
    rhos = np.asarray(modal_spectral_radius(cfg, s.values))
    worst = int(np.argmax(rhos))
    rho = float(rhos[worst])
    if rho >= INSTABILITY_THRESHOLD:
        raise Unstable(float(s.values[worst]), rho)
    return rho


def nesterov_stable(alpha: float, beta: float, m: float, L: float) -> bool:
    """Stability test for Nesterov's method on a quadratic with extremes m, L.

    The noisy iteration converges in mean square if and only if
    m < (2 beta + 2) / (alpha kappa (2 beta + 1)), kappa = L / m, which is
    equivalent to alpha * L < (2 beta + 2) / (2 beta + 1) together with the
    standing assumptions 0 < alpha, 0 <= beta < 1, 0 < m <= L.
    """
    if not (0.0 < m <= L):
        raise ValueError("need 0 < m <= L")
    if not (alpha > 0.0 and 0.0 <= beta < 1.0):
        raise ValueError("need alpha > 0 and beta in [0, 1)")
    kappa = L / m
    return m < (2.0 * beta + 2.0) / (alpha * kappa * (2.0 * beta + 1.0))


def solve_modal_lyapunov(ms: ModalSystem, cfg: AlgoConfig) -> np.ndarray:
    """Closed-form solution P of P = A P A^T + sigma^2 B B^T for one mode.

    For the companion form A = [[0, 1], [a, b]] the solution is

        P = sigma^2 * p * [[1, b/(1-a)], [b/(1-a), 1]],
        p = (a - 1) / ((a + 1)(b + a - 1)(b - a + 1)),

    valid whenever the mode is stable.  Raises :class:`UnstableMode`
    otherwise.
    """
    rho = modal_spectral_radius(cfg, ms.lam)
    if rho >= INSTABILITY_THRESHOLD:
        raise UnstableMode(ms.lam, rho)
    sig2 = cfg.effective_sigma ** 2
    if ms.order == 1:
        a = float(ms.a_hat[0, 0])
        return np.array([[sig2 / (1.0 - a * a)]])
    a = float(ms.a_hat[1, 0])
    b = float(ms.a_hat[1, 1])
    p = (a - 1.0) / ((a + 1.0) * (b + a - 1.0) * (b - a + 1.0))
    off = b * p / (1.0 - a)
    return sig2 * np.array([[p, off], [off, p]])


def propagate_covariance(cfg: AlgoConfig, s: Spectrum, steps: int,
                         weighted: bool = False) -> np.ndarray:
    """Transient output variance trace(C P^t C^T) for t = 0 .. steps-1.

    Starts from P^0 = 0 and iterates P <- A P A^T + sigma^2 B B^T mode by
    mode (vectorized across modes).  With ``weighted=True`` each mode is
    weighted by its eigenvalue (objective-suboptimality output).  Raises
    :class:`Unstable` if some mode diverges.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_stable(cfg, s)
    lams = s.values
    sig2 = cfg.effective_sigma ** 2
    w = lams if weighted else np.ones_like(lams)
    out = np.empty(steps)
    if cfg.algo == Algo.GD:
        a = 1.0 - cfg.alpha * lams
        p = np.zeros_like(lams)
        for t in range(steps):
            out[t] = float(np.dot(w, p))
            p = a * a * p + sig2
        return out
    if cfg.algo == Algo.HB:
        a = np.full_like(lams, -cfg.beta)
        b = 1.0 + cfg.beta - cfg.alpha * lams
    else:
        one_minus = 1.0 - cfg.alpha * lams
        a = -cfg.beta * one_minus
        b = (1.0 + cfg.beta) * one_minus
    p00 = np.zeros_like(lams)
    p01 = np.zeros_like(lams)
    p11 = np.zeros_like(lams)
    for t in range(steps):
        out[t] = float(np.dot(w, p00))
        new00 = p11
        new01 = a * p01 + b * p11
        new11 = a * a * p00 + 2.0 * a * b * p01 + b * b * p11 + sig2
        p00, p01, p11 = new00, new01, new11
    return out
