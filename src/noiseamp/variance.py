"""Steady-state noise amplification of first-order methods on quadratics.

The headline quantity is J = lim_t (1/t) sum_k E||x^k - x*||^2, the
steady-state variance of the iterates under additive white noise.  On a
quadratic it splits into a sum of per-mode contributions J_hat(lambda).
For every member of the two-step family of :mod:`noiseamp.dynamics`
(gradient look-ahead gamma: 0 for GD and HB, beta for NA) it has the
closed form, with mu = alpha lambda,

    J_hat = sigma^2 (1 + beta - gamma mu)
            / (mu (1 - beta + gamma mu) (2(1 + beta) - (1 + 2 gamma) mu)).

:func:`variance_amplification` evaluates J on every spectrum, explicit or
torus, and for the tuning search; J' is computed when read.  The module
also offers two independent routes (a numerical solve of each modal
Lyapunov equation, and the closed-loop eigenvalue form), the HB/GD ratio
identity, the extreme-mode values used by the NA/GD sandwich, and the
spectrum-free variance bounds at the quadratic-optimal parameter choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import (Algo, AlgoConfig, ConfigRows, INSTABILITY_THRESHOLD,
                       _modal_lyapunov, check_stable, companion_coefficients,
                       modal_spectral_radius)
from .errors import (DimensionTooSmall, UnstableMode, VarianceOverflow,
                     kappa_closed_form)
from .spectrum import Spectrum


def modal_variance(cfg: AlgoConfig, lam: float) -> float:
    """Closed-form per-mode steady-state variance J_hat(lambda)."""
    rho = modal_spectral_radius(cfg, lam)
    if not rho < INSTABILITY_THRESHOLD:
        raise UnstableMode(lam, rho)
    v = float(_modal_variance_raw(cfg, np.asarray(lam, dtype=float)))
    if v == math.inf:
        raise VarianceOverflow("J_hat")
    return v


def _modal_variance_raw(cfg: AlgoConfig | ConfigRows,
                        lams: np.ndarray) -> np.ndarray:
    """Vectorized J_hat(lambda); assumes stability was already checked.

    Written in mu = alpha lambda, not in the companion coefficients (a, b):
    there b + a - 1 = -mu would be computed with cancellation for small mu.
    A :class:`ConfigRows` gives rows x eigenvalues.  A variance that leaves
    double range comes out as inf, without a warning (see :func:`_finite_sum`).
    """
    sig2 = cfg.noise_power
    beta, gamma = cfg.beta, cfg.gamma
    mu = cfg.alpha * lams
    gmu = gamma * mu
    with np.errstate(over="ignore"):
        return (sig2 * (1.0 + beta - gmu)
                / (mu * (1.0 - beta + gmu)
                   * (2.0 * (1.0 + beta) - (1.0 + 2.0 * gamma) * mu)))


def _finite_sum(s: Spectrum, terms: np.ndarray,
                what: str = "J") -> float | np.ndarray:
    """``s.sum(terms)``; raises :class:`VarianceOverflow` where a term or a
    sum of the nonnegative ``terms`` leaves double range."""
    try:
        total = s.sum(terms)
    except OverflowError:  # an exactly rounded sum past the largest double
        total = math.inf
    if not np.all(np.isfinite(total)):
        raise VarianceOverflow(what)
    return total


@dataclass(frozen=True)
class VarianceReport:
    """Exact steady-state variance of a configured method on a spectrum.

    ``j`` sums per-mode iterate variances, ``rho`` is the convergence rate,
    and ``per_mode`` is aligned with ``spectrum.values``.  ``j_prime``
    weights each mode by its eigenvalue (objective-suboptimality output);
    it is computed when read, which J-only callers (tuning) never do.
    """

    cfg: AlgoConfig
    rho: float
    j: float
    per_mode: np.ndarray
    spectrum: Spectrum

    @property
    def j_prime(self) -> float:
        s = self.spectrum
        with np.errstate(over="ignore"):
            terms = self.per_mode * s.values
        return _finite_sum(s, terms, "J_prime")

    def to_dict(self) -> dict[str, Any]:
        """The report; a spectrum with multiplicities adds each mode's count."""
        s, cfg = self.spectrum, self.cfg
        modes = [{"lambda": l, "j_hat": v} for l, v in
                 zip(s.values.tolist(), self.per_mode.tolist())]
        if s.counts is not None:
            for mode, count in zip(modes, s.counts.tolist()):
                mode["count"] = count
        return {"algo": cfg.algo.value, "alpha": cfg.alpha, "beta": cfg.beta,
                "sigma": cfg.effective_sigma, "rho": self.rho, "J": self.j,
                "J_prime": self.j_prime, "per_mode": modes}


def variance_amplification(cfg: AlgoConfig, s: Spectrum) -> VarianceReport:
    """Evaluate J and per-mode variances; raises :class:`Unstable`, and
    :class:`VarianceOverflow` where J leaves double range.

    J is the exactly rounded sum of the per-mode variances, each counted
    with its multiplicity (:meth:`Spectrum.sum`).
    """
    rho = check_stable(cfg, s)
    per_mode = _modal_variance_raw(cfg, s.values)
    return VarianceReport(cfg=cfg, rho=rho, j=_finite_sum(s, per_mode),
                          per_mode=per_mode, spectrum=s)


def variance_via_lyapunov(cfg: AlgoConfig, s: Spectrum) -> float:
    """J evaluated by solving each modal Lyapunov equation numerically."""
    check_stable(cfg, s)
    return s.sum(_modal_lyapunov(cfg, s.values)[:, 0])


def variance_via_eigenvalues(cfg: AlgoConfig, s: Spectrum) -> float:
    """J expressed through the closed-loop eigenvalues of each mode.

    With l, l' the roots of z^2 - b z - a (for GD, l = 1 - alpha lambda and
    l' = 0) each mode contributes

        sigma^2 (1 + l l') / ((1 - l l')(1 - l)(1 - l')(1 + l)(1 + l')).
    """
    check_stable(cfg, s)
    a, b = companion_coefficients(cfg, s.values)
    disc = np.sqrt((b * b + 4.0 * a).astype(complex))
    l1 = 0.5 * (b + disc)
    l2 = 0.5 * (b - disc)
    num = 1.0 + l1 * l2
    den = (1.0 - l1 * l2) * (1.0 - l1) * (1.0 - l2) * (1.0 + l1) * (1.0 + l2)
    return s.sum((cfg.noise_power * num / den).real)


@kappa_closed_form
def hb_gd_ratio(kappa: float) -> float:
    """J_hb / J_gd at the quadratic-optimal tunings of both methods.

    Equals (sqrt(kappa)+1)^4 / (8 sqrt(kappa) (kappa+1)) = 1/(1 - beta^2)
    for the optimal heavy-ball momentum; it is independent of the spectrum.
    """
    if not kappa >= 1.0:  # NaN too
        raise ValueError("kappa must be >= 1")
    rk = math.sqrt(kappa)
    return (rk + 1.0) ** 4 / (8.0 * rk * (kappa + 1.0))


@kappa_closed_form
def extreme_modal_values(algo: Algo, kappa: float) -> dict[str, float]:
    """Per-mode variance at lambda in {m, L} for sigma = 1.

    GD uses alpha = 2/(L+m) (quadratic-optimal); NA uses alpha = 4/(3L+m),
    beta = (sqrt(3k+1)-2)/(sqrt(3k+1)+2).  Both attain their extremes over
    [m, L] at the endpoints.
    """
    if not kappa >= 1.0:  # NaN too
        raise ValueError("kappa must be >= 1")
    if algo == Algo.GD:
        edge = (kappa + 1.0) ** 2 / (4.0 * kappa)
        return {"j_at_m": edge, "j_at_L": edge}
    if algo == Algo.NA:
        kb = 3.0 * kappa + 1.0
        rkb = math.sqrt(kb)
        j_m = kb * kb * (kb - 2.0 * rkb + 2.0) / (32.0 * (rkb - 1.0) ** 3)
        j_l = (9.0 * kb * kb * (kb + 2.0 * rkb - 2.0)
               / (32.0 * (kb - 1.0) * (kb - rkb + 1.0) * (2.0 * rkb - 1.0)))
        return {"j_at_m": j_m, "j_at_L": j_l}
    raise ValueError("extreme modal values are available for GD and NA")


def na_gd_ratio_bounds(kappa: float, n: int) -> tuple[float, float]:
    """Sandwich for J_na / J_gd over all spectra with extremes m, L.

    Both methods use their quadratic-optimal tunings.  The ratio of sums is
    bracketed by mixing the per-mode extreme values: the lower bound puts
    n-1 modes at L, the upper bound puts n-1 modes at m.
    """
    if n < 2:
        raise DimensionTooSmall("ratio bounds need n >= 2")
    gd = extreme_modal_values(Algo.GD, kappa)
    na = extreme_modal_values(Algo.NA, kappa)
    lower = ((na["j_at_m"] + (n - 1) * na["j_at_L"])
             / (gd["j_at_m"] + (n - 1) * gd["j_at_L"]))
    upper = ((na["j_at_L"] + (n - 1) * na["j_at_m"])
             / (gd["j_at_L"] + (n - 1) * gd["j_at_m"]))
    return lower, upper


@kappa_closed_form
def variance_bounds(algo: Algo, kappa: float, n: int) -> tuple[float, float]:
    """Spectrum-free bounds on J at the quadratic-optimal tuning, sigma = 1.

    Valid for every spectrum with n eigenvalues and extremes m, L = kappa m.
    NA's lower bound requires n >= 2 (it allocates one mode to each extreme).
    A single eigenvalue has kappa = 1; n = 1 with kappa != 1 is a
    ValueError.
    """
    if not kappa >= 1.0:  # NaN too
        raise ValueError("kappa must be >= 1")
    if n < 1:
        raise DimensionTooSmall("need n >= 1")
    if algo == Algo.NA and n < 2:
        raise DimensionTooSmall("NA bounds need n >= 2")
    if n == 1 and kappa != 1.0:
        raise ValueError("a one-eigenvalue spectrum has kappa = 1")
    # For GD, upper - lower = (n - 2)(kappa - 1)^2 / (4 kappa), and HB
    # scales both by hb_gd_ratio.  At n = 2, or kappa near 1, the two closed
    # forms are (nearly) equal and may round apart, so lower is clamped.
    if algo == Algo.GD:
        lower = (kappa - 1.0) ** 2 / (2.0 * kappa) + n
        upper = n * (kappa + 1.0) ** 2 / (4.0 * kappa)
        return min(lower, upper), upper
    if algo == Algo.HB:
        ratio = hb_gd_ratio(kappa)
        rk = math.sqrt(kappa)
        lower = ratio * ((kappa - 1.0) ** 2 / (2.0 * kappa) + n)
        upper = n * (kappa + 1.0) * (rk + 1.0) ** 4 / (32.0 * kappa * rk)
        return min(lower, upper), upper
    if algo == Algo.NA:
        kb = 3.0 * kappa + 1.0
        lower = kb ** 1.5 / 32.0 + 9.0 * math.sqrt(kb) / 64.0 + (n - 2)
        upper = (n - 1) * kb ** 1.5 / 8.0 + 9.0 * math.sqrt(kb) / 8.0
        return lower, upper
    raise ValueError(f"unknown algorithm {algo!r}")
