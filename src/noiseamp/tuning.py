"""Parameter selection and the rate/variance trade-off.

Two standard tunings are provided: the "conventional" choices with known
convergence guarantees for general strongly convex functions, and the
quadratic-optimal choices that minimize the convergence rate on a quadratic
with extreme eigenvalues m and L:

    conventional       GD: alpha = 1/L                rho = sqrt(1 - 2/(k+1))
                       NA: alpha = 1/L,
                           beta = (sqrt(k)-1)/(sqrt(k)+1)
                                                      rho = sqrt(1 - 1/sqrt(k))
                       HB: no guarantee
    quadratic-optimal  GD: alpha = 2/(L+m)            rho = (k-1)/(k+1)
                       HB: alpha = 4/(sqrt(L)+sqrt(m))^2,
                           beta = ((sqrt(k)-1)/(sqrt(k)+1))^2
                                                      rho = (sqrt(k)-1)/(sqrt(k)+1)
                       NA: alpha = 4/(3L+m),
                           beta = (sqrt(3k+1)-2)/(sqrt(3k+1)+2)
                                                      rho = (sqrt(3k+1)-2)/sqrt(3k+1)

On top of these, the module minimizes J subject to a cap r on the
convergence rate, with one search for GD and HB.  At momentum beta the
mode polynomial z^2 - b z - a has a = -beta, b = 1 + beta - alpha lambda,
and the Schur-Cohn conditions of :func:`convergence_rate`, read at
lambda = m and L, make the feasible step sizes a closed-form interval.
Golden-section minimizes J on it, slice by slice over a momentum grid; GD
is the beta = 0 slice.  The module also quantifies the heavy-ball
rate/variance trade-off floor and measures the variance floor that any
accelerated tuning must pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import (Algo, AlgoConfig, INSTABILITY_THRESHOLD, SigmaMode,
                       convergence_rate)
from .errors import (InfeasibleCap, KappaTooLarge, KappaTooSmall, NoGuarantee,
                     Unstable)
from .spectrum import Spectrum, make_spectrum
from .variance import variance_amplification

GOLDEN_TOL = 1e-10
BETA_GRID_POINTS = 400


@dataclass(frozen=True)
class TunedParams:
    """A (step size, momentum) pair with its guaranteed/optimal rate."""

    algo: Algo
    alpha: float
    beta: float
    rho: float

    def to_dict(self) -> dict[str, Any]:
        return {"algo": self.algo.value, "alpha": self.alpha,
                "beta": self.beta, "rho": self.rho}


def conventional_params(algo: Algo, m: float, L: float) -> TunedParams:
    """Tunings with convergence guarantees for general strongly convex f.

    Heavy ball has no such guarantee and raises :class:`NoGuarantee`.
    """
    _check_ml(m, L)
    kappa = L / m
    if algo == Algo.GD:
        return TunedParams(algo, 1.0 / L, 0.0,
                           math.sqrt(1.0 - 2.0 / (kappa + 1.0)))
    if algo == Algo.NA:
        r = math.sqrt(kappa)
        return TunedParams(algo, 1.0 / L,
                           _momentum((r - 1.0) / (r + 1.0), kappa),
                           math.sqrt(1.0 - 1.0 / r))
    raise NoGuarantee(
        "heavy ball has no convergence guarantee for general strongly "
        "convex functions")


def optimal_quadratic_params(algo: Algo, m: float, L: float) -> TunedParams:
    """Rate-optimal tunings on a quadratic with extreme eigenvalues m, L."""
    _check_ml(m, L)
    kappa = L / m
    if algo == Algo.GD:
        return TunedParams(algo, 2.0 / (L + m), 0.0,
                           (kappa - 1.0) / (kappa + 1.0))
    if algo == Algo.HB:
        r = math.sqrt(kappa)
        return TunedParams(algo, 4.0 / (math.sqrt(L) + math.sqrt(m)) ** 2,
                           _momentum(((r - 1.0) / (r + 1.0)) ** 2, kappa),
                           (r - 1.0) / (r + 1.0))
    if algo == Algo.NA:
        rb = math.sqrt(3.0 * kappa + 1.0)
        return TunedParams(algo, 4.0 / (3.0 * L + m),
                           _momentum((rb - 2.0) / (rb + 2.0), kappa),
                           (rb - 2.0) / rb)
    raise ValueError(f"unknown algorithm {algo!r}")


def _momentum(beta: float, kappa: float) -> float:
    """A tuned momentum; :class:`KappaTooLarge` once it rounds to 1."""
    if beta >= 1.0:
        raise KappaTooLarge(
            f"the tuned momentum rounds to 1 at kappa={kappa!r}")
    return beta


@dataclass(frozen=True)
class TuningResult:
    """Outcome of constrained variance minimization."""

    algo: Algo
    alpha: float
    beta: float
    j: float
    rho: float
    rate_cap: float

    def to_dict(self) -> dict[str, Any]:
        return {"algo": self.algo.value, "alpha": self.alpha,
                "beta": self.beta, "J": self.j, "rho": self.rho,
                "rate_cap": self.rate_cap}


def _check_ml(m: float, L: float):
    if not (0.0 < m <= L):
        raise ValueError("need 0 < m <= L")


def _golden_min(fn, lo: float, hi: float, tol: float = GOLDEN_TOL):
    """Scale-free golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _step_interval(beta: float, r: float, m: float,
                   L: float) -> tuple[float, float] | None:
    """Step sizes alpha meeting rho <= r at momentum beta (gamma = 0).

    The mode polynomial z^2 - b z - a has a = -beta and b = 1 + beta - mu.
    By the Schur-Cohn conditions of :func:`convergence_rate` its roots lie
    in |z| <= r exactly when beta <= r^2 and |1 + beta - mu| <= h with
    h = r + beta / r.  Reading the rate at mu = alpha m and mu = alpha L
    gives alpha in [max(1 + beta - h, 0) / m, (1 + beta + h) / L].  Returns
    None for an empty slice.  At beta = 0 the edges are GD's
    (1 - r) / m and (1 + r) / L, bit for bit.
    """
    h = r + beta / r
    lo = max(1.0 + beta - h, 0.0) / m
    hi = (1.0 + beta + h) / L
    if beta > r * r or lo > hi:
        return None
    return lo, hi


def _momentum_grid(r: float) -> list[float]:
    """Heavy-ball momenta, log-spaced in 1 - beta down to the cap's r^2."""
    exponents = np.linspace(min(-4.0, math.log10(1.0 - r * r)), 0.0,
                            BETA_GRID_POINTS)
    return np.unique(
        np.clip(1.0 - 10.0 ** exponents, 0.0, 1.0 - 1e-12)).tolist()


# Per-preset data of the constrained search: the rate class the cap scales
# with (rho <= 1 - c / scale(kappa)) and the momentum slices searched.  GD
# is heavy ball's beta = 0 slice.
_SEARCH = {Algo.GD: (lambda kappa: kappa, lambda r: [0.0]),
           Algo.HB: (math.sqrt, _momentum_grid)}


def tune_constrained(algo: Algo, s: Spectrum, cap_constant: float = 1.0,
                     sigma: float = 1.0,
                     sigma_mode: SigmaMode = SigmaMode.FIXED) -> TuningResult:
    """Minimize J subject to a convergence-rate cap.

    The cap scales with the best achievable rate class of the method:
    GD must satisfy rho <= 1 - c/kappa, HB rho <= 1 - c/sqrt(kappa)
    (c = ``cap_constant``).  One search serves both: for each momentum
    slice (GD has only beta = 0; HB grids beta log-spaced in 1 - beta) the
    feasible step sizes form the closed-form interval of
    :func:`_step_interval`, and golden-section minimizes J on it.  A step
    whose computed rate exceeds the cap, or that is unstable, scores +inf,
    so the reported rho meets the cap as computed.  Ties prefer smaller
    beta, then smaller alpha.  Raises :class:`InfeasibleCap` when no
    parameters meet the cap and :class:`KappaTooLarge` when the cap lies
    above the instability threshold.
    """
    if algo not in _SEARCH:
        raise ValueError("constrained tuning is implemented for GD and HB")
    if cap_constant <= 0.0:
        raise ValueError("cap_constant must be positive")
    scale, momenta = _SEARCH[algo]
    kappa = s.kappa
    cap = 1.0 - cap_constant / scale(kappa)
    if cap <= 0.0:
        raise InfeasibleCap(f"rate cap {cap!r} is non-positive")
    if cap > INSTABILITY_THRESHOLD:
        raise KappaTooLarge(
            f"rate cap {cap!r} at kappa={kappa!r} lies above the instability "
            f"threshold {INSTABILITY_THRESHOLD!r}")

    def capped_j(alpha: float, beta: float) -> float:
        cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=sigma,
                         sigma_mode=sigma_mode)
        try:
            rep = variance_amplification(cfg, s)
        except Unstable:
            return math.inf
        return rep.j if rep.rho <= cap else math.inf

    best = None
    for beta in momenta(cap):
        edges = _step_interval(beta, cap, s.m, s.L)
        if edges is None:
            continue
        alpha, j = _golden_min(lambda a: capped_j(a, beta), *edges)
        if j < math.inf and (best is None or (j, beta, alpha) < best):
            best = (j, beta, alpha)
    if best is None:
        raise InfeasibleCap(
            f"no {algo.value} parameters reach rho <= {cap!r} on "
            f"kappa={kappa!r}")
    j, beta, alpha = best
    rho = convergence_rate(AlgoConfig(algo=algo, alpha=alpha, beta=beta), s)
    return TuningResult(algo, alpha, beta, j, rho, cap)


def hb_tradeoff_margin(cfg: AlgoConfig, s: Spectrum) -> dict[str, float]:
    """Heavy-ball rate/variance trade-off J / (1 - rho) against its floor.

    For any stable (alpha, beta) on a spectrum with condition number kappa
    the product J / (1 - rho) is at least sigma^2 ((kappa+1)/8)^2; when the
    noise scales with the step size (sigma = alpha) the floor becomes
    (kappa / (8 L))^2.  Returns the product, the floor and their difference.
    """
    if cfg.algo != Algo.HB:
        raise ValueError("trade-off margin is defined for heavy ball")
    rep = variance_amplification(cfg, s)
    product = rep.j / (1.0 - rep.rho)
    kappa = s.kappa
    if cfg.sigma_mode == SigmaMode.EQUALS_ALPHA:
        floor = (kappa / (8.0 * s.L)) ** 2
    else:
        floor = (cfg.sigma * (kappa + 1.0) / 8.0) ** 2
    return {"product": product, "floor": floor,
            "margin": product - floor}


def na_jhat_m_lower_bound(kappa: float, beta: float) -> float:
    """Floor on the smallest-mode variance of Nesterov's method, sigma = 1.

    For kappa > 2 and the rate-optimal step size at momentum beta,
    J_hat(m) >= kappa^2 / (24 (1 - beta) kappa + 32 beta).  Raises
    :class:`KappaTooSmall` for kappa <= 2.
    """
    if kappa <= 2.0:
        raise KappaTooSmall("the floor holds for kappa > 2")
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    return kappa * kappa / (24.0 * (1.0 - beta) * kappa + 32.0 * beta)


def acceleration_floor(algo: Algo, kappa: float, cap_constant: float = 1.0,
                       samples: int = 2000, seed: int = 0) -> dict[str, float]:
    """Measure the variance floor paid by accelerated tunings, sigma = 1.

    Samples stable (alpha, beta) pairs achieving the accelerated rate
    rho <= 1 - c/sqrt(kappa) on the two-point spectrum {m=1, L=kappa} and
    records the smallest observed J / kappa^{3/2}.  Any accelerated tuning
    keeps this ratio bounded away from zero uniformly in kappa.
    """
    if algo not in (Algo.HB, Algo.NA):
        raise ValueError("the acceleration floor concerns HB and NA")
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    s = make_spectrum([1.0, kappa])
    cap = 1.0 - cap_constant / math.sqrt(kappa)
    if cap <= 0.0:
        raise InfeasibleCap(f"rate cap {cap!r} is non-positive")
    rng = np.random.default_rng(seed)
    best = math.inf
    feasible = 0
    for _ in range(samples):
        beta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 2.0 * (1.0 + beta) / kappa))
        try:
            cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta)
        except ValueError:
            continue
        rho = convergence_rate(cfg, s)
        if rho > cap:
            continue
        feasible += 1
        j = variance_amplification(cfg, s).j
        best = min(best, j / kappa ** 1.5)
    if feasible == 0:
        raise InfeasibleCap(
            f"no sampled parameters met the accelerated cap at kappa={kappa!r}")
    return {"min_ratio": best, "feasible": float(feasible), "cap": cap}
