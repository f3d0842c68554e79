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

On top of these, the module minimizes J subject to a cap on the convergence
rate (grid over momentum, golden-section in the step size), quantifies the
heavy-ball rate/variance trade-off floor, and measures the variance floor
that any accelerated tuning must pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import Algo, AlgoConfig, SigmaMode, convergence_rate
from .errors import InfeasibleCap, KappaTooLarge, KappaTooSmall, NoGuarantee
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


def rate_optimal_stepsize_hb(beta: float, m: float, L: float) -> float:
    """Step size minimizing the heavy-ball rate for a fixed momentum beta.

    Balances the modal radii at lambda = m and lambda = L:
    alpha = 2 (1 + beta) / (L + m).
    """
    _check_ml(m, L)
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    return 2.0 * (1.0 + beta) / (L + m)


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
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)):
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


def _j_on_spectrum(algo: Algo, alpha: float, beta: float, s: Spectrum,
                   sigma: float, sigma_mode: SigmaMode) -> float:
    cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=sigma,
                     sigma_mode=sigma_mode)
    return variance_amplification(cfg, s).j


def tune_constrained(algo: Algo, s: Spectrum, cap_constant: float = 1.0,
                     sigma: float = 1.0,
                     sigma_mode: SigmaMode = SigmaMode.FIXED) -> TuningResult:
    """Minimize J subject to a convergence-rate cap.

    The cap scales with the best achievable rate class of the method:
    GD must satisfy rho <= 1 - c/kappa, HB rho <= 1 - c/sqrt(kappa)
    (c = ``cap_constant``).  GD is a one-dimensional golden-section search
    over the feasible step sizes; HB grids the momentum (log-spaced in
    1 - beta) with a golden-section step-size search inside each feasible
    slice.  Ties prefer smaller beta, then smaller alpha.  Raises
    :class:`InfeasibleCap` when no parameters meet the cap.
    """
    if cap_constant <= 0.0:
        raise ValueError("cap_constant must be positive")
    m, L, kappa = s.m, s.L, s.kappa
    if algo == Algo.GD:
        cap = 1.0 - cap_constant / kappa
        if cap <= 0.0:
            raise InfeasibleCap(f"rate cap {cap!r} is non-positive")
        lo = (1.0 - cap) / m
        hi = (1.0 + cap) / L
        if lo > hi:
            raise InfeasibleCap(
                f"no GD step size reaches rho <= {cap!r} on kappa={kappa!r}")
        fn = lambda a: _j_on_spectrum(algo, a, 0.0, s, sigma, sigma_mode)
        alpha, j = _golden_min(fn, lo, hi)
        cfg = AlgoConfig(algo=algo, alpha=alpha)
        rho = convergence_rate(cfg, s)
        return TuningResult(algo, alpha, 0.0, j, rho, cap)
    if algo == Algo.HB:
        cap = 1.0 - cap_constant / math.sqrt(kappa)
        if cap <= 0.0:
            raise InfeasibleCap(f"rate cap {cap!r} is non-positive")
        best = None
        exponents = np.linspace(-4.0, 0.0, BETA_GRID_POINTS)
        betas = np.unique(np.clip(1.0 - 10.0 ** exponents, 0.0, 1.0 - 1e-12))
        for beta in betas:
            res = _tune_hb_alpha(beta, s, cap, sigma, sigma_mode)
            if res is None:
                continue
            alpha, j = res
            key = (j, beta, alpha)
            if best is None or key < best:
                best = key
        if best is None:
            raise InfeasibleCap(
                f"no heavy-ball parameters reach rho <= {cap!r} on "
                f"kappa={kappa!r}")
        j, beta, alpha = best
        cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta)
        rho = convergence_rate(cfg, s)
        return TuningResult(algo, alpha, beta, j, rho, cap)
    raise ValueError("constrained tuning is implemented for GD and HB")


def _tune_hb_alpha(beta: float, s: Spectrum, cap: float, sigma: float,
                   sigma_mode: SigmaMode):
    """Best feasible step size for a fixed heavy-ball momentum, or None."""
    m, L = s.m, s.L

    def rho_max(alpha: float) -> float:
        cfg = AlgoConfig(algo=Algo.HB, alpha=alpha, beta=beta)
        return convergence_rate(cfg, s)

    center = rate_optimal_stepsize_hb(beta, m, L)
    if rho_max(center) > cap:
        return None
    # rho_max is quasiconvex in alpha, so the feasible set is an interval
    # around the rate-optimal step size; locate its edges by bisection.
    hi_limit = 2.0 * (1.0 + beta) / L  # stability edge at lambda = L
    lo = _bisect_edge(rho_max, cap, center, 1e-16, decreasing=True)
    hi = _bisect_edge(rho_max, cap, center, hi_limit, decreasing=False)
    fn = lambda a: _j_on_spectrum(Algo.HB, a, beta, s, sigma, sigma_mode)
    alpha, j = _golden_min(fn, lo, hi)
    return alpha, j


def _bisect_edge(rho_fn, cap: float, inside: float, outside: float,
                 decreasing: bool, iters: int = 200) -> float:
    """Bisect the feasibility edge rho(alpha) = cap between two step sizes."""
    a, b = inside, outside
    if rho_fn(outside) <= cap:
        return outside
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if rho_fn(mid) <= cap:
            a = mid
        else:
            b = mid
        if abs(b - a) <= 1e-15 * max(1.0, abs(a)):
            break
    return a


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
