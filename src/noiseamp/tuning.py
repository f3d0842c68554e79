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
Golden-section minimizes J on it for every slice of a momentum grid at
once, the slices advancing in lockstep; GD is the beta = 0 slice.  The
module also quantifies the heavy-ball rate/variance trade-off floor and
measures the variance floor that any accelerated tuning must pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import (Algo, AlgoConfig, ConfigRows, INSTABILITY_THRESHOLD,
                       SigmaMode, convergence_rate, modal_spectral_radius)
from .errors import InfeasibleCap, KappaTooLarge, KappaTooSmall, NoGuarantee
from .spectrum import Spectrum, make_spectrum
from .variance import (_finite_sum, _modal_variance_raw,
                       variance_amplification)

GOLDEN_TOL = 1e-10
BETA_GRID_POINTS = 400
SMALL_CAP_POINTS = 64
# Rows x modes terms evaluated at once: enough rows to share each numpy
# call, few enough that the arrays stay in cache and memory stays bounded.
BATCH_TERMS = 1 << 14


@dataclass(frozen=True)
class TunedParams:
    """A (step size, momentum) pair with its guaranteed/optimal rate."""

    algo: Algo
    alpha: float
    beta: float
    rho: float


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
    """Outcome of constrained variance minimization, with the search's effort.

    ``slices`` counts the momenta with a nonempty step interval,
    ``feasible_slices`` those whose minimum J is finite, ``evaluations``
    the J evaluations of the whole search, and ``alpha_at_edge`` says
    whether the chosen slice's final bracket touches an end of its step
    interval.
    """

    algo: Algo
    alpha: float
    beta: float
    j: float
    rho: float
    rate_cap: float
    slices: int
    feasible_slices: int
    evaluations: int
    alpha_at_edge: bool

    def to_dict(self) -> dict[str, Any]:
        return {"algo": self.algo.value, "alpha": self.alpha,
                "beta": self.beta, "J": self.j, "rho": self.rho,
                "rate_cap": self.rate_cap, "slices": self.slices,
                "feasible_slices": self.feasible_slices,
                "evaluations": self.evaluations,
                "alpha_at_edge": self.alpha_at_edge}


def _check_ml(m: float, L: float):
    if not (0.0 < m <= L):
        raise ValueError("need 0 < m <= L")


def _golden_rows(fn, lo: np.ndarray, hi: np.ndarray):
    """Scale-free golden-section searches on [lo[i], hi[i]], in lockstep.

    Each row makes the probes, comparisons and stopping test of a scalar
    golden-section search on its own interval, with the same floats; the
    rows share each round's evaluation ``fn(alpha, rows)`` of the probes
    ``alpha`` of the rows still open (indices ``rows``).  A row stops once
    its bracket is within ``GOLDEN_TOL`` of its scale.  Returns the final
    brackets (a, b) and the number of evaluations made.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    rows = np.arange(a.size)
    fc, fd = np.split(fn(np.concatenate([c, d]), np.tile(rows, 2)), 2)
    evaluations = 2 * rows.size
    final_a, final_b = a.copy(), b.copy()
    width = b - a
    while True:
        # Brackets sit in [0, inf), where abs() changes nothing.
        open_ = width > GOLDEN_TOL * (a + b)
        if np.count_nonzero(open_) < open_.size:
            final_a[rows], final_b[rows] = a, b
            rows, a, b, c, d, fc, fd, width = (
                v[open_] for v in (rows, a, b, c, d, fc, fd, width))
            if rows.size == 0:
                return final_a, final_b, evaluations
        left = fc < fd  # keep [a, d] and probe below d, else keep [c, b]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        width = b - a
        step = invphi * width
        probe = np.where(left, b - step, a + step)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        f = fn(probe, rows)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        evaluations += rows.size


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
    """Heavy-ball momenta, log-spaced in 1 - beta down to the cap's r^2.

    Momenta above r^2 are infeasible, so when the grid's smallest positive
    momentum exceeds r^2 (small kappa), ``SMALL_CAP_POINTS`` evenly spaced
    slices from 0 to r^2 are searched as well.
    """
    exponents = np.linspace(min(-4.0, math.log10(1.0 - r * r)), 0.0,
                            BETA_GRID_POINTS)
    grid = np.unique(np.clip(1.0 - 10.0 ** exponents, 0.0, 1.0 - 1e-12))
    if not np.any((grid > 0.0) & (grid <= r * r)):
        grid = np.union1d(grid, np.linspace(0.0, r * r, SMALL_CAP_POINTS))
    return grid.tolist()


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
    parameters meet the cap, :class:`KappaTooLarge` when the cap lies
    above the instability threshold and :class:`VarianceOverflow` when J
    leaves double range at a step searched that meets the cap.
    """
    if algo not in _SEARCH:
        raise ValueError("constrained tuning is implemented for GD and HB")
    if not cap_constant > 0.0:  # NaN too
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
    infeasible = InfeasibleCap(
        f"no {algo.value} parameters reach rho <= {cap!r} on "
        f"kappa={kappa!r}")
    slices = [(beta, *edges) for beta in momenta(cap)
              if (edges := _step_interval(beta, cap, s.m, s.L)) is not None]
    if not slices:
        raise infeasible
    betas, lo, hi = np.array(slices).T.copy()
    if not hi.max() < 2.0 ** 1023:  # brackets add a + b
        raise ValueError(f"step sizes up to {hi.max()!r} on L={s.L!r} leave "
                         f"double precision")
    # Every step of the search lies in (0, 2**1023), so of the checks an
    # AlgoConfig makes only sigma's can fail: make them once.
    AlgoConfig(algo=algo, alpha=float(hi[0]), beta=float(betas[0]),
               sigma=sigma, sigma_mode=sigma_mode)
    # A step is kept when rho <= cap and rho < INSTABILITY_THRESHOLD; the
    # bound below makes that one comparison.  The step-size guard of
    # check_step_size adds nothing here: alpha L >= 4 gives |b| / 2 > 1.
    bound = min(cap, math.nextafter(INSTABILITY_THRESHOLD, 0.0))
    extremes = np.array([s.L, s.m])
    chunk = max(1, BATCH_TERMS // s.values.size)

    def batch_j(alpha: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if alpha.size > chunk:
            return np.concatenate([
                batch_j(alpha[i:i + chunk], rows[i:i + chunk])
                for i in range(0, alpha.size, chunk)])
        cfg = ConfigRows(algo, alpha[:, None], betas[rows, None], sigma,
                         sigma_mode)
        ok = modal_spectral_radius(cfg, extremes) <= bound
        if np.count_nonzero(ok) < ok.size:  # (count_nonzero is the cheapest)
            kept = ok.all(axis=1)
            j = np.full(alpha.size, math.inf)
            if kept.any():
                j[kept] = batch_j(alpha[kept], rows[kept])
            return j
        return _finite_sum(s, _modal_variance_raw(cfg, s.values))

    a, b, evaluations = _golden_rows(batch_j, lo, hi)
    alphas = 0.5 * (a + b)
    js = batch_j(alphas, np.arange(alphas.size))
    feasible = js < math.inf
    if not feasible.any():
        raise infeasible
    # Momenta ascend, so the first smallest J is the (J, beta, alpha) minimum.
    best = int(np.argmin(np.where(feasible, js, math.inf)))
    alpha, beta = float(alphas[best]), float(betas[best])
    rho = convergence_rate(AlgoConfig(algo=algo, alpha=alpha, beta=beta), s)
    return TuningResult(
        algo, alpha, beta, float(js[best]), rho, cap, slices=len(slices),
        feasible_slices=int(feasible.sum()),
        evaluations=evaluations + len(slices),
        alpha_at_edge=bool(a[best] == lo[best] or b[best] == hi[best]))


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
    if not kappa > 1.0:  # NaN too
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
