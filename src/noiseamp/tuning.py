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
convergence rate, with one search for GD, HB and NA: at each momentum the
Schur-Cohn conditions of :func:`convergence_rate`, read at lambda = m and
L, make the feasible step sizes a closed-form interval, and golden-section
minimizes J on it for every slice of a momentum grid at once, the slices
advancing in lockstep.  The same search measures the variance floor that
any accelerated tuning must pay; the module also quantifies the heavy-ball
rate/variance trade-off floor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .dynamics import (Algo, AlgoConfig, ConfigRows, INSTABILITY_THRESHOLD,
                       SigmaMode, convergence_rate, modal_spectral_radius)
from .errors import InfeasibleCap, KappaTooLarge, NoGuarantee
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
    if not beta < 1.0:  # NaN too: an overflowing kappa
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
        out = {**asdict(self), "algo": self.algo.value}
        return {("J" if k == "j" else k): v for k, v in out.items()}


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


def _step_interval(beta: float, gamma: float, r: float, m: float,
                   L: float) -> tuple[float, float] | None:
    """Step sizes alpha meeting rho <= r at momentum beta, look-ahead gamma.

    The roots of z^2 - b z - a, a = gamma mu - beta and b = 1 + beta -
    (1 + gamma) mu, lie in |z| <= r exactly when |a| <= r^2 and
    |b| <= r - a / r (:func:`convergence_rate`): four inequalities
    p mu >= q, each bounding mu below (p > 0) or above (p < 0) or holding
    for all mu or none (p = 0).  For b's upper bound p = 1 + gamma -
    gamma / r changes sign at gamma = r / (1 - r).  Read at mu = alpha m
    and alpha L, [mu_lo, mu_hi] gives alpha in [mu_lo / m, mu_hi / L];
    None for an empty slice.  At gamma = 0 these are heavy ball's edges
    and at beta = 0 GD's, (1 - r) / m and (1 + r) / L, bit for bit.
    """
    h = r + beta / r
    lo, hi = 0.0, math.inf
    for p, q in ((-gamma, -(r * r + beta)), (gamma, beta - r * r),
                 (1.0 + gamma - gamma / r, 1.0 + beta - h),
                 (-(1.0 + gamma + gamma / r), -(1.0 + beta + h))):
        if p > 0.0:
            lo = max(q / p, lo)
        elif p < 0.0:
            hi = min(q / p, hi)
        elif q > 0.0:
            return None
    lo, hi = lo / m, hi / L
    return None if lo > hi else (lo, hi)


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


def _nesterov_band(r: float, m: float, L: float) -> list[float]:
    """Nesterov momenta (gamma = beta) across the band where rho <= r holds.

    The band is narrow (0.790 to 0.821 at kappa = 100, c = 1) and reaches
    above r^2.  It holds the rate-optimal momentum if it is not empty;
    bisection from there finds both ends to the float.  J is least, and
    steep, at the lower end, so the ``BETA_GRID_POINTS`` slices are
    Chebyshev-Lobatto points, which crowd the ends.
    """
    def inside(beta: float) -> bool:
        return _step_interval(beta, beta, r, m, L) is not None

    anchor = optimal_quadratic_params(Algo.NA, m, L).beta
    if not inside(anchor):
        return []
    ends = []
    for end in (0.0, math.nextafter(1.0, 0.0)):
        if not inside(end):  # bisect between the anchor (inside) and end
            a = anchor
            while (mid := 0.5 * (a + end)) not in (a, end):
                a, end = (mid, end) if inside(mid) else (a, mid)
            end = a
        ends.append(end)
    lo, hi = ends
    nodes = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, BETA_GRID_POINTS))
    return np.unique(lo + (hi - lo) * nodes).tolist()


# Per-preset data of the constrained search: the rate class the cap scales
# with (rho <= 1 - c / scale(kappa)) and the momentum slices searched for
# the cap r on [m, L].  GD is heavy ball's beta = 0 slice.
_SEARCH = {Algo.GD: (lambda kappa: kappa, lambda r, m, L: [0.0]),
           Algo.HB: (math.sqrt, lambda r, m, L: _momentum_grid(r)),
           Algo.NA: (math.sqrt, _nesterov_band)}


def tune_constrained(algo: Algo, s: Spectrum, cap_constant: float = 1.0,
                     sigma: float = 1.0,
                     sigma_mode: SigmaMode = SigmaMode.FIXED) -> TuningResult:
    """Minimize J subject to a convergence-rate cap.

    The cap scales with the best achievable rate class of the method:
    GD must satisfy rho <= 1 - c/kappa, HB and NA rho <= 1 - c/sqrt(kappa)
    (c = ``cap_constant``).  For each momentum slice (GD: beta = 0; HB: a
    grid log-spaced in 1 - beta; NA: :func:`_nesterov_band`) the feasible
    steps form the interval of :func:`_step_interval` at the preset's
    look-ahead, and golden-section minimizes J on it.  A step whose
    computed rate exceeds the cap, or that is unstable, scores +inf, so
    the reported rho meets the cap as computed.  Ties prefer smaller beta,
    then smaller alpha.  Raises :class:`InfeasibleCap` when no parameters
    meet the cap, :class:`KappaTooLarge` when the cap lies above the
    instability threshold and :class:`VarianceOverflow` when J leaves
    double range at a step searched that meets the cap.
    """
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
    look_ahead = ConfigRows(algo, None, 1.0).gamma  # per unit beta: 0 or 1
    slices = [(beta, *edges) for beta in momenta(cap, s.m, s.L)
              if (edges := _step_interval(beta, look_ahead * beta, cap,
                                          s.m, s.L))]
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


def acceleration_floor(algo: Algo, kappa: float,
                       cap_constant: float = 1.0) -> dict[str, Any]:
    """The variance floor paid by accelerated tunings, sigma = 1.

    The least J under the accelerated cap rho <= 1 - c/sqrt(kappa) on the
    spectrum {1, kappa}: ``min_ratio`` = J / kappa^{3/2}, then the
    :func:`tune_constrained` report.  Any accelerated tuning keeps this
    ratio bounded away from zero uniformly in kappa.
    """
    if algo not in (Algo.HB, Algo.NA):
        raise ValueError("the acceleration floor concerns HB and NA")
    if not kappa > 1.0:  # NaN too
        raise ValueError("kappa must exceed 1")
    res = tune_constrained(algo, make_spectrum([1.0, kappa]), cap_constant)
    return {"min_ratio": res.j / kappa ** 1.5, **res.to_dict()}
