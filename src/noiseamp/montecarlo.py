"""Seeded Monte Carlo validation of the steady-state variance formulas.

Runs the exact noisy recursions from x^0 = x^1 = 0 and reports the running
average J_hat = (1/T) sum_{k=1..T} ||x^k - x*||^2 over the noise-driven
iterates, plus optional per-iterate ensemble statistics for comparison with
the covariance recursion.

Noise is generated by a counter-based splitmix64 generator feeding
Box-Muller, keyed by (seed, replicate) with the counter enumerating
(step, coordinate) draws.  Identical keys reproduce identical trajectories
bit-for-bit on any platform, and distinct replicates are independent
streams.  Every method steps x+ = x + beta d - alpha grad f(x + gamma d)
+ sigma w with d = x - x- (see :mod:`noiseamp.dynamics`).  Quadratic
objectives filter each mode through 1 / (1 - b z^-1 - a z^-2); general
objectives step the recursion explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.signal import lfilter

from .dynamics import AlgoConfig, check_step_size, companion_coefficients
from .errors import NonFinite
from .spectrum import Spectrum

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
DIVERGENCE_NORM = 1e12


def _mix(z: int) -> int:
    """splitmix64 finalizer on a python integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _stream_key(seed: int, replicate: int) -> int:
    return _mix(_mix(seed & _MASK) ^ _mix((replicate + 0x1F123BB5) & _MASK))


def _uniforms(key: int, count: int) -> np.ndarray:
    """Counter-based splitmix64 outputs mapped into the open interval (0, 1)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(key) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def standard_normals(seed: int, replicate: int, count: int) -> np.ndarray:
    """``count`` reproducible N(0, 1) draws for the given (seed, replicate)."""
    if count <= 0:
        return np.empty(0)
    half = (count + 1) // 2
    u = _uniforms(_stream_key(seed, replicate), 2 * half)
    # Consecutive uniforms feed each Box-Muller pair, so the first k draws
    # do not depend on how many draws are requested in total.
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * half)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


class Quadratic:
    """Quadratic objective given by its Hessian spectrum, minimizer at 0.

    Coordinate i has the i-th largest eigenvalue, counted with multiplicity.
    """

    def __init__(self, s: Spectrum):
        self.spectrum = s
        counts = 1 if s.counts is None else s.counts
        self.lams = np.sort(np.repeat(s.values, counts))[::-1].copy()

    @property
    def dim(self) -> int:
        return self.spectrum.n

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.lams * x

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(np.dot(self.lams, x * x))


class PseudoHuber:
    """Strongly convex, smooth pseudo-Huber objective with minimizer at 0.

    f(x) = (m/2) ||x||^2
         + (L - m) sum_j delta^2 (sqrt(1 + (x_j / delta)^2) - 1).

    The Hessian is diagonal with entries in (m, L], so f is m-strongly
    convex with L-Lipschitz gradient.
    """

    def __init__(self, m: float, L: float, n: int, delta: float = 1.0):
        if not (0.0 < m <= L):
            raise ValueError("need 0 < m <= L")
        if n < 1 or delta <= 0.0:
            raise ValueError("need n >= 1 and delta > 0")
        self.m = float(m)
        self.L = float(L)
        self.n = int(n)
        self.delta = float(delta)

    @property
    def dim(self) -> int:
        return self.n

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.m * x + (self.L - self.m) * x / np.sqrt(
            1.0 + (x / self.delta) ** 2)

    def value(self, x: np.ndarray) -> float:
        quad = 0.5 * self.m * float(np.dot(x, x))
        huber = (self.delta ** 2
                 * (np.sqrt(1.0 + (x / self.delta) ** 2) - 1.0)).sum()
        return quad + (self.L - self.m) * float(huber)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation or an ensemble of replicates."""

    j_hat: float
    steps: int
    replicates: int
    seed: int
    per_step: np.ndarray | None = None          # mean ||x^t||^2, t = 0..steps
    per_step_stderr: np.ndarray | None = None   # across replicates
    j_hat_replicates: tuple[float, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        out = {"j_hat": self.j_hat, "steps": self.steps,
               "replicates": self.replicates, "seed": self.seed}
        if self.per_step is not None:
            out["per_step"] = [float(v) for v in self.per_step]
        if self.per_step_stderr is not None:
            out["per_step_stderr"] = [float(v) for v in self.per_step_stderr]
        return out


def _iterates_quadratic(cfg: AlgoConfig, obj: Quadratic, steps: int,
                        noise: np.ndarray) -> np.ndarray:
    """Exact iterate sequence on a quadratic, one linear filter per mode.

    Returns x^0 .. x^T for GD and x^0 .. x^{T+1} for HB/NA (the last T
    entries are the noise-driven iterates in both cases).
    """
    order = cfg.order
    w = np.zeros((steps + order, obj.dim))
    w[order:] = noise.reshape(steps, obj.dim)
    a, b = companion_coefficients(cfg, obj.lams)
    x = np.empty_like(w)
    for j in range(obj.dim):
        den = [1.0, -b[j], -a[j]][:order + 1]
        x[:, j] = lfilter([cfg.effective_sigma], den, w[:, j])
    return x


def _iterates_generic(cfg: AlgoConfig, obj, steps: int,
                      noise: np.ndarray) -> np.ndarray:
    """Step the (possibly nonlinear) recursion explicitly from x^0 = x^1 = 0.

    Iterates are numbered as by :func:`_iterates_quadratic`.
    """
    alpha, beta, gamma = cfg.alpha, cfg.beta, cfg.gamma
    gradient = obj.gradient
    kicks = cfg.effective_sigma * noise.reshape(steps, obj.dim)
    skip = 2 - cfg.order
    x = np.zeros((steps + 2, obj.dim))
    for t in range(steps):
        cur = x[t + 1]
        d = cur - x[t]
        nxt = cur + beta * d - alpha * gradient(cur + gamma * d) + kicks[t]
        x[t + 2] = nxt
        _check_finite(nxt, t + 2 - skip)
    return x[skip:]


def _check_finite(x: np.ndarray, step: int):
    # A NaN or infinite norm fails the comparison too.
    if not x.dot(x) <= DIVERGENCE_NORM ** 2:
        raise NonFinite(step)


def simulate(cfg: AlgoConfig, obj, steps: int, seed: int,
             replicate: int = 0, track_per_step: bool = False) -> SimResult:
    """Run one noisy trajectory and estimate J by time averaging.

    The estimate averages the squared errors of the ``steps`` noise-driven
    iterates.  Raises :class:`NonFinite` if the trajectory diverges, and
    :class:`Unstable` before drawing noise for a step no quadratic allows.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if isinstance(obj, Quadratic):
        check_step_size(cfg, obj.spectrum.L)
    noise = standard_normals(seed, replicate, steps * obj.dim)
    if isinstance(obj, Quadratic):
        x = _iterates_quadratic(cfg, obj, steps, noise)
        sq = np.einsum("ij,ij->i", x, x)
        bad = ~np.isfinite(sq)
        if bad.any() or np.nanmax(sq) > DIVERGENCE_NORM ** 2:
            first = int(np.argmax(bad | (sq > DIVERGENCE_NORM ** 2)))
            raise NonFinite(first)
    else:
        x = _iterates_generic(cfg, obj, steps, noise)
        sq = np.einsum("ij,ij->i", x, x)
    # Noise-driven iterates are the last `steps` entries of the sequence.
    j_hat = float(np.mean(sq[-steps:]))
    per_step = sq[:steps + 1] if track_per_step else None
    return SimResult(j_hat=j_hat, steps=steps, replicates=1, seed=seed,
                     per_step=per_step,
                     j_hat_replicates=(j_hat,))


def ensemble_variance(cfg: AlgoConfig, obj, steps: int, replicates: int,
                      seed: int) -> SimResult:
    """Average ||x^t||^2 across independent replicates, per iterate index.

    ``per_step[t]`` estimates the transient variance trace(C P^t C^T) and
    ``per_step_stderr`` its standard error across replicates.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    tracks = np.empty((replicates, steps + 1))
    j_hats = []
    for r in range(replicates):
        res = simulate(cfg, obj, steps, seed, replicate=r,
                       track_per_step=True)
        tracks[r] = res.per_step
        j_hats.append(res.j_hat)
    mean = tracks.mean(axis=0)
    if replicates > 1:
        stderr = tracks.std(axis=0, ddof=1) / math.sqrt(replicates)
    else:
        stderr = np.zeros(steps + 1)
    return SimResult(j_hat=float(np.mean(j_hats)), steps=steps,
                     replicates=replicates, seed=seed, per_step=mean,
                     per_step_stderr=stderr,
                     j_hat_replicates=tuple(j_hats))
