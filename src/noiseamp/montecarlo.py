"""Seeded Monte Carlo validation of the steady-state variance formulas.

Runs the exact noisy recursions from x^0 = x^1 = 0 and reports the running
average J_hat = (1/T) sum_{k=1..T} ||x^k - x*||^2 over the noise-driven
iterates with its batch-means standard error, plus optional per-iterate
ensemble statistics for comparison with the covariance recursion.

Noise is generated by a counter-based splitmix64 generator feeding
Box-Muller, keyed by (seed, replicate) with the counter enumerating
(step, coordinate) draws.  Identical keys reproduce identical trajectories
bit-for-bit on any platform, distinct replicates are independent streams,
and a draw can be generated from any counter offset.  Every method steps
x+ = x + beta d - alpha grad f(x + gamma d) + sigma w with d = x - x- (see
:mod:`noiseamp.dynamics`).

:func:`simulate` advances in blocks of steps: each block draws its noise at
its offset, advances the state and writes its slice of the squared-norm
trace, so the result is bit-identical to one long run.  Blocks hold
``BLOCK_STEPS`` steps.  On a non-quadratic objective, where a step costs
far more, they double from ``FIRST_BLOCK_STEPS`` up to ``BLOCK_STEPS``,
so a run that diverges early stops within about twice its divergence step.
Quadratic objectives filter each mode through 1 / (1 - b z^-1 - a z^-2),
carrying the filter state between blocks.  Any other objective must be
separable and give its gradient two ways: ``gradient(x)`` on the whole
vector and ``coordinate_gradient(j)``, d f / d x_j as a float -> float
function of x_j alone, equal bit for bit.  Up to ``SCALAR_MAX_DIM``
coordinates, each coordinate steps as a scalar recursion on Python floats;
above it, the whole vector steps once per iterate through numpy, whose
per-call cost is then spread over enough coordinates.  Memory is
O(BLOCK_STEPS * n) for the noise and iterates plus 8 bytes per step for
the trace that ``j_hat`` and ``per_step`` are read from.
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
BLOCK_STEPS = 1 << 14         # steps per block in simulate
FIRST_BLOCK_STEPS = 1 << 8    # first block of a non-quadratic run
NOISE_BLOCK_PAIRS = 1 << 14   # Box-Muller pairs per pass in standard_normals
BATCHES = 100                 # batches of the batch-means standard error
SCALAR_MAX_DIM = 28           # n where scalar and vector steps cost alike


def _mix(z: int) -> int:
    """splitmix64 finalizer on a python integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _stream_key(seed: int, replicate: int) -> int:
    return _mix(_mix(seed & _MASK) ^ _mix((replicate + 0x1F123BB5) & _MASK))


def _uniforms(key: int, first: int, count: int) -> np.ndarray:
    """Splitmix64 outputs at counters first, first + 2, ..., in (0, 1).

    Each output depends on its counter alone.  The mixing runs in place on
    one uint64 buffer and one scratch buffer.
    """
    z = np.arange(first, first + 2 * count, 2, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(key)
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def standard_normals(seed: int, replicate: int, count: int,
                     start: int = 0) -> np.ndarray:
    """Draws ``start`` .. ``start + count - 1`` of the N(0, 1) stream of
    (seed, replicate).

    Draw 2p is r cos(theta) and draw 2p + 1 is r sin(theta) for the
    Box-Muller pair built from uniforms 2p + 1 and 2p + 2 of the counter.
    A draw depends only on its index, so
    ``standard_normals(s, r, c, start)`` equals
    ``standard_normals(s, r, start + c)[start:]`` bit for bit.  Pairs are
    generated ``NOISE_BLOCK_PAIRS`` at a time.
    """
    if count <= 0:
        return np.empty(0)
    key = _stream_key(seed, replicate)
    first, stop = start // 2, (start + count + 1) // 2
    z = np.empty((stop - first, 2))
    for p in range(first, stop, NOISE_BLOCK_PAIRS):
        k = min(NOISE_BLOCK_PAIRS, stop - p)
        r = np.log(_uniforms(key, 2 * p + 1, k))
        r *= -2.0
        np.sqrt(r, out=r)
        theta = _uniforms(key, 2 * p + 2, k)
        theta *= 2.0 * np.pi
        pairs = z[p - first:p - first + k]
        np.multiply(r, np.cos(theta), out=pairs[:, 0])
        np.multiply(r, np.sin(theta), out=pairs[:, 1])
    offset = start - 2 * first
    return z.reshape(-1)[offset:offset + count]


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

    def coordinate_gradient(self, j: int):
        """d f / d x_j as a float -> float function of x_j alone.

        Equal bit for bit to ``gradient`` (numpy squares with one
        multiplication; Python's ``** 2`` would round differently).
        """
        m, excess, delta = self.m, self.L - self.m, self.delta

        def grad(y: float) -> float:
            s = y / delta
            return m * y + excess * y / math.sqrt(1.0 + s * s)

        return grad

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
    j_hat_stderr: float | None = None
    j_hat_replicates: tuple[float, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        out = {"j_hat": self.j_hat, "j_hat_stderr": self.j_hat_stderr,
               "steps": self.steps,
               "replicates": self.replicates, "seed": self.seed}
        if self.per_step is not None:
            out["per_step"] = [float(v) for v in self.per_step]
        if self.per_step_stderr is not None:
            out["per_step_stderr"] = [float(v) for v in self.per_step_stderr]
        return out


def _batch_stderr(sq: np.ndarray) -> float | None:
    """Batch-means standard error of the mean of ``sq`` over ``BATCHES``
    equal batches (a tail shorter than one batch is left out); None for
    fewer than ``BATCHES`` values."""
    size = sq.size // BATCHES
    if size == 0:
        return None
    means = sq[:size * BATCHES].reshape(BATCHES, size).mean(axis=1)
    return float(means.std(ddof=1)) / math.sqrt(BATCHES)


def _filter_stepper(cfg: AlgoConfig, obj: Quadratic):
    """Block advance on a quadratic: one linear filter per mode.

    Mode j filters sigma w through 1 / (1 - b_j z^-1 - a_j z^-2); its
    filter state is carried from block to block.
    """
    a, b = companion_coefficients(cfg, obj.lams)
    num = [cfg.effective_sigma]
    dens = [[1.0, -b[j], -a[j]][:cfg.order + 1] for j in range(obj.dim)]
    states = [np.zeros(cfg.order) for _ in range(obj.dim)]

    def advance(w: np.ndarray) -> np.ndarray:
        x = np.empty_like(w)
        for j, den in enumerate(dens):
            x[:, j], states[j] = lfilter(num, den, w[:, j], zi=states[j])
        return x

    return advance


def _separable_stepper(cfg: AlgoConfig, obj):
    """Block advance on a separable objective, carrying (x_prev, x) from
    block to block.

    Each lane steps x+ = x + beta d - alpha grad(x + gamma d) + kick over
    the block: one lane per coordinate on Python floats when the dimension
    is at most ``SCALAR_MAX_DIM``, else one lane holding the whole vector.
    """
    for name in ("coordinate_gradient", "gradient"):
        if not callable(getattr(obj, name, None)):
            raise TypeError(
                f"{type(obj).__name__} has no {name}; simulate steps a "
                f"non-quadratic objective through coordinate_gradient(j) "
                f"and gradient(x)")
    alpha, beta, gamma = cfg.alpha, cfg.beta, cfg.gamma
    sigma = cfg.effective_sigma
    if obj.dim <= SCALAR_MAX_DIM:
        lanes = [[j, obj.coordinate_gradient(j), 0.0, 0.0]
                 for j in range(obj.dim)]
    else:
        zero = np.zeros(obj.dim)
        lanes = [[slice(None), obj.gradient, zero, zero]]

    def advance(w: np.ndarray) -> np.ndarray:
        x = np.empty_like(w)
        for lane in lanes:
            cols, grad, prev, cur = lane
            kicks = sigma * w[:, cols]
            rows = []
            # A diverging vector lane overflows to inf and NaN without
            # warnings; simulate reports the first bad iterate.
            with np.errstate(all="ignore"):
                for kick in kicks.tolist() if kicks.ndim == 1 else kicks:
                    d = cur - prev
                    prev, cur = cur, (cur + beta * d
                                      - alpha * grad(cur + gamma * d) + kick)
                    rows.append(cur)
            x[:, cols] = rows
            lane[2:] = prev, cur
        return x

    return advance


def simulate(cfg: AlgoConfig, obj, steps: int, seed: int,
             replicate: int = 0, track_per_step: bool = False) -> SimResult:
    """Run one noisy trajectory and estimate J by time averaging.

    The estimate averages the squared errors of the ``steps`` noise-driven
    iterates.  The run advances ``BLOCK_STEPS`` steps at a time (a
    non-quadratic run starts at ``FIRST_BLOCK_STEPS`` and doubles), drawing
    each block's noise at its offset in the stream.  Raises
    :class:`NonFinite` at the first iterate whose norm exceeds
    ``DIVERGENCE_NORM`` or is not finite, :class:`Unstable` before drawing
    noise for a step no quadratic allows, and :class:`TypeError` for a
    non-quadratic objective without ``coordinate_gradient`` or
    ``gradient``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if isinstance(obj, Quadratic):
        check_step_size(cfg, obj.spectrum.L)
        advance, size = _filter_stepper(cfg, obj), BLOCK_STEPS
    else:
        advance, size = _separable_stepper(cfg, obj), FIRST_BLOCK_STEPS
    n, order = obj.dim, cfg.order
    # sq[t] = ||x^t||^2.  x^0 (and x^1 for two-step methods) start at 0;
    # the last `steps` entries are the noise-driven iterates.
    sq = np.zeros(steps + order)
    t0 = 0
    while t0 < steps:
        t1 = min(t0 + size, steps)
        w = standard_normals(seed, replicate, (t1 - t0) * n, t0 * n)
        x = advance(w.reshape(t1 - t0, n))
        block = sq[order + t0:order + t1]
        np.einsum("ij,ij->i", x, x, out=block)
        # A NaN norm fails the comparison too.
        bad = ~(block <= DIVERGENCE_NORM ** 2)
        if bad.any():
            raise NonFinite(order + t0 + int(np.argmax(bad)))
        t0, size = t1, min(2 * size, BLOCK_STEPS)
    j_hat = float(np.mean(sq[order:]))
    per_step = sq[:steps + 1] if track_per_step else None
    return SimResult(j_hat=j_hat, steps=steps, replicates=1, seed=seed,
                     per_step=per_step, j_hat_stderr=_batch_stderr(sq[order:]),
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
        j_hat_stderr = float(np.std(j_hats, ddof=1)) / math.sqrt(replicates)
    else:
        stderr = np.zeros(steps + 1)
        j_hat_stderr = res.j_hat_stderr
    return SimResult(j_hat=float(np.mean(j_hats)), steps=steps,
                     replicates=replicates, seed=seed, per_step=mean,
                     per_step_stderr=stderr, j_hat_stderr=j_hat_stderr,
                     j_hat_replicates=tuple(j_hats))
