"""Seeded Monte Carlo validation of the steady-state variance formulas.

Runs the exact noisy recursions from x^0 = x^1 = 0 and reports the running
average J_hat = (1/T) sum_{k=1..T} ||x^k - x*||^2 over the noise-driven
iterates with its batch-means standard error, plus optional per-iterate
ensemble statistics for comparison with the covariance recursion.  Every
method steps x+ = x + beta d - alpha grad f(x + gamma d) + sigma w with
d = x - x- (see :mod:`noiseamp.dynamics`).

Noise.  Each (seed, replicate) keys a counter-based splitmix64 stream, and
draw c of its N(0, 1) noise is a 256-layer ziggurat draw (Marsaglia and
Tsang, 2000) from stream output c: bits 0-7 pick the layer and bits 12-63
give a signed uniform, so the two never share bits (Doornik, 2005).  About
98.5% of draws pass the fast test |x| < x_{i+1}; the rest finish on
sub-streams keyed by (stream, c, attempt), so each draw depends only on
its index and any slice of a stream can be drawn on its own.  The layer
tables are committed as ``float.hex`` literals, the uniforms come from
integer and bit operations, and the wedge and tail tests use exp and log
built from + - * /, floor, frexp and ldexp.  Each of these is exactly
rounded or exact in IEEE arithmetic, so a stream is the same bits on every
platform and under every SIMD kernel numpy picks.

Replicates run in lockstep.  :func:`ensemble_variance` advances all R
replicates a block of steps at a time: one noise call draws the block for
every replicate, a quadratic filters the coordinates of each distinct
eigenvalue through 1 / (1 - b z^-1 - a z^-2) with one ``lfilter`` over
their R x T x count block, carrying the filter states between blocks
(``lfilter`` filters each column of the block alone, so the bits are those
of one call per coordinate), and any other objective steps
R x n lanes.  :func:`simulate` is the R = 1 case, and every replicate of an
ensemble equals its own :func:`simulate` bit for bit, as do blocked runs
and one long run.  Blocks hold ``BLOCK_STEPS`` steps over all replicates.
On a non-quadratic objective, where a step costs far more, they double
from ``FIRST_BLOCK_STEPS``, so a run that diverges early stops within
about twice its divergence step.  A non-quadratic objective must be
separable and give its gradient two ways: ``gradient(x)`` on an R x n
array, a row per replicate, and ``coordinate_gradient(j)``, d f / d x_j as
a float -> float function of x_j alone, equal bit for bit.  Up to
``SCALAR_MAX_DIM`` lanes (replicates times coordinates), each lane steps as
a scalar recursion on Python floats; above it, all lanes step once per
iterate through numpy, whose per-call cost is then spread over enough
lanes.  Memory is O(BLOCK_STEPS * n) for the noise and iterates plus 8
bytes per step and replicate for the trace that ``j_hat`` and
``per_step`` are read from; a run whose trace or largest noise block would
hold more than ``MAX_FLOATS`` floats is refused before anything is
allocated.

``scipy.signal.lfilter`` is imported on the first quadratic run, not with
this module: no other part of the package uses scipy, so importing
:mod:`noiseamp` loads numpy alone, and the first quadratic run in a
process pays scipy's import (about 0.9 s on a 2-CPU x86 VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import AlgoConfig, check_step_size, companion_coefficients
from .errors import NonFinite, SizeOverflow
from .spectrum import Spectrum
from ._ziggurat_tables import F_HEX, X_HEX

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
DIVERGENCE_NORM = 1e12
BLOCK_STEPS = 1 << 14         # steps per block, over all replicates
FIRST_BLOCK_STEPS = 1 << 8    # first block of a non-quadratic run
NOISE_BLOCK = 1 << 14         # draws per pass in standard_normals
BATCHES = 100                 # batches of the batch-means standard error
SCALAR_MAX_DIM = 28           # lanes where scalar and vector steps cost alike
MAX_FLOATS = 1 << 27          # floats in the trace or a noise block (1 GiB)

# Ziggurat layer edges x_0 .. x_256 and densities f(x_i) = exp(-x_i^2 / 2).
_X = np.array([float.fromhex(v) for v in X_HEX.split()])
_F = np.array([float.fromhex(v) for v in F_HEX.split()])
_X_NEXT = _X[1:]              # x_{i+1}: layer i holds no wedge below it
_R = float(_X[1])             # where the tail starts
_SUB_COUNTERS = np.array([k * _GOLDEN & _MASK for k in (1, 2, 3)], np.uint64)

# fdlibm's exp and log (e_exp.c, e_log.c): ln 2 split so that k ln2_hi is
# exact, and the minimax coefficients of their polynomials.
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_SQRT_HALF = float.fromhex("0x1.6a09e667f3bcdp-1")
_EXP_P = (1.66666666666666019037e-01, -2.77777777770155933842e-03,
          6.61375632143793436117e-05, -1.65339022054652515390e-06,
          4.13813679705723846039e-08)
_LOG_LG = (6.666666666666735130e-01, 3.999999999940941908e-01,
           2.857142874366239149e-01, 2.222219843214978396e-01,
           1.818357216161805012e-01, 1.531383769920937332e-01,
           1.479819860511658591e-01)


def _mix(z: int) -> int:
    """splitmix64 finalizer on a python integer."""
    z &= _MASK
    for shift, mult in _MIX:
        z = ((z ^ (z >> shift)) * mult) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place."""
    t = np.empty_like(z)
    for shift, mult in _MIX:
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _stream_keys(seed: int, replicates) -> np.ndarray:
    """The uint64 stream key of (seed, r) per replicate index r, which
    must lie in the int64 range: mix(mix(seed) ^ mix(r + 0x1F123BB5)),
    the index's two's complement plus the constant wrapping mod 2**64."""
    z = np.array(replicates, np.int64, ndmin=1).view(np.uint64)
    z += np.uint64(0x1F123BB5)
    return _mix_array(_mix_array(z) ^ np.uint64(_mix(seed)))


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) for moderate x, within an ulp, from + - * / and exact ops."""
    k = np.floor(x * _INV_LN2 + 0.5)
    hi = x - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    t = r * r
    p1, p2, p3, p4, p5 = _EXP_P
    c = r - t * (p1 + t * (p2 + t * (p3 + t * (p4 + t * p5))))
    return np.ldexp(1.0 - ((lo - (r * c) / (2.0 - c)) - hi),
                    k.astype(np.int64))


def _log(u: np.ndarray) -> np.ndarray:
    """log(u) for normal u > 0, within an ulp, from + - * / and exact ops."""
    m, e = np.frexp(u)                  # u = m 2^e, m in [1/2, 1)
    low = m < _SQRT_HALF
    f = np.where(low, m + m, m) - 1.0   # exact: 1 + f in [sqrt(1/2), sqrt(2))
    k = (e - low).astype(np.float64)
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    g1, g2, g3, g4, g5, g6, g7 = _LOG_LG
    r = z * (g1 + w * (g3 + w * (g5 + w * g7))) + w * (g2 + w * (g4 + w * g6))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def _unit(z: np.ndarray) -> np.ndarray:
    """The top 52 bits of each uint64 as a float in [1, 2), in place."""
    z >>= np.uint64(12)
    z |= np.uint64(0x3FF0000000000000)
    return z.view(np.float64)


def _propose(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layer i (bits 0-7) and signed x = u x_i, u in [-1, 1) from bits
    12-63, of each splitmix64 output; x overwrites ``z``."""
    layer = (z & np.uint64(255)).view(np.int64)
    z >>= np.uint64(12)
    z |= np.uint64(0x4000000000000000)  # the float bits of [2, 4)
    x = z.view(np.float64)
    x -= 3.0
    x *= np.take(_X, layer)
    return layer, x


def _finish(keys: np.ndarray, draws: np.ndarray, layer: np.ndarray,
            x: np.ndarray) -> np.ndarray:
    """Values of the draws whose first proposal (``layer``, ``x``) missed
    the fast test.

    Attempt a of draw c reads outputs 1 to 3 of the splitmix64 sub-stream
    keyed by mix(stream key ^ (c * golden + a)).  A wedge point is kept
    when it lies under the density; otherwise output 3 is a fresh
    proposal, kept if it passes the fast test and tried at attempt a + 1
    if not.  A tail draw repeats Marsaglia's tail method with outputs 1
    and 2, keeping its sign, until it is accepted.
    """
    value = np.empty(x.size)
    pos = np.arange(x.size)
    attempt = 0
    while pos.size:
        sub = draws * np.uint64(_GOLDEN)
        sub += np.uint64(attempt)
        sub ^= keys
        bits = _mix_array(_mix_array(sub)[:, None] + _SUB_COUNTERS)
        u = _unit(bits[:, :2])
        # The wedge test; tail draws are decided below instead.
        y = u[:, 0] - 1.0
        y *= np.take(_F, layer + 1) - np.take(_F, layer)
        y += np.take(_F, layer)
        ok = y < _exp(-0.5 * x * x)
        tail = np.flatnonzero(layer == 0)
        if tail.size:
            logs = _log(2.0 - u[tail])
            s = logs[:, 0] / -_R
            ok[tail] = -2.0 * logs[:, 1] > s * s
            x[tail] = np.copysign(_R + s, x[tail])
        again = np.flatnonzero(~ok & (layer != 0))
        if again.size:
            layer[again], x[again] = _propose(bits[again, 2])
            ok[again] = np.abs(x[again]) < np.take(_X_NEXT, layer[again])
        value[pos[ok]] = x[ok]
        keep = ~ok
        pos, keys, draws = pos[keep], keys[keep], draws[keep]
        layer, x = layer[keep], x[keep]
        attempt += 1
    return value


def standard_normals(seed: int, replicate, count: int,
                     start: int = 0) -> np.ndarray:
    """Draws ``start`` .. ``start + count - 1`` of the N(0, 1) stream of
    (seed, replicate).

    ``replicate`` is one index, giving ``count`` draws, or a sequence of
    indices, giving one row of ``count`` draws per index; an index outside
    the int64 range raises OverflowError.  Draw c is a 256-layer ziggurat
    draw from splitmix64 output c of the stream: bits 0-7 pick the layer
    and bits 12-63 give the signed uniform.  The few draws that miss the
    fast test continue on sub-streams keyed by (stream, c, attempt), so a
    draw depends only on its index and ``standard_normals(s, r, c, start)``
    equals ``standard_normals(s, r, start + c)[start:]`` bit for bit.
    Draws are generated ``NOISE_BLOCK`` at a time.
    """
    out = _normals(_stream_keys(seed, replicate), count, start)
    return out if np.ndim(replicate) else out[0]


def _normals(keys: np.ndarray, count: int, start: int) -> np.ndarray:
    """Draws ``start`` .. ``start + count - 1`` of the stream of each key,
    one row per key: :func:`standard_normals` on keys derived once."""
    rows, count = keys.size, max(count, 0)
    out = np.empty((rows, count))
    bits = out.view(np.uint64)
    width = min(count, NOISE_BLOCK)
    height = max(1, NOISE_BLOCK // max(width, 1))
    missed = []
    for c0 in range(0, count, width):
        c1 = min(c0 + width, count)
        counters = np.arange(start + c0, start + c1, dtype=np.uint64)
        counters *= np.uint64(_GOLDEN)
        for r0 in range(0, rows, height):
            r1 = min(r0 + height, rows)
            z = bits[r0:r1, c0:c1]
            np.add(keys[r0:r1, None], counters, out=z)
            layer, x = _propose(_mix_array(z))
            miss = np.flatnonzero(np.abs(x) >= np.take(_X_NEXT, layer))
            if miss.size:
                r, c = np.divmod(miss, c1 - c0)
                missed.append((r + r0, c + c0, layer.ravel()[miss],
                               x.ravel()[miss]))
    if missed:
        r, c, layer, x = (np.concatenate(a) for a in zip(*missed))
        draws = (c + start).astype(np.uint64)
        out[r, c] = _finish(keys[r], draws, layer, x)
    return out


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
        if n < 1 or not delta > 0.0:  # NaN too
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
            out["per_step"] = self.per_step
        if self.per_step_stderr is not None:
            out["per_step_stderr"] = self.per_step_stderr
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


def _filter_stepper(cfg: AlgoConfig, obj: Quadratic, replicates: int):
    """Block advance on a quadratic: one linear filter per distinct
    eigenvalue.

    A coordinate with eigenvalue lambda filters sigma w through
    1 / (1 - b z^-1 - a z^-2), one row per replicate; its filter states are
    carried from block to block.  ``obj.lams`` is sorted, so the coordinates
    of one eigenvalue form a run, and one ``lfilter`` call filters the run's
    (replicates x steps x run length) slice.  The iterates overwrite the
    noise block.  The denominators are one (eigenvalues x order+1) array,
    the run bounds one array and the states one (replicates x order x
    coordinates) array, so the stepper holds at most 8 (order + 2 +
    replicates x order) bytes per coordinate.
    """
    from scipy.signal import lfilter  # here: the package's one scipy use

    lams = obj.lams
    bounds = np.flatnonzero(np.r_[True, lams[1:] != lams[:-1], True])
    a, b = companion_coefficients(cfg, lams[bounds[:-1]])
    num = [cfg.effective_sigma]
    dens = np.stack([np.ones_like(b), -b, -a][:cfg.order + 1], axis=1)
    states = np.zeros((replicates, cfg.order, obj.dim))

    def advance(w: np.ndarray) -> np.ndarray:
        edges = bounds.tolist()
        for lo, hi, den in zip(edges, edges[1:], dens):
            w[:, :, lo:hi], states[:, :, lo:hi] = lfilter(
                num, den, w[:, :, lo:hi], axis=1, zi=states[:, :, lo:hi])
        return w

    return advance


def _separable_stepper(cfg: AlgoConfig, obj, replicates: int):
    """Block advance on a separable objective, carrying (x_prev, x) from
    block to block.

    Each lane steps x+ = x + beta d - alpha grad(x + gamma d) + kick over
    the block: one lane per (replicate, coordinate) on Python floats when
    there are at most ``SCALAR_MAX_DIM`` of them, else one lane holding
    every replicate's vector, a row each.  The iterates overwrite the noise
    block.
    """
    for name in ("coordinate_gradient", "gradient"):
        if not callable(getattr(obj, name, None)):
            raise TypeError(
                f"{type(obj).__name__} has no {name}; simulate steps a "
                f"non-quadratic objective through coordinate_gradient(j) "
                f"and gradient(x)")
    alpha, beta, gamma = cfg.alpha, cfg.beta, cfg.gamma
    sigma = cfg.effective_sigma
    if replicates * obj.dim <= SCALAR_MAX_DIM:
        grads = [obj.coordinate_gradient(j) for j in range(obj.dim)]
        lanes = [[(slice(None), r, j), grad, 0.0, 0.0]
                 for r in range(replicates) for j, grad in enumerate(grads)]
    else:
        zero = np.zeros((replicates, obj.dim))
        lanes = [[(slice(None),), obj.gradient, zero, zero]]

    def advance(w: np.ndarray) -> np.ndarray:
        # A step-major view: a lane's kicks and iterates run along axis 0.
        w_steps = w.transpose(1, 0, 2)
        for lane in lanes:
            cols, grad, prev, cur = lane
            kicks = sigma * w_steps[cols]
            rows = []
            # A diverging vector lane overflows to inf and NaN without
            # warnings; simulate reports the first bad iterate.
            with np.errstate(all="ignore"):
                for kick in kicks.tolist() if kicks.ndim == 1 else kicks:
                    d = cur - prev
                    prev, cur = cur, (cur + beta * d
                                      - alpha * grad(cur + gamma * d) + kick)
                    rows.append(cur)
            w_steps[cols] = rows
            lane[2:] = prev, cur
        return w

    return advance


def _squared_norms(cfg: AlgoConfig, obj, steps: int, seed: int,
                   replicates: range) -> np.ndarray:
    """||x^t||^2 for t = 0 .. steps + order - 1, one row per replicate.

    All replicates advance in lockstep, a block of steps at a time: one
    noise call draws the block for every replicate at its offset in each
    stream.  Blocks hold ``BLOCK_STEPS`` steps over all replicates (at
    least one step each); a non-quadratic run starts at
    ``FIRST_BLOCK_STEPS`` and doubles.  Raises :class:`NonFinite` at the
    earliest iterate of any replicate whose norm exceeds
    ``DIVERGENCE_NORM`` or is not finite, and :class:`SizeOverflow`
    before any allocation if the trace or a block would hold more than
    ``MAX_FLOATS`` floats.  A quadratic passes :func:`check_step_size`
    alone, not ``check_stable``: NonFinite reports an unstable run.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    count = len(replicates)
    n, order = obj.dim, cfg.order
    most = max(1, BLOCK_STEPS // count)
    for what, size in (("trace", count * (steps + order)),
                       ("noise block", count * min(steps, most) * n)):
        if size > MAX_FLOATS:
            raise SizeOverflow(
                f"a run of {count} replicates x {steps} steps on {n} "
                f"coordinates needs a {what} of {size} floats, above the "
                f"supported {MAX_FLOATS}")
    if isinstance(obj, Quadratic):
        check_step_size(cfg, obj.spectrum.L)
        advance, size = _filter_stepper(cfg, obj, count), BLOCK_STEPS
    else:
        advance, size = _separable_stepper(cfg, obj, count), FIRST_BLOCK_STEPS
    size = min(size, most)
    # x^0 (and x^1 for two-step methods) start at 0; the last `steps`
    # entries of a row are the noise-driven iterates.
    sq = np.zeros((count, steps + order))
    keys = _stream_keys(seed, replicates)
    t0 = 0
    while t0 < steps:
        t1 = min(t0 + size, steps)
        w = _normals(keys, (t1 - t0) * n, t0 * n)
        x = advance(w.reshape(count, t1 - t0, n)).reshape(-1, n)
        block = sq[:, order + t0:order + t1]
        block[:] = np.einsum("ij,ij->i", x, x).reshape(count, t1 - t0)
        # A NaN norm fails the comparison too.
        bad = ~(block <= DIVERGENCE_NORM ** 2)
        if bad.any():
            raise NonFinite(order + t0 + int(np.argmax(bad.any(axis=0))))
        t0, size = t1, min(2 * size, most)
    return sq


def simulate(cfg: AlgoConfig, obj, steps: int, seed: int,
             replicate: int = 0, track_per_step: bool = False) -> SimResult:
    """Run one noisy trajectory and estimate J by time averaging.

    The estimate averages the squared errors of the ``steps`` noise-driven
    iterates.  The run is the one-replicate case of the lockstep run of
    :func:`ensemble_variance`.  Raises :class:`NonFinite` at the first
    iterate whose norm exceeds ``DIVERGENCE_NORM`` or is not finite,
    :class:`Unstable` before drawing noise for a step no quadratic allows,
    :class:`SizeOverflow` before allocating a run too large to hold,
    and :class:`TypeError` for a non-quadratic objective without
    ``coordinate_gradient`` or ``gradient``.
    """
    order = cfg.order
    sq = _squared_norms(cfg, obj, steps, seed,
                        range(replicate, replicate + 1))[0]
    j_hat = float(np.mean(sq[order:]))
    per_step = sq[:steps + 1] if track_per_step else None
    return SimResult(j_hat=j_hat, steps=steps, replicates=1, seed=seed,
                     per_step=per_step, j_hat_stderr=_batch_stderr(sq[order:]),
                     j_hat_replicates=(j_hat,))


def ensemble_variance(cfg: AlgoConfig, obj, steps: int, replicates: int,
                      seed: int) -> SimResult:
    """Average ||x^t||^2 across independent replicates, per iterate index.

    ``per_step[t]`` estimates the transient variance trace(C P^t C^T) and
    ``per_step_stderr`` its standard error across the replicates (two or
    more).  They step in lockstep; each equals :func:`simulate` of its
    replicate index bit for bit.  A diverging ensemble raises
    :class:`NonFinite` at the earliest bad iterate of any replicate.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2; one replicate is simulate")
    sq = _squared_norms(cfg, obj, steps, seed, range(replicates))
    j_hats = sq[:, cfg.order:].mean(axis=1).tolist()
    tracks = sq[:, :steps + 1]
    root = math.sqrt(replicates)
    return SimResult(j_hat=float(np.mean(j_hats)), steps=steps,
                     replicates=replicates, seed=seed,
                     per_step=tracks.mean(axis=0),
                     per_step_stderr=tracks.std(axis=0, ddof=1) / root,
                     j_hat_stderr=float(np.std(j_hats, ddof=1)) / root,
                     j_hat_replicates=tuple(j_hats))
