import hashlib
import itertools
import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter

from noiseamp import (Algo, AlgoConfig, NonFinite, PseudoHuber, Quadratic,
                      SigmaMode, SizeOverflow, TorusSpec, ensemble_variance,
                      make_spectrum,
                      optimal_quadratic_params, propagate_covariance,
                      simulate, standard_normals, torus_spectrum,
                      variance_amplification)
from noiseamp import _ziggurat_tables, montecarlo
from noiseamp.dynamics import companion_coefficients

# sha256 of standard_normals(7, 0, 2**20) as little-endian float64 bytes.
NORMALS_DIGEST = ("a31f001e3a9498cae0d23a5890a34015"
                  "e975e18811dcecf46093cf4f94459e12")


def test_normals_reproducible_and_keyed():
    a = standard_normals(42, 0, 1000)
    b = standard_normals(42, 0, 1000)
    np.testing.assert_array_equal(a, b)
    c = standard_normals(42, 1, 1000)
    assert not np.array_equal(a, c)
    d = standard_normals(43, 0, 1000)
    assert not np.array_equal(a, d)
    # prefix property: shorter draws are a prefix of longer ones
    np.testing.assert_array_equal(a[:10], standard_normals(42, 0, 10))


@pytest.mark.parametrize("block", [3, montecarlo.NOISE_BLOCK])
@pytest.mark.parametrize("start", [0, 1, 6, 7])
def test_normals_at_an_offset_equal_the_long_draw(monkeypatch, block, start):
    # Draws are generated `block` at a time; counts that cross one or more
    # blocks, from odd and even offsets, must reproduce the matching slice
    # of one long draw bit for bit.
    monkeypatch.setattr(montecarlo, "NOISE_BLOCK", block)
    for count in (1, 2, 2 * block - 1, 2 * block + 1, 4 * block + 2):
        long = standard_normals(9, 2, start + count)
        part = standard_normals(9, 2, count, start)
        assert part.shape == (count,)
        assert part.tobytes() == long[start:].tobytes()


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _scalar_key(seed, replicate):
    """The stream key of (seed, replicate) on Python ints."""
    mix = montecarlo._mix
    return mix(mix(seed & _MASK) ^ mix((replicate + 0x1F123BB5) & _MASK))


@pytest.mark.parametrize("seed", [-1, 0, 7, 2 ** 70])
def test_stream_keys_match_the_scalar_mix(seed):
    # One uint64 pass over the indices wraps mod 2**64 where the Python
    # ints are masked, for every index in the int64 range.
    reps = [*range(50), 2 ** 40, -1, -2 ** 63, 2 ** 63 - 1]
    keys = montecarlo._stream_keys(seed, np.array(reps))
    assert keys.dtype == np.uint64
    assert keys.tolist() == [_scalar_key(seed, r) for r in reps]
    assert montecarlo._stream_keys(seed, 5).tolist() == [_scalar_key(seed, 5)]
    with pytest.raises(OverflowError):
        montecarlo._stream_keys(seed, [2 ** 63])


def _scalar_exp(v):
    return float(montecarlo._exp(np.array([v]))[0])


def _scalar_log(v):
    return float(montecarlo._log(np.array([v]))[0])


def _reference_draw(key, c):
    """Draw c of the stream ``key`` on Python ints and floats, one attempt
    at a time.  Returns (value, attempts after the first, tail tests)."""
    xs, fs, r = montecarlo._X, montecarlo._F, montecarlo._R

    def out(base, k):
        return montecarlo._mix((base + k * _GOLDEN) & _MASK)

    def unit(z):                        # top 52 bits as a float in [1, 2)
        return 1.0 + (z >> 12) * 2.0 ** -52

    def propose(z):
        i = z & 255
        return i, (2.0 * unit(z) - 3.0) * xs[i]

    i, x = propose(out(key, c))
    if abs(x) < xs[i + 1]:
        return x, 0, 0
    tails = 0
    for a in itertools.count():
        sub = montecarlo._mix(key ^ ((c * _GOLDEN + a) & _MASK))
        if i:
            y = fs[i] + (unit(out(sub, 1)) - 1.0) * (fs[i + 1] - fs[i])
            if y < _scalar_exp(-0.5 * x * x):
                return x, a, tails
            i, x = propose(out(sub, 3))
            if abs(x) < xs[i + 1]:
                return x, a + 1, tails
        else:
            tails += 1
            s = _scalar_log(2.0 - unit(out(sub, 1))) / -r
            if -2.0 * _scalar_log(2.0 - unit(out(sub, 2))) > s * s:
                return math.copysign(r + s, x), a, tails


def _slow_draws(seed, replicate, count):
    """Indices of the draws that miss the fast test in the first ``count``
    draws of (seed, replicate)."""
    seen = []
    finish = montecarlo._finish

    def spy(keys, draws, layer, x):
        seen.append(draws.copy())
        return finish(keys, draws, layer, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_finish", spy)
        standard_normals(seed, replicate, count)
    return [int(c) for c in np.concatenate(seen)]


def test_normals_match_the_scalar_reference():
    # Every draw, fast or slow, equals the one-at-a-time reference, and
    # the draws cover wedge rejections, the tail and tail retries.
    z = standard_normals(7, [0, 3], 1 << 20)
    for row, rep in zip(z, (0, 3)):
        key = _scalar_key(7, rep)
        for c in range(2000):
            assert _reference_draw(key, c)[0] == row[c]
    key = _scalar_key(7, 0)
    slow = {c: _reference_draw(key, c) for c in _slow_draws(7, 0, 1 << 20)}
    assert 0.010 < len(slow) / (1 << 20) < 0.020
    for c, (value, _, _) in slow.items():
        assert value == z[0, c]
    kinds = {(min(attempts, 1), min(tails, 2))
             for _, attempts, tails in slow.values()}
    assert {(0, 0), (1, 0), (0, 1), (1, 2)} <= kinds


def test_normals_at_an_offset_across_rejections(monkeypatch):
    # Slow draws (accepted at the first, second or a later attempt, in a
    # wedge, in the tail or after a rejected tail test) generated alone,
    # first or last in a short call and in blocks of 3 equal the long draw.
    key = _scalar_key(9, 2)
    long = standard_normals(9, 2, 1 << 20)
    picks = {}
    for c in (c for c in _slow_draws(9, 2, 1 << 20) if c >= 4):
        _, attempts, tails = _reference_draw(key, c)
        picks.setdefault((min(attempts, 2), min(tails, 2)), []).append(c)
    assert {(0, 0), (1, 0), (2, 0), (0, 1), (1, 2)} <= set(picks)
    monkeypatch.setattr(montecarlo, "NOISE_BLOCK", 3)
    for draws in picks.values():
        for c in draws[:5]:
            for start, count in ((c, 1), (c - 4, 5), (c, 7), (c - 1, 3)):
                part = standard_normals(9, 2, count, start)
                assert part.tobytes() == long[start:start + count].tobytes()


def test_normals_frozen_reference():
    # Pinned values guard the generator against accidental changes.
    np.testing.assert_allclose(
        standard_normals(42, 0, 4),
        [-2.4833245450392245, -0.3500242132594137,
         0.9725776079191844, 0.7818537481620336], rtol=0, atol=0)


def test_normals_digest_is_pinned():
    # The stream is built from integer ops, + - * /, exact rounding and
    # table lookups only, so this digest holds under every SIMD kernel.
    digest = hashlib.sha256(standard_normals(7, 0, 1 << 20).tobytes())
    assert digest.hexdigest() == NORMALS_DIGEST


def test_normals_moments_and_ks_on_1e7_draws():
    # Five standard errors on each moment and tail count; KS against N(0, 1).
    n, chunk = 10 ** 7, 1 << 20
    z = standard_normals(5, 0, n)
    sums = np.zeros(4)
    for lo in range(0, n, chunk):
        sums += [np.sum(z[lo:lo + chunk] ** k) for k in (1, 2, 3, 4)]
    for got, want, var in zip(sums / n, (0.0, 1.0, 0.0, 3.0),
                              (1.0, 2.0, 15.0, 96.0)):
        assert abs(got - want) <= 5.0 * math.sqrt(var / n)
    for edge in (montecarlo._R, 4.5):
        p = 2.0 * stats.norm.sf(edge)
        count = int(np.count_nonzero(np.abs(z) > edge))
        assert abs(count - n * p) <= 5.0 * math.sqrt(n * p)
    z.sort()
    d = 0.0
    for lo in range(0, n, chunk):
        cdf = stats.norm.cdf(z[lo:lo + chunk])
        rank = np.arange(lo, lo + cdf.size, dtype=float)
        d = max(d, float(np.max(cdf - rank / n)),
                float(np.max((rank + 1) / n - cdf)))
    assert stats.kstwo.sf(d, n) > 1e-3


def test_exact_exp_and_log_are_within_an_ulp():
    x = -np.linspace(0.0, 0.5 * montecarlo._X[0] ** 2, 20001)
    want = np.array([math.exp(v) for v in x])
    assert np.max(np.abs(montecarlo._exp(x) - want) / want) <= 2.3e-16
    u = np.concatenate([np.linspace(2.0 ** -52, 1.0, 20001),
                        np.geomspace(2.0 ** -52, 1.0, 2001)])
    want = np.array([math.log(v) for v in u])
    got = montecarlo._log(u)
    assert np.all(np.abs(got - want) <= 2.3e-16 * np.maximum(np.abs(want),
                                                              1e-300))
    assert montecarlo._log(np.array([1.0]))[0] == 0.0


def test_ziggurat_layers_have_equal_areas():
    xs, fs = montecarlo._X, montecarlo._F
    assert xs.size == fs.size == 257 and xs[256] == 0.0 and fs[256] == 1.0
    assert np.all(np.diff(xs) < 0.0)
    for x, f in zip(xs, fs):
        assert f == pytest.approx(math.exp(-0.5 * x * x), rel=2.3e-16)
    r = xs[1]
    area = r * fs[1] + math.sqrt(math.pi / 2.0) * math.erfc(r / math.sqrt(2.0))
    assert xs[0] * fs[1] == pytest.approx(area, rel=1e-14)
    for i in range(1, 256):
        assert xs[i] * (fs[i + 1] - fs[i]) == pytest.approx(area, rel=1e-12)


def test_ziggurat_tables_rederive_from_their_docstring():
    # The docstring's R and V at 50 digits: x_0 = V / f(R), x_1 = R,
    # x_{i+1} = f^{-1}(V / x_i + f(x_i)) up to x_255, x_256 = 0 and
    # F = f(x).  Each committed literal is the float nearest its value.
    doc = _ziggurat_tables.__doc__
    r, v = (Decimal(re.search(rf"\b{name} = (\d+\.\d+)", doc).group(1))
            for name in ("R", "V"))
    with localcontext() as ctx:
        ctx.prec = 50

        def f(x):
            return (-x * x / 2).exp()

        xs = [v / f(r), r]
        for i in range(1, 255):
            xs.append((-2 * (v / xs[i] + f(xs[i])).ln()).sqrt())
        xs.append(Decimal(0))
        fs = [f(x) for x in xs]
    assert [float(x) for x in xs] == montecarlo._X.tolist()
    assert [float(x) for x in fs] == montecarlo._F.tolist()


def test_normals_moments():
    z = standard_normals(0, 0, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs((z ** 3).mean()) < 0.02


def test_gd_unit_mode():
    # alpha * lambda = 1 wipes the state each step: x^{k+1} = sigma w^k.
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.0)
    res = simulate(cfg, Quadratic(make_spectrum([1.0])), 50000, seed=42)
    assert res.j_hat == pytest.approx(1.0, rel=0.03)


class _GenericQuadratic:
    """Quadratic gradient without the fast-path type, to exercise the loop."""

    def __init__(self, s):
        self.lams = s.values.copy()

    @property
    def dim(self):
        return self.lams.size

    def gradient(self, x):
        return self.lams * x

    def coordinate_gradient(self, j):
        lam = float(self.lams[j])
        return lambda y: lam * y


def test_objective_without_the_separable_contract_is_rejected():
    class Vectorial:
        dim = 2

        def gradient(self, x):
            return x

    class Scalar:
        dim = 2

        def coordinate_gradient(self, j):
            return lambda y: y

    cfg = AlgoConfig(algo=Algo.GD, alpha=0.5)
    with pytest.raises(TypeError, match="no coordinate_gradient"):
        simulate(cfg, Vectorial(), 10, seed=0)
    with pytest.raises(TypeError, match="no gradient"):
        simulate(cfg, Scalar(), 10, seed=0)


def test_coordinate_gradient_matches_gradient_bitwise():
    obj = PseudoHuber(0.3, 7.0, 3, delta=0.6)
    x = np.random.default_rng(4).normal(scale=5.0, size=(200, 3))
    want = obj.gradient(x)
    for j in range(3):
        grad = obj.coordinate_gradient(j)
        got = np.array([grad(v) for v in x[:, j].tolist()])
        assert got.tobytes() == want[:, j].tobytes()


def _unchunked(cfg, obj, steps, seed):
    """Squared norms of x^0 .. x^{steps + order - 1} from one noise draw.

    The reference for :func:`simulate`: quadratics filter each mode over
    the whole run, other objectives step the vector recursion with
    ``gradient``.  Returns (sq, first divergent index or None).
    """
    order, n = cfg.order, obj.dim
    noise = standard_normals(seed, 0, steps * n).reshape(steps, n)
    if isinstance(obj, Quadratic):
        w = np.zeros((steps + order, n))
        w[order:] = noise
        a, b = companion_coefficients(cfg, obj.lams)
        x = np.empty_like(w)
        for j in range(n):
            x[:, j] = lfilter([cfg.effective_sigma],
                              [1.0, -b[j], -a[j]][:order + 1], w[:, j])
    else:
        x = np.zeros((steps + 2, n))
        kicks = cfg.effective_sigma * noise
        with np.errstate(all="ignore"):
            for t in range(steps):
                cur = x[t + 1]
                d = cur - x[t]
                x[t + 2] = (cur + cfg.beta * d
                            - cfg.alpha * obj.gradient(cur + cfg.gamma * d)
                            + kicks[t])
        x = x[2 - order:]
    sq = np.einsum("ij,ij->i", x, x)
    bad = ~(sq <= montecarlo.DIVERGENCE_NORM ** 2)
    return sq, (int(np.argmax(bad)) if bad.any() else None)


_CHUNK_CASES = [(Algo.GD, 0.3, 0.0), (Algo.HB, 0.4, 0.5), (Algo.NA, 0.3, 0.6)]
_CHUNK_OBJECTIVES = (Quadratic(make_spectrum([1.0, 2.0, 3.0])),
                     PseudoHuber(1.0, 3.0, 3, delta=0.7))
# Separable objectives step per coordinate up to SCALAR_MAX_DIM and as one
# vector above it; 0 forces the vector lane on the small objective.
_LANES = [montecarlo.SCALAR_MAX_DIM, 0]


def _check_against_reference(cfg, obj, lengths):
    for steps in lengths:
        sq, first_bad = _unchunked(cfg, obj, steps, seed=8)
        assert first_bad is None
        res = simulate(cfg, obj, steps, seed=8, track_per_step=True)
        assert res.j_hat == float(np.mean(sq[-steps:]))
        assert res.per_step.tobytes() == sq[:steps + 1].tobytes()


@pytest.mark.parametrize("lane_max_dim", _LANES)
@pytest.mark.parametrize("algo, alpha, beta", _CHUNK_CASES)
def test_chunked_simulation_matches_unchunked_reference(
        monkeypatch, lane_max_dim, algo, alpha, beta):
    # Blocks of 8 steps (2, 4, 8, 8, ... for pseudo-Huber): every length
    # up to 4 full blocks ends one step before, on and after each edge.
    monkeypatch.setattr(montecarlo, "SCALAR_MAX_DIM", lane_max_dim)
    monkeypatch.setattr(montecarlo, "FIRST_BLOCK_STEPS", 2)
    monkeypatch.setattr(montecarlo, "BLOCK_STEPS", 8)
    cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=0.9)
    for obj in _CHUNK_OBJECTIVES:
        _check_against_reference(cfg, obj, range(1, 4 * 8))


@pytest.mark.parametrize("lane_max_dim", _LANES)
def test_chunked_simulation_at_the_real_block_sizes(monkeypatch,
                                                    lane_max_dim):
    monkeypatch.setattr(montecarlo, "SCALAR_MAX_DIM", lane_max_dim)
    first, block = montecarlo.FIRST_BLOCK_STEPS, montecarlo.BLOCK_STEPS
    cfg = AlgoConfig(algo=Algo.NA, alpha=0.3, beta=0.6, sigma=0.9)
    for obj in _CHUNK_OBJECTIVES:
        _check_against_reference(
            cfg, obj, (first - 1, first + 1, block - 1, block + 1,
                       2 * block + 1))


def test_lane_choice_keeps_the_bits():
    # Up to the scalar limit only coordinate_gradient steps the run, above
    # it only gradient; both match the reference.
    used = set()

    class Traced(PseudoHuber):
        def gradient(self, x):
            used.add("gradient")
            return super().gradient(x)

        def coordinate_gradient(self, j):
            used.add("coordinate_gradient")
            return super().coordinate_gradient(j)

    cfg = AlgoConfig(algo=Algo.HB, alpha=0.2, beta=0.5, sigma=0.9)
    for n, lane in ((montecarlo.SCALAR_MAX_DIM, "coordinate_gradient"),
                    (montecarlo.SCALAR_MAX_DIM + 1, "gradient")):
        used.clear()
        res = simulate(cfg, Traced(1.0, 3.0, n), 300, seed=8,
                       track_per_step=True)
        assert used == {lane}
        sq, _ = _unchunked(cfg, PseudoHuber(1.0, 3.0, n), 300, seed=8)
        assert res.per_step.tobytes() == sq[:301].tobytes()


@pytest.mark.parametrize("lane_max_dim", _LANES)
@pytest.mark.parametrize("algo, beta", [(Algo.GD, 0.0), (Algo.HB, 0.5),
                                        (Algo.NA, 0.5)])
def test_divergence_step_matches_unchunked_reference(monkeypatch,
                                                     lane_max_dim, algo,
                                                     beta):
    # Slightly past the stability edge alpha m (1 + 2 gamma) = 2 (1 + beta)
    # of the smallest curvature m = 1, so the run diverges several blocks in.
    monkeypatch.setattr(montecarlo, "SCALAR_MAX_DIM", lane_max_dim)
    monkeypatch.setattr(montecarlo, "FIRST_BLOCK_STEPS", 16)
    monkeypatch.setattr(montecarlo, "BLOCK_STEPS", 64)
    gamma = beta if algo == Algo.NA else 0.0
    alpha = 2.0 * (1.0 + beta) / (1.0 + 2.0 * gamma) * 1.02
    cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta)
    for obj in (Quadratic(make_spectrum([1.0, 1.0])),
                PseudoHuber(1.0, 1.0, 2)):
        _, first_bad = _unchunked(cfg, obj, 3000, seed=2)
        assert first_bad is not None and first_bad > 3 * 64
        with pytest.raises(NonFinite, match=f"at step {first_bad}$"):
            simulate(cfg, obj, 3000, seed=2)


def test_divergent_run_stops_near_its_divergence_step():
    # Blocks double from FIRST_BLOCK_STEPS, so a run diverging at step k
    # steps at most 2 k + FIRST_BLOCK_STEPS iterates, not all of them.
    calls = []

    class Counted(PseudoHuber):
        def coordinate_gradient(self, j):
            grad = super().coordinate_gradient(j)

            def counted(y):
                calls.append(j)
                return grad(y)

            return counted

    cfg = AlgoConfig(algo=Algo.HB, alpha=3.06, beta=0.5)
    with pytest.raises(NonFinite) as err:
        simulate(cfg, Counted(1.0, 1.0, 1), 1_000_000, seed=2)
    k = err.value.step
    assert k < montecarlo.BLOCK_STEPS // 4
    assert len(calls) <= 2 * k + montecarlo.FIRST_BLOCK_STEPS


def test_filter_path_matches_explicit_recursion(monkeypatch):
    s = make_spectrum([0.5, 2.0, 3.5])
    for lane_max_dim, algo in itertools.product(_LANES, Algo):
        monkeypatch.setattr(montecarlo, "SCALAR_MAX_DIM", lane_max_dim)
        beta = 0.0 if algo == Algo.GD else 0.45
        cfg = AlgoConfig(algo=algo, alpha=0.2, beta=beta, sigma=0.8)
        fast = simulate(cfg, Quadratic(s), 2000, seed=5, track_per_step=True)
        slow = simulate(cfg, _GenericQuadratic(s), 2000, seed=5,
                        track_per_step=True)
        assert fast.j_hat == pytest.approx(slow.j_hat, rel=1e-9)
        np.testing.assert_allclose(fast.per_step, slow.per_step,
                                   rtol=1e-8, atol=1e-10)



@pytest.mark.parametrize("algo", [Algo.GD, Algo.HB])
def test_filter_state_is_a_few_floats_per_mode(algo):
    # A torus run filters one mode per eigenvalue, counted with
    # multiplicity, so its per-mode state must stay a few floats: the
    # coefficients and filter states are two arrays, 8 (2 order + 1)
    # bytes per mode for one replicate.
    s = torus_spectrum(TorusSpec(d=2, n0=64))
    obj = Quadratic(s)
    tuned = optimal_quadratic_params(algo, s.m, s.L)
    cfg = AlgoConfig(algo=algo, alpha=tuned.alpha, beta=tuned.beta)
    w = np.zeros((1, 4, obj.dim))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        advance = montecarlo._filter_stepper(cfg, obj, 1)
        advance(w)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * obj.dim


@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("algo", list(Algo))
def test_grouped_filter_equals_per_coordinate_filtering(algo, replicates):
    # One lfilter call per run of equal eigenvalues gives the bits of one
    # call per coordinate, block after block.
    s = torus_spectrum(TorusSpec(d=2, n0=16))
    obj = Quadratic(s)
    assert np.unique(obj.lams).size < obj.dim
    tuned = optimal_quadratic_params(algo, s.m, s.L)
    cfg = AlgoConfig(algo=algo, alpha=tuned.alpha, beta=tuned.beta,
                     sigma=0.7)
    a, b = companion_coefficients(cfg, obj.lams)
    dens = np.stack([np.ones_like(b), -b, -a][:cfg.order + 1], axis=1)
    states = np.zeros((obj.dim, replicates, cfg.order))
    advance = montecarlo._filter_stepper(cfg, obj, replicates)
    for block, steps in enumerate((5, 37)):
        w = standard_normals(2, range(replicates), steps * obj.dim,
                             block * 5 * obj.dim)
        w = w.reshape(replicates, steps, obj.dim)
        want = np.empty_like(w)
        for j, den in enumerate(dens):
            want[:, :, j], states[j] = lfilter([0.7], den, w[:, :, j],
                                               axis=1, zi=states[j])
        got = advance(w)
        assert got.tobytes() == want.tobytes()


def test_j_hat_stderr_by_hand():
    cfg = AlgoConfig(algo=Algo.HB, alpha=0.3, beta=0.4)
    res = simulate(cfg, PseudoHuber(1.0, 4.0, 2), 1050, seed=6,
                   track_per_step=True)
    # The 1050 noise-driven norms are x^2 .. x^1051: 100 batches of 10,
    # the last 50 left out.
    sq, _ = _unchunked(cfg, PseudoHuber(1.0, 4.0, 2), 1050, seed=6)
    batch = [sum(sq[2 + 10 * b:12 + 10 * b]) / 10 for b in range(100)]
    mean = sum(batch) / 100
    sd = math.sqrt(sum((v - mean) ** 2 for v in batch) / 99)
    assert res.j_hat_stderr == pytest.approx(sd / 10, rel=1e-12)
    assert simulate(cfg, Quadratic(make_spectrum([1.0])), 99,
                    seed=6).j_hat_stderr is None

    ens = ensemble_variance(cfg, Quadratic(make_spectrum([1.0, 2.0])), 50, 4,
                            seed=6)
    j = ens.j_hat_replicates
    sd = math.sqrt(sum((v - sum(j) / 4) ** 2 for v in j) / 3)
    assert ens.j_hat_stderr == pytest.approx(sd / 2, rel=1e-12)


def test_simulation_matches_exact_variance():
    s = make_spectrum([1.0, 9.0])
    for algo in (Algo.GD, Algo.HB, Algo.NA):
        p = optimal_quadratic_params(algo, 1.0, 9.0)
        cfg = AlgoConfig(algo=algo, alpha=p.alpha, beta=p.beta)
        exact = variance_amplification(cfg, s).j
        res = simulate(cfg, Quadratic(s), 200000, seed=7)
        assert res.j_hat == pytest.approx(exact, rel=0.05)


def test_divergence_detected():
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.0)
    with pytest.raises(NonFinite):
        simulate(cfg, Quadratic(make_spectrum([3.0])), 5000, seed=0)
    with pytest.raises(NonFinite):
        simulate(cfg, PseudoHuber(3.0, 3.0, 1), 500000, seed=0)


def test_sigma_mode_equals_alpha():
    s = make_spectrum([1.0, 4.0])
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.25, sigma=7.0,
                     sigma_mode=SigmaMode.EQUALS_ALPHA)
    ref = AlgoConfig(algo=Algo.GD, alpha=0.25, sigma=0.25)
    a = simulate(cfg, Quadratic(s), 1000, seed=3)
    b = simulate(ref, Quadratic(s), 1000, seed=3)
    assert a.j_hat == b.j_hat


def test_ensemble_small():
    s = make_spectrum([1.0])
    cfg = AlgoConfig(algo=Algo.GD, alpha=1.0)
    res = ensemble_variance(cfg, Quadratic(s), 1, 2, seed=42)
    # One step, two replicates: average of the two first-step squared norms.
    w0 = standard_normals(42, 0, 1)[0]
    w1 = standard_normals(42, 1, 1)[0]
    assert res.j_hat == pytest.approx(0.5 * (w0 ** 2 + w1 ** 2), rel=1e-14)
    assert res.per_step.shape == (2,)
    assert res.per_step[0] == 0.0
    assert res.replicates == 2
    assert len(res.j_hat_replicates) == 2


@pytest.mark.parametrize("replicates", [1, 0, -3])
def test_ensemble_needs_two_replicates(replicates):
    # One replicate has no spread to report: it is simulate's job.
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.5)
    with pytest.raises(ValueError, match="one replicate is simulate"):
        ensemble_variance(cfg, Quadratic(make_spectrum([1.0])), 10,
                          replicates, seed=0)


def _serial_ensemble(cfg, obj, steps, replicates, seed):
    """(j_hats, per_step, per_step_stderr) from one simulate per replicate."""
    runs = [simulate(cfg, obj, steps, seed, replicate=r, track_per_step=True)
            for r in range(replicates)]
    tracks = np.array([res.per_step for res in runs])
    return (tuple(res.j_hat for res in runs), tracks.mean(axis=0),
            tracks.std(axis=0, ddof=1) / math.sqrt(replicates))


@pytest.mark.parametrize("replicates", [4, 12])
@pytest.mark.parametrize("algo, alpha, beta", _CHUNK_CASES)
def test_lockstep_ensemble_equals_serial_replicates(monkeypatch, replicates,
                                                    algo, alpha, beta):
    # n = 3: 4 replicates step 12 scalar lanes, 12 replicates step 36 > 28
    # coordinates as one vector lane.  Blocks of 64 steps over all
    # replicates put several block edges inside the 150 steps.
    monkeypatch.setattr(montecarlo, "FIRST_BLOCK_STEPS", 4)
    monkeypatch.setattr(montecarlo, "BLOCK_STEPS", 64)
    assert (replicates * 3 <= montecarlo.SCALAR_MAX_DIM) == (replicates == 4)
    cfg = AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=0.9)
    for obj in _CHUNK_OBJECTIVES:
        ens = ensemble_variance(cfg, obj, 150, replicates, seed=12)
        j_hats, mean, stderr = _serial_ensemble(cfg, obj, 150, replicates, 12)
        assert ens.j_hat_replicates == j_hats
        assert ens.per_step.tobytes() == mean.tobytes()
        assert ens.per_step_stderr.tobytes() == stderr.tobytes()


def test_lockstep_lane_choice_counts_replicates():
    # SCALAR_MAX_DIM bounds replicates x coordinates, not coordinates.
    used = set()

    class Traced(PseudoHuber):
        def gradient(self, x):
            used.add("gradient")
            return super().gradient(x)

        def coordinate_gradient(self, j):
            used.add("coordinate_gradient")
            return super().coordinate_gradient(j)

    cfg = AlgoConfig(algo=Algo.NA, alpha=0.2, beta=0.5, sigma=0.9)
    limit = montecarlo.SCALAR_MAX_DIM
    for replicates, lane in ((limit // 2, "coordinate_gradient"),
                             (limit // 2 + 1, "gradient")):
        used.clear()
        ensemble_variance(cfg, Traced(1.0, 3.0, 2), 40, replicates, seed=3)
        assert used == {lane}


def test_diverging_ensemble_reports_the_earliest_step():
    # Past the stability edge every replicate diverges, each at its own
    # step; the lockstep ensemble names the earliest of them.
    cfg = AlgoConfig(algo=Algo.HB, alpha=2.0 * 1.5 * 1.02, beta=0.5)
    for obj in (Quadratic(make_spectrum([1.0, 1.0])),
                PseudoHuber(1.0, 1.0, 2)):
        steps = []
        for r in range(6):
            with pytest.raises(NonFinite) as err:
                simulate(cfg, obj, 3000, seed=2, replicate=r)
            steps.append(err.value.step)
        assert len(set(steps)) > 1
        with pytest.raises(NonFinite, match=f"at step {min(steps)}$"):
            ensemble_variance(cfg, obj, 3000, 6, seed=2)


def _objectives(n):
    return (Quadratic(make_spectrum(np.linspace(1.0, 2.0, n))),
            PseudoHuber(1.0, 2.0, n))


@pytest.mark.parametrize("n, steps, replicates, what", [
    (2, 10 ** 13, 1, "trace"),
    (2, 10, 10 ** 12, "trace"),
    (10_000, montecarlo.BLOCK_STEPS, 1, "noise block"),
    (10, 1, 1 << 24, "noise block"),
])
def test_oversized_runs_are_refused_before_allocating(n, steps, replicates,
                                                      what):
    # Sizes that could never be allocated: only a refusal that comes first
    # lets these return at once.
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.5)
    for obj in _objectives(n):
        with pytest.raises(SizeOverflow, match=f"needs a {what} of"):
            if replicates == 1:
                simulate(cfg, obj, steps, seed=0)
            else:
                ensemble_variance(cfg, obj, steps, replicates, seed=0)


@pytest.mark.parametrize("limit, n, steps, refused", [
    (100, 1, 99, False), (100, 1, 100, True),   # the trace: steps + 1
    (300, 3, 100, False), (300, 3, 101, True),  # the noise block: 3 steps
])
def test_size_limit_is_inclusive(monkeypatch, limit, n, steps, refused):
    monkeypatch.setattr(montecarlo, "MAX_FLOATS", limit)
    cfg = AlgoConfig(algo=Algo.GD, alpha=0.5)
    for obj in _objectives(n):
        if refused:
            with pytest.raises(SizeOverflow):
                simulate(cfg, obj, steps, seed=0)
        else:
            assert simulate(cfg, obj, steps, seed=0).steps == steps


def test_ensemble_tracks_covariance_recursion():
    s = make_spectrum([1.0, 4.0, 9.0])
    p = optimal_quadratic_params(Algo.HB, 1.0, 9.0)
    cfg = AlgoConfig(algo=Algo.HB, alpha=p.alpha, beta=p.beta)
    res = ensemble_variance(cfg, Quadratic(s), 200, 50, seed=1)
    theory = propagate_covariance(cfg, s, 201)
    for t in (5, 20, 80, 200):
        se = max(res.per_step_stderr[t], 1e-12)
        assert abs(res.per_step[t] - theory[t]) <= 5.0 * se


def test_pseudo_huber_gradient_and_curvature():
    obj = PseudoHuber(1.0, 10.0, 4, delta=0.7)
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    eps = 1e-6
    fd = np.array([(obj.value(x + eps * e) - obj.value(x - eps * e))
                   / (2 * eps) for e in np.eye(4)])
    np.testing.assert_allclose(obj.gradient(x), fd, rtol=1e-6, atol=1e-8)
    # m-strong convexity and L-smoothness along random secants
    for _ in range(500):
        a = rng.normal(scale=3.0, size=4)
        b = rng.normal(scale=3.0, size=4)
        inner = float(np.dot(obj.gradient(a) - obj.gradient(b), a - b))
        gap = float(np.dot(a - b, a - b))
        assert 1.0 * gap - 1e-9 <= inner <= 10.0 * gap + 1e-9


def test_pseudo_huber_validation():
    with pytest.raises(ValueError):
        PseudoHuber(2.0, 1.0, 3)
    with pytest.raises(ValueError):
        PseudoHuber(1.0, 2.0, 3, delta=0.0)


def test_tridiagonal_spectrum_closed_form():
    # The 1-D Dirichlet Laplacian (tridiagonal Toeplitz [-1, 2, -1]) has
    # eigenvalues 2 - 2 cos(k pi / (n + 1)).
    n = 50
    closed = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    mat = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    np.testing.assert_allclose(np.sort(closed), np.linalg.eigvalsh(mat),
                               atol=1e-10)
