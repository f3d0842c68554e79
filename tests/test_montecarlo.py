import itertools
import math

import numpy as np
import pytest
from scipy.signal import lfilter

from noiseamp import (Algo, AlgoConfig, NonFinite, PseudoHuber, Quadratic,
                      SigmaMode, ensemble_variance, make_spectrum,
                      optimal_quadratic_params, propagate_covariance,
                      simulate, standard_normals, variance_amplification)
from noiseamp import montecarlo
from noiseamp.dynamics import companion_coefficients


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


@pytest.mark.parametrize("pairs", [3, montecarlo.NOISE_BLOCK_PAIRS])
@pytest.mark.parametrize("start", [0, 1, 6, 7])
def test_normals_at_an_offset_equal_the_long_draw(monkeypatch, pairs, start):
    # Draws are generated `pairs` Box-Muller pairs at a time; counts that
    # cross one or more blocks, from odd and even offsets, must reproduce
    # the matching slice of one long draw bit for bit.
    monkeypatch.setattr(montecarlo, "NOISE_BLOCK_PAIRS", pairs)
    for count in (1, 2, 2 * pairs - 1, 2 * pairs + 1, 4 * pairs + 2):
        long = standard_normals(9, 2, start + count)
        part = standard_normals(9, 2, count, start)
        assert part.shape == (count,)
        assert part.tobytes() == long[start:].tobytes()


def test_normals_frozen_reference():
    # Pinned values guard the generator against accidental changes.
    np.testing.assert_allclose(
        standard_normals(42, 0, 4),
        [-0.261072457116615, -1.4176846696795498,
         0.10497935973445952, 0.7767199860611191], rtol=0, atol=0)


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
