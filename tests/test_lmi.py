import math
from dataclasses import replace

import numpy as np
import pytest

from noiseamp import (Algo, AlgoConfig, LmiCertificate, LmiProblem,
                      NotContractive, PseudoHuber, ShapeMismatch,
                      assemble_lmi, contraction_bound_gd,
                      evaluate_certificate, gd_certificate, make_spectrum,
                      na_certificate, q_bounds, refine_bound,
                      variance_amplification)
from noiseamp.lmi import _lmi_entries, _sym_eigenvalues


def test_sym_eigenvalues_match_reference_eigensolver():
    rng = np.random.default_rng(1)
    for k in (2, 3):
        rows, cols = np.triu_indices(k)
        for trial in range(300):
            scale = 10.0 ** rng.uniform(-3.0, 11.0)
            if trial % 3 == 0:
                a = rng.normal(size=(k, k))
                sym = scale * (a + a.T)
            else:
                # Rotate eigenvalues that are equal or nearly so.
                q, _ = np.linalg.qr(rng.normal(size=(k, k)))
                gap = 0.0 if trial % 3 == 1 else 10.0 ** rng.uniform(-15, -6)
                eigs = scale * (1.0 + gap * rng.normal(size=k))
                sym = q @ np.diag(eigs) @ q.T
            upper = tuple(sym[rows, cols].tolist())
            sym = np.triu(sym) + np.triu(sym, 1).T
            mine = _sym_eigenvalues(upper)
            ref = np.linalg.eigvalsh(sym)
            tol = 1e-12 * max(1.0, float(np.abs(sym).max()))
            np.testing.assert_allclose(mine, ref, rtol=0.0, atol=tol)


def test_sym_eigenvalues_reject_bad_input():
    for size in (1, 2, 4, 9):
        with pytest.raises(ShapeMismatch):
            _sym_eigenvalues((1.0,) * size)


def test_nonfinite_certificate_is_never_valid():
    for (prob, cert), names in ((gd_certificate(1.0, 10.0), ("x1", "lambda1")),
                                (na_certificate(10.0, 1.0), ("x0", "lambda1"))):
        for name in names:
            for bad in (math.nan, math.inf):
                got = evaluate_certificate(prob, replace(cert, **{name: bad}))
                assert not got.valid


def test_lmi_entries_match_state_space_assembly():
    # Reference: the LMI built block by block from the state-space model.
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = float(rng.uniform(0.1, 1.0))
        L = m * float(rng.uniform(1.0, 1e3))
        alpha = float(rng.uniform(0.1, 2.0)) / L
        beta = float(rng.uniform(0.0, 0.99))
        cert = LmiCertificate(*rng.normal(scale=10.0, size=5).tolist())
        for algo in (Algo.GD, Algo.NA):
            b = beta if algo == Algo.NA else 0.0
            p = LmiProblem(algo=algo, m=m, L=L, alpha=alpha, beta=b)
            q = 1.0 - alpha * m
            if algo == Algo.GD:
                A, Bu = np.array([[q]]), np.array([[-alpha]])
                Cz = Cy = np.array([[1.0]])
                X = np.array([[cert.x1]])
            else:
                A = np.array([[0.0, 1.0], [-b * q, (1.0 + b) * q]])
                Bu = np.array([[0.0], [-alpha]])
                Cz, Cy = np.array([[1.0, 0.0]]), np.array([[-b, 1.0 + b]])
                X = np.array([[cert.x1, cert.x0], [cert.x0, cert.x2]])
            k = A.shape[0]
            core = np.block([[A.T @ X @ A - X + Cz.T @ Cz, A.T @ X @ Bu],
                             [Bu.T @ X @ A, Bu.T @ X @ Bu]])
            sel = np.zeros((2, k + 1))
            sel[0, :k], sel[1, k] = Cy[0], 1.0
            pi = np.array([[0.0, L - m], [L - m, -2.0]])
            ref = core + cert.lambda1 * (sel.T @ pi @ sel)
            if algo == Algo.NA:
                n1 = np.array([[alpha * m * b, -alpha * m * (1.0 + b), -alpha],
                               [-m * b, m * (1.0 + b), 1.0]])
                n2 = np.array([[-b, b, 0.0], [-m * b, m * (1.0 + b), 1.0]])
                ref = ref + cert.lambda2 * (
                    n1.T @ np.array([[L, 1.0], [1.0, 0.0]]) @ n1
                    + n2.T @ np.array([[-m, 1.0], [1.0, 0.0]]) @ n2)
            rows, cols = np.triu_indices(k + 1)
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(_lmi_entries(p, cert), ref[rows, cols],
                                       rtol=0.0, atol=1e-13 * scale)


def test_gd_certificate_exact_residual():
    prob, cert = gd_certificate(1.0, 2.0)
    assert cert.x1 == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert cert.lambda1 == pytest.approx(1.0 / 3.0, rel=1e-15)
    lhs = assemble_lmi(prob, cert)
    np.testing.assert_allclose(lhs, np.diag([0.0, -1.0 / 3.0]), atol=1e-15)
    assert cert.valid
    assert cert.bound == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_gd_certificate_residual_formula():
    # residual is diag(0, -1/(m^2 (2 kappa - 1))) at alpha = 1/L
    for m, kappa in [(1.0, 2.0), (0.5, 10.0), (2.0, 1000.0)]:
        prob, cert = gd_certificate(m, m * kappa)
        lhs = assemble_lmi(prob, cert)
        expected = np.diag([0.0, -1.0 / (m * m * (2.0 * kappa - 1.0))])
        np.testing.assert_allclose(lhs, expected, rtol=1e-12, atol=1e-14)
        assert cert.bound == pytest.approx(
            kappa * kappa / (2.0 * kappa - 1.0), rel=1e-13)


def test_certified_bound_dominates_exact_quadratic_variance():
    rng = np.random.default_rng(2)
    for kappa in (2.0, 10.0, 100.0):
        m, L, n = 1.0, kappa, 6
        gp, gc = gd_certificate(m, L, n=n)
        np_, nc = na_certificate(kappa, L, n=n)
        for _ in range(20):
            inner = rng.uniform(m, L, size=n - 2)
            s = make_spectrum(np.concatenate([[m, L], inner]))
            jg = variance_amplification(
                AlgoConfig(algo=Algo.GD, alpha=gp.alpha), s).j
            assert jg <= gc.bound * (1 + 1e-12)
            jn = variance_amplification(
                AlgoConfig(algo=Algo.NA, alpha=np_.alpha, beta=np_.beta), s).j
            assert jn <= nc.bound * (1 + 1e-12)


def test_na_certificate_validity_and_unit_condition():
    for kappa in (1.0, 2.0, 10.0, 1e2, 1e4, 1e6):
        prob, cert = na_certificate(kappa, 1.0)
        assert cert.valid, f"kappa={kappa}: residual {cert.residual_max_eig}"
        assert cert.x_min_eig >= -cert.psd_tol
    _, unit = na_certificate(1.0, 1.0)
    assert unit.bound == pytest.approx(1.0, rel=1e-14)


def test_na_certificate_within_factor_of_reference():
    for kappa in np.logspace(0, 6, 50):
        _, cert = na_certificate(float(kappa), 3.0, n=2)
        ref = q_bounds(Algo.NA, float(kappa), 2)
        assert cert.bound <= 4.08 * ref
        assert cert.bound >= ref * (1 - 1e-12)


def test_reduced_and_full_lmi_agree():
    for n in (1, 2, 3):
        for make in (lambda: gd_certificate(0.7, 4.0, n=n),
                     lambda: na_certificate(8.0, 2.0, n=n)):
            prob, cert = make()
            reduced = assemble_lmi(prob, cert)
            full = assemble_lmi(replace(prob, reduced=False), cert)
            r_eigs = np.linalg.eigvalsh(reduced)
            f_eigs = np.linalg.eigvalsh(full)
            # The full LMI spectrum is the reduced one with multiplicity n.
            np.testing.assert_allclose(
                f_eigs, np.sort(np.repeat(r_eigs, n)), atol=1e-12)


def test_contraction_bound():
    assert contraction_bound_gd(1.0, 2.0, 0.5, n=3) == pytest.approx(
        3.0 * 4.0 / 3.0, rel=1e-14)
    for kappa in (2.0, 10.0):
        got = contraction_bound_gd(1.0, kappa, 1.0 / kappa)
        assert got == pytest.approx(kappa * kappa / (2 * kappa - 1), rel=1e-13)
    with pytest.raises(NotContractive):
        contraction_bound_gd(1.0, 2.0, 1.0)


def test_refine_bound_improves_or_keeps():
    prob, cert = na_certificate(10.0, 1.0)
    refined = refine_bound(prob, cert, budget=400)
    assert refined.valid
    assert refined.bound <= cert.bound * (1 + 1e-12)

    gprob, gcert = gd_certificate(1.0, 5.0)
    grefined = refine_bound(gprob, gcert, budget=200)
    assert grefined.valid and grefined.bound <= gcert.bound * (1 + 1e-12)


# refine_bound results recorded with the cyclic-Jacobi eigensolver that the
# closed-form evaluation replaced: the refiner must still take the same path.
REFINED_BOUNDS = [
    (Algo.NA, 10.0, 400, 14.152704562185114),
    (Algo.NA, 1e3, 1000, 15676.14545293108),
    (Algo.NA, 1e6, 1000, 499874620.20370066),
    (Algo.NA, 1e6, 2000, 499874619.0410048),
    (Algo.GD, 1e3, 400, 500.2476287671722),
    (Algo.GD, 1e6, 2000, 499950.7425244256),
]


@pytest.mark.parametrize("algo,kappa,budget,bound", REFINED_BOUNDS)
def test_refine_bound_matches_recorded_values(algo, kappa, budget, bound):
    if algo == Algo.GD:
        prob, cert = gd_certificate(1.0 / kappa, 1.0)
    else:
        prob, cert = na_certificate(kappa, 1.0)
    refined = refine_bound(prob, cert, budget=budget)
    assert refined.valid
    assert refined.bound == pytest.approx(bound, rel=1e-9)


def test_refine_rejects_invalid_start():
    prob, cert = gd_certificate(1.0, 5.0)
    bad = replace(cert, x1=-1.0)
    with pytest.raises(ValueError):
        refine_bound(prob, evaluate_certificate(prob, bad))


def test_gradient_sector_constraint_empirically():
    # The LMI multiplier encodes: for Delta(y) = grad f(y) - m y and any
    # pair of points, 2 (L-m) <y - y0, Delta - Delta0> >= 2 ||Delta - Delta0||^2.
    m, L, n = 0.7, 6.0, 5
    obj = PseudoHuber(m, L, n, delta=0.8)
    rng = np.random.default_rng(3)
    y = rng.normal(scale=3.0, size=(10000, n))
    y0 = rng.normal(scale=3.0, size=(10000, n))
    d = (obj.gradient(y) - m * y) - (obj.gradient(y0) - m * y0)
    e = y - y0
    lhs = 2.0 * (L - m) * np.einsum("ij,ij->i", e, d) \
        - 2.0 * np.einsum("ij,ij->i", d, d)
    assert lhs.min() >= -1e-10


def test_lmi_problem_validation():
    with pytest.raises(ValueError):
        LmiProblem(algo=Algo.HB, m=1.0, L=2.0, alpha=0.5)
    with pytest.raises(ValueError):
        LmiProblem(algo=Algo.GD, m=3.0, L=2.0, alpha=0.5)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LmiProblem(algo=Algo.NA, m=1.0, L=2.0, alpha=alpha)
