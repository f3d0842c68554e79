"""Variance certificates for strongly convex problems via small LMIs.

Beyond quadratics, J can no longer be computed exactly, but it can be
bounded: if X >= 0 and multipliers lambda1, lambda2 >= 0 make the linear
matrix inequality below negative semidefinite, then
J <= sigma^2 (n L lambda2 + trace(Bw^T X Bw)).

The LMI couples the state-space model of the method (gradient descent or
Nesterov's method, written around the fixed point) with quadratic
constraints satisfied by the gradient of any m-strongly-convex, L-smooth
function.  Because every block of the LMI is a scalar multiple of the
identity when X is given the structured form [[x1 I, x0 I], [x0 I, x2 I]],
the n-dimensional LMI reduces losslessly to a 3x3 (NA) or 2x2 (GD) matrix
inequality, the form assembled and evaluated here.

Closed-form certificates at the standard tunings (alpha = 1/L, and for NA
beta = (sqrt(k)-1)/(sqrt(k)+1)) are provided, together with a derivative-free
coordinate-descent refiner.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .dynamics import Algo
from .errors import KappaTooLarge, ShapeMismatch, kappa_closed_form

PSD_TOL_SCALE = 1e-8


def _sym_matrix(upper: tuple[float, ...]) -> np.ndarray:
    """Symmetric 2x2 or 3x3 matrix from its upper triangle, row by row."""
    if len(upper) == 3:
        a, b, c = upper
        return np.array(((a, b), (b, c)))
    if len(upper) == 6:
        a, b, c, d, e, f = upper
        return np.array(((a, b, c), (b, d, e), (c, e, f)))
    raise ShapeMismatch(
        f"expected the 3 or 6 upper-triangle entries of a symmetric 2x2 or "
        f"3x3 matrix, got {len(upper)}")


def _sym_eigenvalues(upper: tuple[float, ...]) -> tuple[float, ...]:
    """Ascending eigenvalues of a symmetric 2x2 or 3x3 matrix.

    ``upper`` is the upper triangle row by row, as for :func:`_sym_matrix`.
    The 2x2 case is solved in closed form.  The 3x3 case goes to LAPACK:
    the trigonometric cubic formula loses accuracy near repeated roots.
    A NaN or infinite entry gives NaN eigenvalues.
    """
    finite = all(map(math.isfinite, upper))
    if len(upper) == 3 and finite:
        a, b, c = upper
        mid, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        return mid - rad, mid + rad
    mat = _sym_matrix(upper)
    if not finite:
        # Otherwise the 2x2 formula can give inf, and LAPACK can raise or
        # return finite values.
        return (math.nan,) * len(mat)
    return tuple(np.linalg.eigvalsh(mat).tolist())


@dataclass(frozen=True)
class LmiProblem:
    """Problem data for a variance-certificate LMI."""

    algo: Algo
    m: float
    L: float
    alpha: float
    beta: float = 0.0
    n: int = 1

    def __post_init__(self):
        if self.algo not in (Algo.GD, Algo.NA):
            raise ValueError("LMI certificates cover GD and NA")
        if not (0.0 < self.m <= self.L):
            raise ValueError("need 0 < m <= L")
        if not (0.0 < self.alpha < math.inf and 0.0 <= self.beta < 1.0):
            raise ValueError("need finite alpha > 0 and beta in [0, 1)")
        if self.n < 1:
            raise ValueError("need n >= 1")

    @property
    def kappa(self) -> float:
        return self.L / self.m


@dataclass
class LmiCertificate:
    """Candidate (X, lambda1, lambda2) with its bound and residuals.

    ``bound`` is the certified J bound for sigma = 1 and the problem's n;
    scale by sigma^2 for other noise levels.  ``residual_max_eig`` is the
    largest eigenvalue of the assembled LMI (must be <= psd_tol) and
    ``x_min_eig`` the smallest eigenvalue of X (must be >= -psd_tol).
    """

    x1: float
    x0: float
    x2: float
    lambda1: float
    lambda2: float
    bound: float = math.nan
    residual_max_eig: float = math.nan
    x_min_eig: float = math.nan
    psd_tol: float = math.nan
    valid: bool = False

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _lmi_entries(p: LmiProblem, cert: LmiCertificate) -> tuple[float, ...]:
    """Upper triangle, row by row, of the reduced LMI left-hand side.

    Around x* the method is xi+ = A xi + Bu u with u = Delta(Cy xi),
    Delta(y) = grad f(y) - m y, and output Cz xi.  The LMI is

        [[A^T X A - X + Cz^T Cz, A^T X Bu], [Bu^T X A, Bu^T X Bu]]
            + lambda1 S^T [[0, L - m], [L - m, -2]] S + lambda2 N,

    where S selects (Cy xi, u) and N is the off-by-one multiplier of NA.
    GD: A = q = 1 - alpha m, Bu = -alpha, Cz = Cy = 1, X = x1 (2x2 LMI).
    NA: A = [[0, 1], [c, d]] with c = -beta q, d = (1 + beta) q,
    Bu = (0, -alpha), Cz = (1, 0), Cy = (-beta, 1 + beta) and
    X = [[x1, x0], [x0, x2]] (3x3 LMI).  Each entry is affine in
    (x1, x0, x2, lambda1, lambda2).
    """
    m, L, alpha, beta = p.m, p.L, p.alpha, p.beta
    x1, x0, x2 = cert.x1, cert.x0, cert.x2
    lam1, lam2 = cert.lambda1, cert.lambda2
    span = L - m
    q = 1.0 - alpha * m
    if p.algo == Algo.GD:
        return (q * q * x1 - x1 + 1.0,
                lam1 * span - alpha * q * x1,
                alpha * alpha * x1 - 2.0 * lam1)
    c, d = -beta * q, (1.0 + beta) * q
    # N = n1^T [[L, 1], [1, 0]] n1 + n2^T [[-m, 1], [1, 0]] n2, where n1 has
    # rows r, t and n2 has rows u, t.
    r = (alpha * m * beta, -alpha * m * (1.0 + beta), -alpha)
    t = (-m * beta, m * (1.0 + beta), 1.0)
    u = (-beta, beta, 0.0)

    def mult(i: int, j: int) -> float:
        return (L * r[i] * r[j] - m * u[i] * u[j]
                + (r[i] + u[i]) * t[j] + t[i] * (r[j] + u[j]))

    return (c * c * x2 - x1 + 1.0 + lam2 * mult(0, 0),
            (c - 1.0) * x0 + c * d * x2 + lam2 * mult(0, 1),
            -alpha * c * x2 - lam1 * span * beta + lam2 * mult(0, 2),
            x1 + 2.0 * d * x0 + (d * d - 1.0) * x2 + lam2 * mult(1, 1),
            -alpha * (x0 + d * x2) + lam1 * span * (1.0 + beta)
            + lam2 * mult(1, 2),
            alpha * alpha * x2 - 2.0 * lam1 + lam2 * mult(2, 2))


def assemble_lmi(p: LmiProblem, cert: LmiCertificate) -> np.ndarray:
    """The reduced 2x2 (GD) or 3x3 (NA) LMI left-hand side of a candidate.

    The n-dimensional LMI is its Kronecker product with the n x n identity.
    """
    return _sym_matrix(_lmi_entries(p, cert))


def certified_bound(p: LmiProblem, cert: LmiCertificate) -> float:
    """J bound implied by the candidate for sigma = 1: n (L lam2 + x2-trace)."""
    # Bw^T X Bw is x1 for GD and picks the (2,2) entry x2 of X for NA.
    trace_term = cert.x1 if p.algo == Algo.GD else cert.x2
    return p.n * (p.L * cert.lambda2 + trace_term)


def evaluate_certificate(p: LmiProblem, cert: LmiCertificate) -> LmiCertificate:
    """Fill in bound, residuals and validity of a candidate certificate.

    It is judged on the reduced entries: the n-dimensional LMI repeats each
    of their eigenvalues n times and has the same largest entry.
    """
    upper = _lmi_entries(p, cert)
    tol = PSD_TOL_SCALE * max(1.0, max(map(abs, upper)))
    res = _sym_eigenvalues(upper)[-1]
    if p.algo == Algo.GD:
        xmin = cert.x1
    else:
        xmin = _sym_eigenvalues((cert.x1, cert.x0, cert.x2))[0]
    cert.bound = certified_bound(p, cert)
    cert.residual_max_eig = res
    cert.x_min_eig = xmin
    cert.psd_tol = tol
    cert.valid = (res <= tol and xmin >= -tol
                  and cert.lambda1 >= -tol and cert.lambda2 >= -tol)
    return cert


def gd_certificate(m: float, L: float, n: int = 1) -> tuple[LmiProblem, LmiCertificate]:
    """Closed-form certificate for gradient descent at alpha = 1/L.

    X = kappa^2/(2 kappa - 1) I and lambda1 = (1 - alpha m) /
    (m (2 - alpha m)(L - m)) = 1 / (m (2 L - m)) make the LMI residual
    exactly diag(0, -1/(m^2 (2 kappa - 1))), certifying
    J <= n kappa^2/(2 kappa - 1).  The simplified form holds at L = m too.
    """
    if not (0.0 < m <= L):
        raise ValueError("need 0 < m <= L")
    alpha = 1.0 / L
    kappa = L / m
    x1 = kappa * kappa / (2.0 * kappa - 1.0)
    if not math.isfinite(x1):
        raise KappaTooLarge(f"the GD certificate overflows at kappa={kappa!r}")
    lam1 = 1.0 / (m * (2.0 * L - m))
    p = LmiProblem(algo=Algo.GD, m=m, L=L, alpha=alpha, beta=0.0, n=n)
    cert = LmiCertificate(x1=x1, x0=0.0, x2=0.0, lambda1=lam1, lambda2=0.0)
    return p, evaluate_certificate(p, cert)


def _na_poly(kappa: float) -> dict[str, float]:
    """Polynomial ingredients (in sqrt(kappa)) of the NA certificate."""
    r = math.sqrt(kappa)
    s = 8.0 * kappa ** 2 - 6.0 * kappa ** 1.5 - 2.0 * kappa + 3.0 * r - 1.0
    x1 = (2.0 * kappa ** 3.5 - 8.0 * kappa ** 3 + 11.0 * kappa ** 2.5
          + 5.0 * kappa ** 2 - 14.0 * kappa ** 1.5 + 8.0 * kappa - 2.0 * r) / s
    x0_num = -2.0 * kappa ** 1.5 * (r - 1.0) ** 3 * (r + 1.0)
    x0 = x0_num / s
    x2 = kappa ** 1.5 * (2.0 * kappa ** 2 - 3.0 * kappa + 5.0 * r - 2.0) / s
    return {"s": s, "x1": x1, "x0": x0, "x0_num": x0_num, "x2": x2}


def na_certificate(kappa: float, L: float, n: int = 1) -> tuple[LmiProblem, LmiCertificate]:
    """Closed-form certificate for Nesterov's method at the standard tuning.

    Uses alpha = 1/L and beta = (sqrt(k)-1)/(sqrt(k)+1).  The certified
    bound is n (4k^3.5 - 4k^3 - 3k^2.5 + 9k^2 - 4k^1.5) / s(k) with
    s(k) = 8k^2 - 6k^1.5 - 2k + 3 sqrt(k) - 1; it stays within a factor
    4.08 of the best structured-X bound for all kappa.
    """
    if not kappa >= 1.0:  # NaN too
        raise ValueError("kappa must be >= 1")
    if not L > 0.0:
        raise ValueError("L must be positive")
    r = math.sqrt(kappa)
    alpha = 1.0 / L
    beta = (r - 1.0) / (r + 1.0)
    if beta == 1.0:
        raise KappaTooLarge(f"the NA momentum rounds to 1 at kappa={kappa!r}")
    m = L / kappa
    poly = _na_poly(kappa)
    lam1 = (kappa / L) ** 2 / (2.0 * kappa - 1.0)
    lam2 = -poly["x0_num"] / (L * poly["s"])
    p = LmiProblem(algo=Algo.NA, m=m, L=L, alpha=alpha, beta=beta, n=n)
    cert = LmiCertificate(x1=poly["x1"], x0=poly["x0"], x2=poly["x2"],
                          lambda1=lam1, lambda2=lam2)
    return p, evaluate_certificate(p, cert)


@kappa_closed_form
def q_bounds(algo: Algo, kappa: float, n: int) -> float:
    """Reference bound q(kappa) the closed-form certificates are compared to.

    GD: n kappa^2 / (2 kappa - 1); NA: n kappa^2 (2 kappa - 2 sqrt(kappa)
    + 1) / (2 sqrt(kappa) - 1)^3.
    """
    if not kappa >= 1.0:  # NaN too
        raise ValueError("kappa must be >= 1")
    if algo == Algo.GD:
        return n * kappa * kappa / (2.0 * kappa - 1.0)
    if algo == Algo.NA:
        r = math.sqrt(kappa)
        return (n * kappa * kappa * (2.0 * kappa - 2.0 * r + 1.0)
                / (2.0 * r - 1.0) ** 3)
    raise ValueError("reference bounds cover GD and NA")


def refine_bound(p: LmiProblem, cert: LmiCertificate,
                 budget: int = 2000) -> LmiCertificate:
    """Derivative-free coordinate descent on (x1, x0, x2, lambda1, lambda2).

    Starting from a valid certificate, tries +/- steps in each coordinate,
    keeping only moves that stay valid and lower the certified bound.  Step
    sizes halve after a full pass without improvement.  ``budget`` caps the
    number of LMI evaluations; the returned certificate is always valid and
    never worse than the input.
    """
    base = evaluate_certificate(p, replace(cert))
    if not base.valid:
        raise ValueError("refine_bound needs a valid starting certificate")
    names = ["x1", "lambda1"] if p.algo == Algo.GD else \
        ["x1", "x0", "x2", "lambda1", "lambda2"]
    steps = {k: 0.1 * max(abs(getattr(base, k)), 1.0) for k in names}
    best = base
    evals = 0
    while evals < budget and max(steps.values()) > 1e-14:
        improved = False
        for name in names:
            for sgn in (1.0, -1.0):
                if evals >= budget:
                    break
                trial = replace(best)
                setattr(trial, name, getattr(best, name) + sgn * steps[name])
                trial = evaluate_certificate(p, trial)
                evals += 1
                if trial.valid and trial.bound < best.bound:
                    best = trial
                    improved = True
                    break
        if not improved:
            for name in names:
                steps[name] *= 0.5
    return best
