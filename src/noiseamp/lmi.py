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
from dataclasses import asdict, astuple, dataclass, replace
from typing import Any

import numpy as np

from .dynamics import Algo, AlgoConfig
from .errors import CertificateOverflow, KappaTooLarge, kappa_closed_form

PSD_TOL_SCALE = 1e-8


def _sym_matrix(upper: tuple[float, ...]) -> np.ndarray:
    """Symmetric 2x2 or 3x3 matrix from its upper triangle, row by row."""
    if len(upper) == 3:
        a, b, c = upper
        return np.array(((a, b), (b, c)))
    a, b, c, d, e, f = upper
    return np.array(((a, b, c), (b, d, e), (c, e, f)))


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
    """Problem data for a variance-certificate LMI: GD or NA, alpha and
    beta by :class:`AlgoConfig`'s rules (GD takes beta = 0), 0 < m <= L
    and n >= 1."""

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
        AlgoConfig(self.algo, self.alpha, self.beta)
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


def _lmi_form(p: LmiProblem):
    """Upper triangle, row by row, of the reduced LMI left-hand side.

    It is returned as a function of (x1, x0, x2, lambda1, lambda2), in
    which each entry is affine.  Around x* the method is xi+ = A xi + Bu u
    with u = Delta(Cy xi), Delta(y) = grad f(y) - m y, and output Cz xi.
    The LMI is

        [[A^T X A - X + Cz^T Cz, A^T X Bu], [Bu^T X A, Bu^T X Bu]]
            + lambda1 S^T [[0, L - m], [L - m, -2]] S + lambda2 N,

    where S selects (Cy xi, u) and N is the off-by-one multiplier of NA.
    GD: A = q = 1 - alpha m, Bu = -alpha, Cz = Cy = 1, X = x1 (2x2 LMI).
    NA: A = [[0, 1], [c, d]] with c = -beta q, d = (1 + beta) q,
    Bu = (0, -alpha), Cz = (1, 0), Cy = (-beta, 1 + beta) and
    X = [[x1, x0], [x0, x2]] (3x3 LMI).
    """
    m, L, alpha, beta = p.m, p.L, p.alpha, p.beta
    span = L - m
    q = 1.0 - alpha * m
    aa = alpha * alpha
    if p.algo == Algo.GD:
        qq, aq = q * q, alpha * q
        return lambda x1, x0, x2, lam1, lam2: (
            qq * x1 - x1 + 1.0, lam1 * span - aq * x1, aa * x1 - 2.0 * lam1)
    c, d = -beta * q, (1.0 + beta) * q
    # N = n1^T [[L, 1], [1, 0]] n1 + n2^T [[-m, 1], [1, 0]] n2, where n1 has
    # rows r, t and n2 has rows u, t.
    r = (alpha * m * beta, -alpha * m * (1.0 + beta), -alpha)
    t = (-m * beta, m * (1.0 + beta), 1.0)
    u = (-beta, beta, 0.0)

    def mult(i: int, j: int) -> float:
        return (L * r[i] * r[j] - m * u[i] * u[j]
                + (r[i] + u[i]) * t[j] + t[i] * (r[j] + u[j]))

    m00, m01, m02, m11, m12, m22 = (mult(i, j) for i, j in (
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    # Factors of the problem alone, formed once.  Each is a left-to-right
    # prefix of its product, so every entry rounds as if written out.
    cc, cd, ac, c1 = c * c, c * d, -alpha * c, c - 1.0
    d2, dd1, b1, na = 2.0 * d, d * d - 1.0, 1.0 + beta, -alpha
    return lambda x1, x0, x2, lam1, lam2: (
        cc * x2 - x1 + 1.0 + lam2 * m00,
        c1 * x0 + cd * x2 + lam2 * m01,
        ac * x2 - lam1 * span * beta + lam2 * m02,
        x1 + d2 * x0 + dd1 * x2 + lam2 * m11,
        na * (x0 + d * x2) + lam1 * span * b1 + lam2 * m12,
        aa * x2 - 2.0 * lam1 + lam2 * m22)


def _coords(cert: LmiCertificate) -> tuple[float, ...]:
    return cert.x1, cert.x0, cert.x2, cert.lambda1, cert.lambda2


def _lmi_entries(p: LmiProblem, cert: LmiCertificate) -> tuple[float, ...]:
    """Upper triangle, row by row, of the candidate's reduced LMI."""
    return _lmi_form(p)(*_coords(cert))


def assemble_lmi(p: LmiProblem, cert: LmiCertificate) -> np.ndarray:
    """The reduced 2x2 (GD) or 3x3 (NA) LMI left-hand side of a candidate.

    The n-dimensional LMI is its Kronecker product with the n x n identity.
    """
    return _sym_matrix(_lmi_entries(p, cert))


def certified_bound(p: LmiProblem, coords: tuple[float, ...]) -> float:
    """J bound implied by the candidate for sigma = 1: n (L lam2 + x2-trace)."""
    # Bw^T X Bw is x1 for GD and picks the (2,2) entry x2 of X for NA.
    trace_term = coords[0] if p.algo == Algo.GD else coords[2]
    return p.n * (p.L * coords[4] + trace_term)


def _judge(p: LmiProblem, coords: tuple[float, ...],
           upper: tuple[float, ...]) -> tuple[float, float, float, bool]:
    """The LMI's top eigenvalue, psd_tol, x_min_eig and validity."""
    x1, x0, x2, lam1, lam2 = coords
    res = _sym_eigenvalues(upper)[-1]
    tol = PSD_TOL_SCALE * max(1.0, max(map(abs, upper)))
    xmin = x1 if p.algo == Algo.GD else _sym_eigenvalues((x1, x0, x2))[0]
    return res, tol, xmin, (res <= tol and xmin >= -tol
                            and lam1 >= -tol and lam2 >= -tol)


def evaluate_certificate(p: LmiProblem, cert: LmiCertificate) -> LmiCertificate:
    """Fill in bound, residuals and validity of a candidate certificate.

    It is judged on the reduced entries: the n-dimensional LMI repeats each
    of their eigenvalues n times and has the same largest entry.
    """
    coords = _coords(cert)
    cert.bound = certified_bound(p, coords)
    (cert.residual_max_eig, cert.psd_tol, cert.x_min_eig,
     cert.valid) = _judge(p, coords, _lmi_form(p)(*coords))
    return cert


def _closed_form(algo: Algo, kappa: float, L: float, n: int, m: float,
                 alpha: float, beta: float,
                 coords: tuple[float, ...]) -> tuple[LmiProblem, LmiCertificate]:
    """The problem and the evaluated certificate at ``coords``.

    Raises :class:`CertificateOverflow` where m underflows to 0 or alpha
    or a field of the certificate is not finite.
    """
    if m > 0.0 and alpha < math.inf:
        p = LmiProblem(algo=algo, m=m, L=L, alpha=alpha, beta=beta, n=n)
        cert = evaluate_certificate(p, LmiCertificate(*coords))
        if all(map(math.isfinite, astuple(cert))):
            return p, cert
    raise CertificateOverflow(algo.value.upper(), kappa, L)


def gd_certificate(m: float, L: float, n: int = 1) -> tuple[LmiProblem, LmiCertificate]:
    """Closed-form certificate for gradient descent at alpha = 1/L.

    X = kappa^2/(2 kappa - 1) I and lambda1 = (1 - alpha m) /
    (m (2 - alpha m)(L - m)) = 1 / (m (2 L - m)) make the LMI residual
    exactly diag(0, -1/(m^2 (2 kappa - 1))), certifying
    J <= n kappa^2/(2 kappa - 1).  The simplified form holds at L = m too.
    An m of 0 (kappa = L / m is infinite: L / kappa underflowed) or a
    tiny L leaves double range.
    """
    if not (0.0 <= m <= L and L > 0.0):  # NaN too
        raise ValueError("need 0 < m <= L")
    alpha = 1.0 / L
    kappa = L / m if m else math.inf
    try:
        lam1 = 1.0 / (m * (2.0 * L - m))
    except ZeroDivisionError:  # m (2 L - m) underflows to 0
        raise CertificateOverflow("GD", kappa, L) from None
    x1 = kappa * kappa / (2.0 * kappa - 1.0)
    if not math.isfinite(x1):
        raise KappaTooLarge(f"the GD certificate overflows at kappa={kappa!r}")
    return _closed_form(Algo.GD, kappa, L, n, m, alpha, 0.0,
                        (x1, 0.0, 0.0, lam1, 0.0))


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
    try:
        lam1 = (kappa / L) ** 2 / (2.0 * kappa - 1.0)
    except OverflowError:  # kappa / L is huge
        lam1 = math.inf
    lam2 = -poly["x0_num"] / (L * poly["s"])
    return _closed_form(Algo.NA, kappa, L, n, m, alpha, beta,
                        (poly["x1"], poly["x0"], poly["x2"], lam1, lam2))


@kappa_closed_form
def q_bounds(algo: Algo, kappa: float, n: int) -> float:
    """Reference bound q(kappa) the closed-form certificates are compared to.

    GD: n kappa^2 / (2 kappa - 1); NA: n kappa^2 (2 kappa - 2 sqrt(kappa)
    + 1) / (2 sqrt(kappa) - 1)^3.
    """
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

    Starting from a valid certificate, each pass tries a + then a - step in
    each coordinate in turn and keeps the first trial that stays valid and
    lowers the certified bound.  A trial that does not lower the bound is
    not judged.  Step sizes halve after a pass that keeps none.  ``budget``
    caps the number of trials; the returned certificate is always valid and
    never worse than the input.
    """
    base = evaluate_certificate(p, replace(cert))
    if not base.valid:
        raise ValueError("refine_bound needs a valid starting certificate")
    form = _lmi_form(p)
    names = (0, 3) if p.algo == Algo.GD else (0, 1, 2, 3, 4)  # of _coords
    best, bound = list(_coords(base)), base.bound
    steps = {k: 0.1 * max(abs(best[k]), 1.0) for k in names}
    evals = 0
    while evals < budget and max(steps.values()) > 1e-14:
        improved = False
        for k in names:
            for sgn in (1.0, -1.0):
                if evals >= budget:
                    break
                evals += 1
                trial = best[:k] + [best[k] + sgn * steps[k]] + best[k + 1:]
                lower = certified_bound(p, trial)
                if lower < bound and _judge(p, trial, form(*trial))[-1]:
                    best, bound, improved = trial, lower, True
                    break
        if not improved:
            steps = {k: 0.5 * v for k, v in steps.items()}
    return evaluate_certificate(p, LmiCertificate(*best))
