"""Exception hierarchy shared across the package.

``NoiseAmpError`` is the base for every domain-level failure (unstable
iterations, infeasible tuning caps, oversized lattices, ...).  The CLI maps
these to exit code 3; plain ``ValueError`` / ``TypeError`` remain usage
errors (exit code 2).
"""

import functools
import math


class NoiseAmpError(Exception):
    """Base class for domain errors raised by this package."""


class EmptySpectrum(NoiseAmpError):
    """A spectrum must contain at least one eigenvalue."""


class NonPositiveEigenvalue(NoiseAmpError):
    """Eigenvalues of a strongly convex quadratic must be positive."""


class Unstable(NoiseAmpError):
    """The iteration diverges on the given spectrum (or its rate reaches
    ``threshold``); carries the worst mode."""

    def __init__(self, lam: float, rho: float, threshold: float = 1.0):
        self.lam = float(lam)
        self.rho = float(rho)
        bound = f"{threshold!r}, the instability threshold" if rho < 1 else 1
        super().__init__(
            f"iteration is unstable: eigenvalue {lam!r} gives spectral "
            f"radius {rho!r} >= {bound}"
        )


class DimensionTooSmall(NoiseAmpError):
    """A bound requires a larger problem dimension than supplied."""


class NoGuarantee(NoiseAmpError):
    """No convergence guarantee exists for the requested method/parameters."""


class InfeasibleCap(NoiseAmpError):
    """No step-size/momentum pair satisfies the requested rate cap."""


class KappaTooLarge(NoiseAmpError):
    """A closed form in kappa leaves double precision at this kappa."""


def kappa_closed_form(fn):
    """Refuse a ``kappa`` below 1 or NaN (by position or by keyword) with a
    ValueError, and raise :class:`KappaTooLarge` where ``fn`` overflows.

    Overflow shows as an OverflowError (from ``**`` on floats) or as an
    infinite or NaN value in the result: a float, or a tuple or dict of them.
    """
    at = fn.__code__.co_varnames.index("kappa")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        kappa = args[at] if len(args) > at else kwargs.get("kappa", 1.0)
        if not kappa >= 1.0:  # NaN too; a missing kappa is fn's TypeError
            raise ValueError("kappa must be >= 1")
        try:
            out = fn(*args, **kwargs)
        except OverflowError:
            out = math.inf
        values = (out.values() if isinstance(out, dict)
                  else out if isinstance(out, tuple) else (out,))
        if not all(map(math.isfinite, values)):
            raise KappaTooLarge(f"{fn.__name__} overflows at this kappa")
        return out

    return wrapper


class CertificateOverflow(NoiseAmpError):
    """A closed-form certificate leaves double range at this kappa and L."""

    def __init__(self, name: str, kappa: float, L: float):
        super().__init__(f"the {name} certificate leaves double range at "
                         f"kappa={kappa!r}, L={L!r}")


class VarianceOverflow(NoiseAmpError):
    """J or J' leaves double range."""

    def __init__(self, what: str = "J"):
        super().__init__(f"{what} leaves double precision: a per-mode term "
                         f"or their sum overflows")


class SizeOverflow(NoiseAmpError):
    """Requested lattice exceeds the supported network size."""


class NonFinite(NoiseAmpError):
    """A simulated trajectory left the finite range (diverged)."""

    def __init__(self, step: int):
        self.step = int(step)
        super().__init__(
            f"trajectory became non-finite/divergent at step {step}")
