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


class UnstableMode(NoiseAmpError):
    """A single modal recursion has spectral radius >= 1."""

    def __init__(self, lam: float, rho: float):
        self.lam = float(lam)
        self.rho = float(rho)
        super().__init__(
            f"modal recursion at eigenvalue {lam!r} has spectral radius "
            f"{rho!r} >= 1"
        )


class Unstable(NoiseAmpError):
    """The iteration diverges on the given spectrum; carries the worst mode."""

    def __init__(self, lam: float, rho: float):
        self.lam = float(lam)
        self.rho = float(rho)
        super().__init__(
            f"iteration is unstable: eigenvalue {lam!r} gives spectral "
            f"radius {rho!r} >= 1"
        )


class ShapeMismatch(NoiseAmpError):
    """Matrix/vector dimensions passed to a solver are inconsistent."""


class DimensionTooSmall(NoiseAmpError):
    """A bound requires a larger problem dimension than supplied."""


class NoGuarantee(NoiseAmpError):
    """No convergence guarantee exists for the requested method/parameters."""


class InfeasibleCap(NoiseAmpError):
    """No step-size/momentum pair satisfies the requested rate cap."""


class KappaTooLarge(NoiseAmpError):
    """A closed form in kappa leaves double precision at this kappa."""


def kappa_closed_form(fn):
    """Raise :class:`KappaTooLarge` where the closed form ``fn`` overflows.

    Overflow shows as an OverflowError (from ``**`` on floats) or as an
    infinite or NaN value in the result: a float, or a tuple or dict of them.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
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


class VarianceOverflow(NoiseAmpError):
    """J, J' or a mode's variance (sigma^2 times its unit-noise variance)
    leaves double range."""

    def __init__(self, what: str = "J"):
        super().__init__(f"{what} leaves double precision: a per-mode term "
                         f"or their sum overflows")


class SizeOverflow(NoiseAmpError):
    """Requested lattice exceeds the supported network size."""


class NonFinite(NoiseAmpError):
    """A simulated trajectory left the finite range (diverged)."""

    def __init__(self, step: int, message: str = ""):
        self.step = int(step)
        super().__init__(
            message or f"trajectory became non-finite/divergent at step {step}"
        )
