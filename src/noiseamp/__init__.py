"""Noise amplification of noisy first-order optimization methods.

Exact steady-state variance of gradient descent, heavy ball and Nesterov's
method on strongly convex quadratics, LMI-certified bounds for general
strongly convex problems, rate/variance tuning trade-offs, distributed
averaging over torus networks, and seeded Monte Carlo validation.
"""

from types import ModuleType as _Module

from .dynamics import (Algo, AlgoConfig, SigmaMode, check_stable,
                       modal_spectral_radius, propagate_covariance)
from .errors import (DimensionTooSmall, EmptySpectrum, InfeasibleCap,
                     KappaTooLarge, NoGuarantee, NoiseAmpError, NonFinite,
                     NonPositiveEigenvalue, SizeOverflow, Unstable)
from .spectrum import Spectrum, make_spectrum
from .variance import (Records, VarianceReport, extreme_modal_values,
                       hb_gd_ratio, na_gd_ratio_bounds,
                       variance_amplification, variance_bounds,
                       variance_via_eigenvalues, variance_via_lyapunov)
from .lmi import (LmiCertificate, LmiProblem, assemble_lmi,
                  evaluate_certificate, gd_certificate, na_certificate,
                  q_bounds, refine_bound)
from .tuning import (TunedParams, TuningResult, conventional_params,
                     optimal_quadratic_params, tune_constrained)
from .consensus import (ConsensusRecord, Regime, SweepResult, TorusSpec,
                        consensus_record, consensus_variance, scaling_sweep,
                        torus_eigenvalues, torus_spectrum)
from .montecarlo import (PseudoHuber, Quadratic, SimResult, ensemble_variance,
                         simulate, standard_normals)

# The re-exported names, not the submodules their imports bind here.
__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _Module))]
__version__ = "0.1.0"
