"""Noise amplification of noisy first-order optimization methods.

Exact steady-state variance of gradient descent, heavy ball and Nesterov's
method on strongly convex quadratics, LMI-certified bounds for general
strongly convex problems, rate/variance tuning trade-offs, distributed
averaging over torus networks, and seeded Monte Carlo validation.
"""

from .dynamics import (Algo, AlgoConfig, ModalSystem, SigmaMode,
                       convergence_rate, modal_spectral_radius, modal_system,
                       nesterov_stable, propagate_covariance,
                       solve_modal_lyapunov)
from .errors import (DimensionTooSmall, EmptySpectrum, InfeasibleCap,
                     KappaTooSmall, NoGuarantee, NoiseAmpError, NonFinite,
                     NonPositiveEigenvalue, NotContractive, ShapeMismatch,
                     SizeOverflow, Unstable, UnstableMode)
from .spectrum import Spectrum, is_symmetric, make_spectrum
from .variance import (VarianceReport, extreme_modal_values, hb_gd_ratio,
                       modal_variance, na_gd_ratio_bounds,
                       variance_amplification, variance_bounds,
                       variance_via_eigenvalues, variance_via_lyapunov)
from .lmi import (LmiCertificate, LmiProblem, assemble_lmi,
                  contraction_bound_gd, evaluate_certificate, gd_certificate,
                  na_certificate, q_bounds, refine_bound)
from .tuning import (TunedParams, TuningResult, acceleration_floor,
                     conventional_params, hb_tradeoff_margin,
                     na_jhat_m_lower_bound, optimal_quadratic_params,
                     rate_optimal_stepsize_hb, tune_constrained)
from .consensus import (ConsensusRecord, Regime, SweepResult, TorusSpec,
                        consensus_variance, nonzero_torus_eigenvalues,
                        reciprocal_sum, scaling_sweep, torus_eigenvalues)
from .montecarlo import (PseudoHuber, Quadratic, SimResult, ensemble_variance,
                         simulate, standard_normals)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
