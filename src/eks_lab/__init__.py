"""Ensemble Kalman sampling for Bayesian inverse problems.

Interacting particle dynamics that sample Gaussian (and mildly nonlinear)
posteriors, the Gaussian mean-field reference they converge to, and the
measurement tooling used to check the convergence rates.
"""

__version__ = "0.1.0"

from .dynamics import (
    RunResult,
    SdeConfig,
    condition_check,
    eks_gradient_step,
    eks_step,
    mean_field_step,
    run,
    sample_gaussian,
)
from .ensemble import (
    Ensemble,
    EnsembleStats,
    affine_span_distance,
    centered_moment,
    empirical_stats,
    load_csv,
    save_csv,
)
from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    Diverged,
    EksError,
    NonFinite,
    NonPositive,
    NonlinearUnsupported,
    NotPSD,
    SingularImplicitSystem,
    SingularMatrix,
    SizeMismatch,
    TooLarge,
)
from .metrics import (
    SlopeFit,
    empirical_w2_exact,
    fit_slope,
    gaussian_w2,
    sliced_w2,
    w2_ensemble_vs_gaussian,
)
from .model import (
    GaussianMoments,
    InverseProblem,
    NonlinearPerturbation,
    apply_forward,
    apply_forward_batch,
    grad_phi_r,
    loss_phi_r,
    make_perpendicular_perturbation,
    posterior_moments,
    precision_matrix,
    quadrature_moments,
)
from .noise import NoiseSource, derive_seed
from .reference import (
    MomentFlow,
    advance_mean,
    covariance_closed_form,
    integrate_moments,
    rho_at,
    w2_decay_curve,
)
from .spd import general_solve, lambda_min, spd_invert, spd_solve, spd_sqrt
from .studies import (
    ConfigError,
    StudyConfig,
    StudyReport,
    default_problem,
    default_rho0,
    load_config,
    parse_config,
    run_study,
)
