"""Shrinkage estimation beyond the Gaussian: Stein kernels, multivariate
zero-bias couplings, approximate SURE, and a seeded Monte Carlo risk lab."""

__version__ = "0.1.0"

from ._mc import RiskReport
from .errors import (
    EvaluationError,
    GuardAbort,
    MomentUnavailableError,
    ParameterError,
)
from .estimation import (
    EstimatorSpec,
    Identity,
    JamesStein,
    SoftThreshold,
    james_stein,
    make_estimator,
    select_lambda,
    soft_threshold,
    sure,
    sure_kernel,
    sure_zero_bias_mean,
)
from .laws1d import Gaussian1D, Laplace1D, SmoothedRademacher1D, Uniform1D
from .noise_models import (
    AdditiveCorruption,
    BallUniform,
    Elliptical,
    FourPointDegenerate,
    GaussianIso,
    LinearTransform,
    MixingCorruption,
    Mixture,
    MomentSummary,
    NoiseModel,
    ProductIID,
    SphereUniform,
    StudentT,
    ValidityReport,
)
from .risk_lab import (
    BoundInputs,
    adaptivity_bound_kernel,
    adaptivity_bound_zero_bias,
    bound_b_star,
    bound_b_star_closed,
    bound_b_star_mixture_refined,
    bound_thm31,
    bound_thm33,
    inverse_moment_bound,
    jensen_lower,
    local_dependence_cov_bound,
    mc_e_inv2,
    mc_excess_risk,
    mc_inverse_moment,
    mc_risk,
    pinsker_limit,
    student_constants,
    sure_bias,
)
from .stein_kernels import (
    DiscrepancyStats,
    SteinKernel,
    average_kernel,
    discrepancy_stats,
    elliptical_kernel,
    gaussian_kernel,
    mixture_kernel,
    product_kernel,
    stein_identity_residual,
    student_kernel,
    transform_kernel,
)
from .testfns import TestFn, coordinate_quadratic, linear_map, shrink_direction
from .theta import parse_theta
from .zero_bias import (
    ZeroBiasCoupling,
    coordinate_sum_residual,
    couple_gaussian,
    couple_independent,
    couple_sphere,
    couple_student,
    coupling_for,
    zb_construct,
    zb_identity_residual,
    zb_linear,
    zb_mixture,
    zb_sum,
)
