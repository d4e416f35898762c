"""Spectral solvers and self-similar asymptotics for diffusion with memory.

The package follows one representation formula: in Fourier variables every
mode of u_t = a0*Lap(u) + a*Lap(u) (time convolution) evolves by a scalar
relaxation z(|xi|^2, t), the solution of z + lam * (A * z) = 1 with A the
integrated kernel.  Everything else -- Mittag-Leffler limit profiles,
self-similar rescalings, decay rates, and the viscoelastic Stokes limit --
is built on accurate evaluation of z and of the Mittag-Leffler function.
"""

from .errors import (
    ConfigError,
    DomainError,
    HypothesisViolation,
    MemdiffError,
    NotEventuallyPositiveError,
    PrecisionLossError,
    StepSizeError,
)
from .specfun import erfc, gamma, mittag_leffler
from .kernels import (
    Cosine,
    Exponential,
    Heat,
    LogModified,
    MemoryKernel,
    NegExponential,
    PositiveDefiniteReport,
    PowerLaw,
    RVEstimate,
    SampledKernel,
    Wave,
    check_positive_definite,
    dilate,
    fractional,
    laplace_a,
    primitive_A,
    require_positive_definite,
    rv_index_estimate,
    scale,
)
from .volterra import (
    ScalarRelaxation,
    TimeGrid,
    decay_envelope_check,
    kernel_convergence_test,
    relaxation_values,
    solve_relaxation,
)
from .spectral import (
    BoxFunction,
    Gaussian,
    InitialData,
    ModeGrid,
    SpectralField,
    evaluate_at,
    evolve,
    hs_norm,
    limit_profile,
    synthesize,
    unique_lambdas,
)
from .asymptotics import (
    ConvergenceReport,
    RateReport,
    ScalingFunction,
    converge_to_limit,
    leading_order_rate,
    relaxation_at_time,
    rescale_field,
    rescaled_values,
    scaling_equivalence_check,
)
from .visco import (
    VectorGaussian,
    VectorSpectralField,
    ViscoKernelPair,
    ViscoRateReport,
    evolve_visco,
    project_P,
    project_Q,
    stokes_fundamental,
    stokes_gradient_part_real,
    vector_hs_norm,
    visco_asymptotics,
)

__version__ = "0.1.0"
