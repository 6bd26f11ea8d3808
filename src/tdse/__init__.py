"""Log-polynomial coefficient-flow solver for the 1-D time-dependent
Schrodinger equation, with a split-step Fourier grid oracle for
validation."""

from .initialization import (
    DegenerateSystem,
    FitResult,
    GaussianPacket,
    SampleTooSmall,
    fit_log_polynomial,
    gaussian_coefficients,
    is_closed_system,
    support_bound_after_step,
)
from .integrators import (
    StepperConfig,
    Trajectory,
    propagate,
)
from .oracle import (
    ComparisonReport,
    EdgeLeakage,
    GridMismatch,
    OracleConfig,
    compare_methods,
    l2_distance,
    oracle_error_estimate,
    split_step_evolve,
    state_on_oracle_grid,
)
from .potential import (
    EvaluationError,
    NonIntegerPowerError,
    PotentialError,
    PotentialModel,
    PotentialSyntaxError,
    XInDenominatorError,
    XInsideFunctionError,
    eval_taylor_coefficients,
    parse_potential,
)
from .reconstruction import (
    ExponentOverflow,
    Observables,
    WaveGrid,
    ZeroNorm,
    evaluate_at,
    evaluate_on_grid,
    norm_squared,
    observables,
)
from .state import (
    CoefficientState,
    PhysicalParams,
    coefficient_velocity,
    velocity_kernel,
)

__version__ = "0.1.0"
