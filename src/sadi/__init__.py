"""Stochastic approximation with discontinuous dynamics and set-valued
limits: exact convex-set machinery, nonsmooth Lyapunov certification, the
recursion engine with projections, inclusion integrators, and rate
diagnostics built on the limiting stochastic differential inclusion.
"""

__version__ = "0.1.0"

from .sets import (  # noqa: F401
    Ball,
    Box,
    ConvexSet,
    CustomSelector,
    ExtremeVertex,
    LeastNorm,
    Midpoint,
    MinkowskiSum,
    PiecewiseField,
    Polytope,
    Scaled,
    SetValuedMap,
    Singleton,
    UniformVertex,
    contains,
    hausdorff,
    krasovskii,
    least_norm_point,
    minkowski_sum,
    scale,
    select,
    support,
)
from .nonsmooth import (  # noqa: F401
    NEG_INFINITY,
    Interval,
    KinkSurface,
    PiecewiseSmoothScalar,
    SmoothPiece,
    StabilityCertificate,
    certify_stability,
    clarke_gradient,
    set_valued_derivative,
    smooth_scalar,
    u_generalized_derivative,
    u_reduced,
)
from .engine import (  # noqa: F401
    BallRegion,
    BoxRegion,
    ConstantBias,
    Drift,
    GaussianNoise,
    NoNoise,
    NoProjection,
    RunSpec,
    ShrinkingGaussianBias,
    StepSchedule,
    Trajectory,
    UniformNoise,
    ZeroBias,
    project,
    run,
    run_ensemble,
)
from .inclusions import (  # noqa: F401
    InclusionPath,
    epsilon_chain_diagnostic,
    integrate,
)
from .rates import (  # noqa: F401
    NormalizedSeries,
    SDIModel,
    compare_to_sdi,
    ks_distance,
    outer_t_check,
    simulate_sdi,
    tightness_diagnostic,
)
from .presets import (  # noqa: F401
    Preset,
    RegressionLaw,
    SignFilterLaw,
    lasso_preset,
    nonconvergence_preset,
    pegasos_preset,
    preset_by_name,
    rootfind_preset,
    sign_error_filter_preset,
)
from .config import ConfigError, ExperimentConfig, parse_config  # noqa: F401
from .runner import AggregateReport, run_experiment, sweep  # noqa: F401
