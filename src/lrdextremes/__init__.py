"""Extreme-value sums of subordinated long-range dependent moving averages.

Simulation, exact scaling constants, order-statistic functionals, and a
Monte Carlo harness verifying the asymptotic normality of normalized
extreme sums at desk scale.
"""

from .config import ExperimentConfig, build_problem, parse_config
from .errors import (
    ClampWarning,
    ConfigError,
    DomainError,
    InfeasibleConfigError,
    LrdExtremesError,
    NumericError,
    StateError,
    TruncationWarning,
)
from .estats import (
    Decomposition,
    ProcessFrame,
    decompose_I,
    reduction_sup,
    top_k_sum,
    trimmed_sum,
    u_ratio,
    z_statistic,
)
from .mc import (
    McRunResult,
    ReplicateResult,
    convergence_study,
    ks_test,
    run_replicates,
    summarize,
)
from .model import (
    CoefficientModel,
    ExponentialTarget,
    GaussianMarginal,
    IdentityTarget,
    InnovationDist,
    LogParetoTarget,
    MarginalX,
    MdaCase,
    MdaTag,
    ParetoMarginal,
    ParetoTarget,
    SlowlyVaryingFn,
    SvConstant,
    SvLogPower,
    SvNumeric,
    TargetMarginalY,
    clamp_events,
    reset_clamp_events,
    subordinate,
    sv_eval,
)
from .scaling import (
    ScalingBundle,
    big_A,
    centering,
    check_condition_Dr,
    d_np,
    karamata_K,
    karamata_product,
    make_bundle,
    power_rank_integral,
    select_p,
    xi_threshold,
)
from .simulate import (
    PathPair,
    build_coefficient_model,
    derive_seed,
    dump_path_csv,
    gen_innovations,
    model_lags,
    moving_average,
    sigma_n1_exact,
    simulate_path,
    truncation_length,
)

__version__ = "0.1.0"
