"""Trimmed-mean robust estimation, regression heuristics, and benchmarks."""

from .estimators import (
    TrimSpec,
    exceedance_count,
    median_of_means,
    phi_uniform,
    trimmed_mean,
    truncate,
    uniform_trimmed_estimate,
)
from .synthdata import (
    Dataset,
    ErrorDist,
    RngSeed,
    contaminate_a,
    contaminate_b,
    gen_setup_a,
    gen_setup_b,
    make_sigma,
)
from .regression import (
    GdConfig,
    RegressorPair,
    aasd,
    active_set,
    best_mom,
    divisors,
    fit_least_squares,
    loss_l2,
    mom_regression,
    plug_in,
)
from .bounds import (
    MomentProfile,
    RegressionBoundInputs,
    UniformBoundInputs,
    c_epsilon,
    c_j_epsilon,
    c_j_epsilon_curve,
    chernoff_coupling_bound,
    coupling_hypotheses,
    critical_radii_linear,
    excess_risk_bound,
    phi_p_regression,
    phi_p_uniform,
    phi_regression,
)
from .harness import (
    ExperimentConfig,
    SummaryStats,
    TrialRecord,
    delta_percent,
    emit,
    run_cell,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
