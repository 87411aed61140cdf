"""Monte Carlo toolkit for branching processes in varying and random
environments: offspring laws, environment sequences, exact simulation,
convergence-condition checkers, and estimators verifying that the
normalized population is either zero or of the order of its mean."""

from .distributions import (
    NotApplicableError,
    OffspringDistribution,
    PhiFunction,
    PopulationOverflowError,
    UnsupportedDistributionError,
)
from .environment import (
    EnvironmentSpec,
    Mixer,
    PRESET_CONFIGS,
    PRESETS,
    QuenchedEnvironment,
    quench,
)
from .conditions import (
    ConditionReport,
    TightnessTable,
    fractional_variance_series,
    increment_variance_series,
    jagers_sum,
    moment_ratio_sup,
    psi_series,
    tightness_diagnostic,
    variance_series,
)
from .estimators import (
    ConditionedSummary,
    EqualityCheck,
    HalvingResult,
    McEstimate,
    PathSpreadSummary,
    collect_w,
    mc_conditioned_critical,
    mc_flt_discrepancy,
    mc_halving_bound,
    mc_increment_covariance,
    mc_l2_increment,
    mc_l2_span,
    mc_survival,
    mc_w_positivity,
)
from .streams import substream

__version__ = "0.1.0"
