"""Recursive uncertainty on a Gaussian scale parameter.

Layering two-state errors on a standard deviation N times produces an
equal-weight mixture of 2^N Gaussians. This package builds those mixtures,
evaluates their densities, tail probabilities and exact moments under
constant, geometrically decaying, and additive error-rate regimes, and
cross-checks everything with a seeded Monte Carlo oracle.
"""

from .branching import (
    EnumerationLimitError,
    ErrorSchedule,
    GaussianBase,
    MixtureDistribution,
    Mode,
    NonPositiveScaleError,
    ScheduleParseError,
    build_mixture,
    group_mixture,
    parse_schedule_spec,
)
from .closedform import schedule_moments, variance_growth_factor
from .mixstats import (
    LogLogSeries,
    convexity_ratio,
    density,
    exceedance,
    local_slopes,
    log_exceedance,
    loglog_series,
    mixture_abs_first_moment,
    mixture_raw_moments,
    tail_slope_estimate,
)
from .montecarlo import (
    MCSummary,
    MomentsReport,
    SampleSpec,
    TargetCheck,
    TargetEstimate,
    check_report,
    estimate,
    sample,
)
from .special import (
    INFINITY,
    UnsupportedOrderError,
    erfc,
    gaussian_abs_first_moment,
    log_erfc,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationLimitError",
    "ErrorSchedule",
    "GaussianBase",
    "INFINITY",
    "LogLogSeries",
    "MCSummary",
    "MixtureDistribution",
    "Mode",
    "MomentsReport",
    "NonPositiveScaleError",
    "SampleSpec",
    "ScheduleParseError",
    "TargetCheck",
    "TargetEstimate",
    "UnsupportedOrderError",
    "build_mixture",
    "check_report",
    "convexity_ratio",
    "density",
    "erfc",
    "estimate",
    "exceedance",
    "gaussian_abs_first_moment",
    "group_mixture",
    "local_slopes",
    "log_erfc",
    "log_exceedance",
    "loglog_series",
    "mixture_abs_first_moment",
    "mixture_raw_moments",
    "parse_schedule_spec",
    "sample",
    "schedule_moments",
    "tail_slope_estimate",
    "variance_growth_factor",
]
