"""Mismatched successive refinement with Gaussian codebooks.

A Monte Carlo simulator for the two-layer random-coding scheme (spherical
and i.i.d. Gaussian codebooks, successive minimum Euclidean distance
encoding) together with calculators for its refined asymptotics:
second-order code sizing, moderate-deviations constants, and
large-deviations exponents.
"""

from .asymptotics import (
    ExponentResult,
    ModerateQuery,
    RateQuery,
    RegionResult,
    SecondOrderPlan,
    exponent_columns,
    exponent_point,
    jep_exponent,
    jep_exponent_lambda1,
    lambda_for_rates,
    moderate_constants,
    region_contains,
    second_order_plan,
    sep_exponents,
    sep_second_order,
)
from .codec import SchemeConfig, encode_layer, run_trial
from .core import (
    gaussian_rate_function_x2,
    iid_nonexcess_exponent,
    iid_nonexcess_exponent_tilted,
    invert_iid_exponent,
    invert_iid_exponents,
    log_gamma_ratio,
    log_iid_nonexcess_asymptotic,
    optimal_tilt,
    q_func,
    q_inv,
    rate_function_x2,
    spherical_cap_exponent,
    spherical_nonexcess_lower,
    spherical_nonexcess_upper,
)
from .errors import BudgetError, ConfigError, NumericError
from .montecarlo import (
    EstimationResult,
    estimate,
    estimate_nonexcess,
    ops_per_trial,
    trial_stream,
    wilson_interval,
)
from .sources import SourceSpec

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConfigError",
    "EstimationResult",
    "ExponentResult",
    "ModerateQuery",
    "NumericError",
    "RateQuery",
    "RegionResult",
    "SchemeConfig",
    "SecondOrderPlan",
    "SourceSpec",
    "encode_layer",
    "estimate",
    "estimate_nonexcess",
    "exponent_columns",
    "exponent_point",
    "gaussian_rate_function_x2",
    "iid_nonexcess_exponent",
    "iid_nonexcess_exponent_tilted",
    "invert_iid_exponent",
    "invert_iid_exponents",
    "jep_exponent",
    "jep_exponent_lambda1",
    "lambda_for_rates",
    "log_gamma_ratio",
    "log_iid_nonexcess_asymptotic",
    "moderate_constants",
    "ops_per_trial",
    "optimal_tilt",
    "q_func",
    "q_inv",
    "rate_function_x2",
    "region_contains",
    "run_trial",
    "second_order_plan",
    "sep_exponents",
    "sep_second_order",
    "spherical_cap_exponent",
    "spherical_nonexcess_lower",
    "spherical_nonexcess_upper",
    "trial_stream",
    "wilson_interval",
]
