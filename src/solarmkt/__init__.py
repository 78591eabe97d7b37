"""Solar market equilibria and the investment capacities they induce."""

from .asymptotics import (DerivativeSingularError, ExpansionCoefficients,
                          FlatnessReport, OrderingReport, OrderingRow,
                          expansion_coefficients, flatness_fit,
                          ordering_report)
from .distributions import (GenerationDistribution, PeriodProfile,
                            PremiumDistribution, lambda_ratio)
from .equilibrium import (AllocationRule, EquilibriumResult, check_viability,
                          optimal_allocation, solve_all, solve_ne, welfare,
                          zero_profit_residual)
from .markets import (CbClearing, CeVerification, ClearingOutcome, Scenario,
                      aggregate_demand_cb, buyer_payoff_cb, cb_unit_value,
                      clear_cb, clear_rt, individual_demand_cb, revenue_rt,
                      unit_revenue_rt, verify_ce)
from .numerics import ConvergenceError, NoEquilibriumError
from .pipeline import (ScenarioConfigError, fit_generation_kde,
                       fit_truncated_exponential, load_irradiation_csv,
                       load_premium_survey, load_scenario,
                       prepare_generation_samples)

__version__ = "0.1.0"

__all__ = [
    "GenerationDistribution", "PremiumDistribution", "PeriodProfile",
    "Scenario", "ClearingOutcome", "CbClearing", "CeVerification",
    "clear_rt", "unit_revenue_rt", "revenue_rt", "cb_unit_value",
    "individual_demand_cb", "aggregate_demand_cb", "clear_cb",
    "buyer_payoff_cb", "verify_ce",
    "EquilibriumResult", "AllocationRule", "solve_ne", "solve_all",
    "optimal_allocation", "welfare", "check_viability", "zero_profit_residual",
    "ExpansionCoefficients", "FlatnessReport", "OrderingRow", "OrderingReport",
    "lambda_ratio", "flatness_fit", "expansion_coefficients",
    "ordering_report",
    "DerivativeSingularError", "ConvergenceError", "NoEquilibriumError",
    "ScenarioConfigError", "load_irradiation_csv",
    "prepare_generation_samples", "fit_generation_kde", "load_premium_survey",
    "fit_truncated_exponential", "load_scenario",
]
