"""Pessimistic bilevel programs via penalty continuation on the follower.

The follower's objective is augmented by a small multiple of the squared
leader objective, which selects the worst-case optimal response and makes
the upper objective single valued. Driving the penalty to zero approaches
the worst-case (three-level) limit problem; brute-force oracles and rate
diagnostics certify the convergence empirically on small polyhedral
instances.
"""

from .model import (BilevelProblem, BoxSet, CheckResult, DimensionGuardError,
                    EmptyFeasibleSetError, FieldSection, Polytope, ProblemError,
                    ScalarField, UnboundedFeasibleSetError, UnknownProblemError,
                    ValidationReport, field_from_expression, load_problem,
                    problem_from_dict, problem_to_dict, registry_get,
                    registry_names, resolve_problem, save_problem,
                    validate_problem)
from .lower_solver import (FwSolution, LpSolution, enumerate_vertices,
                           frank_wolfe_minimize, lp_minimize)
from .selection import (OPTIMISTIC, PESSIMISTIC, ConstancyReport,
                        SelectionResult, constancy_check, penalized_field,
                        select_response)
from .upper_solver import (PatternSearchResult, PenalizedSolution, UpperConfig,
                           pattern_search_maximize, solve_penalized)
from .continuation import (ContinuationTrace, EpsSchedule, LimitEstimate,
                           MonotoneReport, TraceRow, check_monotone,
                           limit_estimate, run_continuation)
from .oracle import (LowerSetDescription, OracleSolution, PessimisticResponse,
                     exact_lower_set, gap_table, pessimistic_select,
                     solve_three_level)
from .diagnostics import (Certificate, RateFit, SlopeEstimate,
                          build_certificate, fit_rate, strong_slope_lower_bound)

__version__ = "0.1.0"

__all__ = [
    "BilevelProblem", "BoxSet", "CheckResult", "DimensionGuardError",
    "EmptyFeasibleSetError", "FieldSection", "Polytope", "ProblemError",
    "ScalarField", "UnboundedFeasibleSetError", "UnknownProblemError",
    "ValidationReport", "field_from_expression", "load_problem",
    "problem_from_dict", "problem_to_dict", "registry_get", "registry_names",
    "resolve_problem", "save_problem", "validate_problem",
    "FwSolution", "LpSolution", "enumerate_vertices", "frank_wolfe_minimize",
    "lp_minimize",
    "OPTIMISTIC", "PESSIMISTIC", "ConstancyReport", "SelectionResult",
    "constancy_check", "penalized_field", "select_response",
    "PatternSearchResult", "PenalizedSolution", "UpperConfig",
    "pattern_search_maximize", "solve_penalized",
    "ContinuationTrace", "EpsSchedule", "LimitEstimate", "MonotoneReport",
    "TraceRow", "check_monotone", "limit_estimate", "run_continuation",
    "LowerSetDescription", "OracleSolution", "PessimisticResponse",
    "exact_lower_set", "gap_table", "pessimistic_select", "solve_three_level",
    "Certificate", "RateFit", "SlopeEstimate", "build_certificate", "fit_rate",
    "strong_slope_lower_bound",
]
