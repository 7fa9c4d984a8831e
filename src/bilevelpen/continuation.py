"""Penalty continuation: drive epsilon to zero and record the path.

Each row of a trace solves the penalized problem at one epsilon: the
first row by the multistart search, every later row by one compass
climb from the previous row's leader point. For the pessimistic
sign the leader values along the path are nondecreasing as epsilon
shrinks and converge to the worst-case limit value from below; the
optimistic sign mirrors this from above. check_monotone verifies the
appropriate direction up to solver slack, and limit_estimate
extrapolates the limit value from the tail of the trace. A trace's
reports (trace_to_json, trace_to_csv) are built in bilevelpen.cli.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import BilevelProblem, require_finite, require_int
from .upper_solver import UpperConfig, solve_penalized


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric penalty schedule eps0 * rho^k for k = 0 .. k_max - 1;
    ValueError unless k_max is an integer >= 1 (not a bool)."""

    eps0: float = 0.1
    rho: float = 0.5
    k_max: int = 12

    def __post_init__(self):
        require_finite("eps0", self.eps0, positive=True)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1) so the schedule decreases")
        require_int("k_max", self.k_max, 1)
        eps = self.epsilons()
        if eps[-1] <= 0.0 or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("schedule epsilons must be positive and strictly decreasing")

    def epsilons(self):
        return [self.eps0 * self.rho ** k for k in range(self.k_max)]


@dataclass(frozen=True)
class TraceRow:
    epsilon: float
    y: np.ndarray
    x: np.ndarray
    v: float
    h_value: float
    fw_gap: float
    evals: int
    converged: bool = True
    nonfinite_y: Optional[np.ndarray] = None  # see PenalizedSolution


@dataclass
class ContinuationTrace:
    problem: str
    sign: int
    rows: Sequence[TraceRow]
    seed: int = 0

    def __post_init__(self):
        eps = [r.epsilon for r in self.rows]
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("trace epsilons must be strictly decreasing")

    def __len__(self):
        return len(self.rows)

    @property
    def values(self):
        return np.array([r.v for r in self.rows])


@dataclass(frozen=True)
class MonotoneReport:
    ok: bool
    violations: tuple  # indices k whose pair (k-1, k) breaks the direction


@dataclass(frozen=True)
class LimitEstimate:
    y_limit: np.ndarray
    x_limit: np.ndarray
    v_limit: float


def run_continuation(problem: BilevelProblem, schedule: EpsSchedule = EpsSchedule(),
                     sign: int = +1, cfg: UpperConfig = UpperConfig()) -> ContinuationTrace:
    """Solve the penalized problem along the schedule, warm from row 2 on.

    sign picks the selection at every row. The first row runs the
    multistart search of solve_penalized, the only use of cfg.seed. Every
    later row runs one compass climb from the previous row's leader
    point y; cfg.max_evals bounds each row. The climb is
    enough because the values move monotonically at a fixed y: for
    eps' < eps, optimality of x_eps' at eps' and of x_eps at eps gives
    h(x_eps') + eps' f(x_eps')^2 <= h(x_eps) + eps' f(x_eps)^2 and
    h(x_eps) + eps f(x_eps)^2 <= h(x_eps') + eps f(x_eps')^2; adding them,
    (eps - eps') (f(x_eps)^2 - f(x_eps')^2) <= 0, and since f > 0,
    v_eps'(y) >= v_eps(y). So a pessimistic row starts at or above the
    previous row's value and only climbs; a drop can come only from a
    selection error, and check_monotone reports it rather than the trace
    re-running the row. For the optimistic sign the same sum gives
    v_eps'(y) <= v_eps(y) at every y, so no row rises above the maximum
    the previous row found, if that maximum was global.

    Only the leader point is carried over; the follower response is
    re-solved from scratch at every point so a wrong branch of the argmin
    set is not inherited when it jumps. Rows that did not certify, or that
    probed a leader point where the follower value is not finite, keep
    their best point and are flagged, never dropped.
    """
    rows, warm = [], None
    for eps in schedule.epsilons():
        sol = solve_penalized(problem, eps, sign=sign, cfg=cfg, warm_start=warm)
        sel = sol.selection
        if not problem.leader_set.contains(sol.y):
            raise RuntimeError("solver returned a leader point outside the box")
        if not problem.follower_set.contains(sel.x):
            raise RuntimeError("solver returned an infeasible follower response")
        rows.append(TraceRow(
            epsilon=float(eps), y=np.asarray(sol.y, dtype=float),
            x=np.asarray(sel.x, dtype=float), v=float(sol.value),
            h_value=float(sel.follower_value), fw_gap=float(sel.fw_gap),
            evals=int(sol.evals), converged=bool(sol.converged), nonfinite_y=sol.nonfinite_y,
        ))
        warm = sol.y
    return ContinuationTrace(problem=problem.name, sign=sign, rows=tuple(rows),
                             seed=cfg.seed)


def check_monotone(trace: ContinuationTrace, slack: float = 2e-4) -> MonotoneReport:
    """Verify the monotone approach of the trace values to the limit.

    Pessimistic traces must be nondecreasing (within slack) as epsilon
    shrinks; optimistic traces must be nonincreasing. Offending row
    indices are reported.
    """
    require_finite("slack", slack)
    if len(trace) == 0:
        raise ValueError("trace is empty")
    v = trace.values
    violations = tuple(k for k in range(1, len(v)) if (
        v[k] < v[k - 1] - slack if trace.sign >= 0 else v[k] > v[k - 1] + slack))
    return MonotoneReport(ok=not violations, violations=violations)


def limit_estimate(trace: ContinuationTrace) -> LimitEstimate:
    """Extrapolate the limit value: fit v = v_inf - a * eps on the last 3 rows."""
    if len(trace) < 3:
        raise ValueError("limit estimate needs at least 3 trace rows")
    tail = trace.rows[-3:]
    eps = np.array([r.epsilon for r in tail])
    v = np.array([r.v for r in tail])
    design = np.vstack([np.ones_like(eps), eps]).T
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return LimitEstimate(y_limit=trace.rows[-1].y, x_limit=trace.rows[-1].x,
                         v_limit=float(coef[0]))
