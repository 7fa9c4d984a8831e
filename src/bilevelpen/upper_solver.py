"""Derivative-free maximization of the penalized upper objective.

The upper objective y -> f(y, x_eps(y)) is continuous but has no usable
gradient, so the search is a compass pattern search over the leader box:
poll the 2p axis neighbors, move to the best one that improves, shrink
the step otherwise, stop at a mesh resolution. A cold solve climbs from
the box midpoint and N_MULTISTARTS - 1 scrambled Sobol points at step
COLD_STEP * span; a warm solve (the later rows of a continuation) climbs
once from the given point at step WARM_STEP * span. Every climb scales
its steps by SHRINK down to MIN_STEP. Only the evaluation budget and the
Sobol seed are settable, in UpperConfig. _compass_climb is the one
compass search: each climb here and the three-level oracle's polish.
_climb_from runs the starts of both solves, and _improves picks the best
evaluation of every climb, of the starts and of the oracle's grid.
"""

from dataclasses import dataclass
from typing import Optional
import math

import numpy as np
from scipy.stats import qmc

from .model import BilevelProblem, BoxSet, ProblemError, require_finite
from .selection import FW_TOL, SelectionResult, select_response

N_MULTISTARTS = 8  # a cold solve climbs from the box midpoint and 7 Sobol points
COLD_STEP = 0.25   # a cold climb's first step, as a fraction of the box span
WARM_STEP = 1e-2   # a warm climb's first step, as a fraction of the box span
SHRINK = 0.5       # a poll with no better neighbor scales the steps by this
MIN_STEP = 1e-6    # a solve's climb ends when every step is below this


@dataclass(frozen=True)
class UpperConfig:
    max_evals: int = 20000
    seed: int = 0  # scrambles the Sobol starts of a cold solve

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


@dataclass(frozen=True)
class PatternSearchResult:
    y: np.ndarray
    value: float
    evals: int
    converged: bool


@dataclass(frozen=True)
class PenalizedSolution:
    y: np.ndarray
    selection: SelectionResult
    value: float
    evals: int
    converged: bool
    nonfinite_y: Optional[np.ndarray] = None  # the first probe with a non-finite follower value


def _start_set(K: BoxSet, seed):
    sampler = qmc.Sobol(d=K.dim, scramble=True, seed=seed)
    # N_MULTISTARTS is a power of 2, the draw size that keeps Sobol balanced
    U = sampler.random(N_MULTISTARTS)[:N_MULTISTARTS - 1]
    return [K.midpoint(), *(K.lower + U * (K.upper - K.lower))]


def _improves(value, incumbent):
    """Whether value beats the incumbent's: only a finite, strictly higher
    one does, and a non-finite incumbent counts as -inf. So ties keep the
    earliest evaluation, NaN and +-inf never win, and a NaN start can move."""
    return math.isfinite(value) and (value > incumbent or not math.isfinite(incumbent))


def _require_finite_best(best, evals):
    """best, the (y, value, result) a search kept; ProblemError if not finite."""
    if not math.isfinite(best[1]):
        raise ProblemError(
            f"leader objective is not finite at any of the {evals} leader points evaluated")
    return best


def _compass_climb(evaluate, K: BoxSet, best, steps, min_step, max_evals):
    """Climb from best = (y, value, result), an evaluation already made, to
    a compass-local maximum; evaluate(y) returns (value, result).

    Polls the clipped axis neighbors y +- steps[i] e_i that differ from y,
    moves to the best one that _improves on y or else scales steps by
    SHRINK, until every step is below min_step. Stops with exhausted=True
    when the next evaluation would exceed max_evals, after moving to the
    best probe of the unfinished poll, so the climb ends on its best
    evaluation. Returns ((y, value, result), evals, exhausted).
    """
    evals = 0
    while np.max(steps) >= min_step:
        if evals >= max_evals:
            return best, evals, True
        y, cand = best[0], best
        for i in range(K.dim):
            for direction in (+1.0, -1.0):
                probe = y.copy()
                probe[i] += direction * steps[i]
                probe = K.clip(probe)
                if (probe == y).all():
                    continue
                if evals >= max_evals:
                    return cand, evals, True
                value, result = evaluate(probe)
                evals += 1
                if _improves(value, cand[1]):
                    cand = (probe, value, result)
        if cand is best:
            steps = steps * SHRINK
        best = cand
    return best, evals, False


def _climb_from(evaluate, K: BoxSet, starts, fraction, max_evals):
    """Compass climbs from each start in turn, clipped to K, at first step
    fraction of the span down to MIN_STEP, within max_evals evaluations in
    all. Returns ((y, value, result), evals, exhausted) of the best climb's
    end, by _improves; ProblemError if no evaluation was finite, ValueError
    for a start whose shape is not (K.dim,)."""
    steps = (K.upper - K.lower) * fraction
    # collapsed coordinates still need a positive (if useless) step
    steps = np.where(steps > MIN_STEP, steps, 10 * MIN_STEP)
    best, evals, exhausted = (None, -np.inf, None), 0, False
    for y0 in starts:
        exhausted = evals >= max_evals
        if exhausted:
            break
        y = np.asarray(y0, dtype=float)
        if y.shape != K.lower.shape:
            raise ValueError(f"start {y.tolist()} is not a point of {K.dim} leader coordinates")
        y = K.clip(y)
        end, used, exhausted = _compass_climb(evaluate, K, (y, *evaluate(y)), steps, MIN_STEP,
                                              max_evals - evals - 1)
        evals += used + 1
        if _improves(end[1], best[1]):
            best = end
        if exhausted:
            break
    return _require_finite_best(best, evals), evals, exhausted


def pattern_search_maximize(value_fn, K: BoxSet,
                            cfg: UpperConfig = UpperConfig()) -> PatternSearchResult:
    """Compass search maximization of value_fn over the box K.

    Climbs from the box midpoint, then from N_MULTISTARTS - 1 Sobol
    points seeded by cfg.seed, each at first step COLD_STEP of the span.
    Terminates a start when every step component falls below MIN_STEP;
    the whole search stops early when cfg.max_evals is exhausted, in
    which case the best point so far is returned with converged=False.
    The returned point is a mesh-local maximizer at resolution MIN_STEP,
    clipped to K: the earliest evaluation with the highest finite value.
    ProblemError if no evaluation is finite.
    """
    (y, value, _), evals, exhausted = _climb_from(
        lambda y: (value_fn(y), None), K, _start_set(K, cfg.seed), COLD_STEP, cfg.max_evals)
    return PatternSearchResult(y=y, value=float(value), evals=evals, converged=not exhausted)


@np.errstate(all="ignore")  # a non-finite probe is flagged below
def solve_penalized(problem: BilevelProblem, epsilon: float, sign: int = +1,
                    cfg: UpperConfig = UpperConfig(),
                    warm_start=None) -> PenalizedSolution:
    """Maximize the single-valued penalized upper objective over the box.

    sign picks the selection (PESSIMISTIC or OPTIMISTIC). Without
    warm_start: the multistart pattern search on y -> upper value at
    (y, epsilon). With it: one compass climb from warm_start clipped to
    the box, with first step WARM_STEP of the box span per coordinate,
    down to MIN_STEP within cfg.max_evals; it finds the local maximum
    around that point, not a global one. The reported selection is the
    one the search made at the returned y (the earliest evaluation with
    the highest finite value); selection is deterministic, so it is
    bitwise the selection a re-solve at y would give. So a leader point
    probed again within one solve (the compass poll probes the point it
    just left, and after a shrink both neighbours again) reuses its first
    selection; evals still counts every probe. Deterministic for a fixed
    cfg seed. converged=False flags an exhausted budget, a final selection
    with fw_gap > FW_TOL, or a probe whose follower value is not finite:
    the first such leader point is nonfinite_y. numpy's floating-point
    warnings are silenced, as that flag reports them. A leader value that
    is not finite only never wins; ProblemError if none is finite, and
    ValueError for a warm_start whose shape is not (dim_y,).
    """
    require_finite("epsilon", epsilon, positive=True)
    memo = {}  # y.tobytes() -> (value, selection), for this solve
    nonfinite = []  # the leader points probed where the follower value is not finite

    def evaluate(y):
        key = y.tobytes()
        if key not in memo:
            selection = select_response(problem, y, epsilon, sign)
            memo[key] = selection.leader_value, selection
            if not math.isfinite(selection.follower_value):
                nonfinite.append(y)
        return memo[key]

    K = problem.leader_set
    starts, fraction = ((_start_set(K, cfg.seed), COLD_STEP) if warm_start is None
                        else ([warm_start], WARM_STEP))
    (_, _, best), evals, exhausted = _climb_from(evaluate, K, starts, fraction, cfg.max_evals)
    return PenalizedSolution(
        y=best.y, selection=best, value=best.leader_value, evals=evals,
        converged=not (exhausted or nonfinite) and best.fw_gap <= FW_TOL,
        nonfinite_y=nonfinite[0] if nonfinite else None)
