"""Derivative-free maximization of the penalized upper objective.

The upper objective y -> f(y, x_eps(y)) is continuous but has no usable
gradient, so the search is a compass pattern search over the leader box:
poll the 2p axis neighbors, move to a strictly better one, shrink the
step otherwise, stop at a mesh resolution. A cold solve climbs from the
box midpoint and N_MULTISTARTS - 1 scrambled Sobol points at step
COLD_STEP * span; a warm solve (the later rows of a continuation) climbs
once from the given point at step WARM_STEP * span. Every climb scales
its steps by SHRINK down to MIN_STEP. Only the evaluation budget and the
Sobol seed are settable, in UpperConfig. _compass_climb is the one
compass search of the package: it runs each climb here and the
three-level oracle's polish.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .model import BilevelProblem, BoxSet, require_finite
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


def _span_steps(K: BoxSet, fraction):
    steps = (K.upper - K.lower) * fraction
    # collapsed coordinates still need a positive (if useless) step
    return np.where(steps > MIN_STEP, steps, 10 * MIN_STEP)


def _start_set(K: BoxSet, seed):
    sampler = qmc.Sobol(d=K.dim, scramble=True, seed=seed)
    # N_MULTISTARTS is a power of 2, the draw size that keeps Sobol balanced
    U = sampler.random(N_MULTISTARTS)[:N_MULTISTARTS - 1]
    return [K.midpoint(), *(K.lower + U * (K.upper - K.lower))]


def _compass_climb(value_fn, K: BoxSet, y, fy, steps, min_step, max_evals):
    """Climb from y, whose value fy is known, to a compass-local maximum.

    Polls the clipped axis neighbors y +- steps[i] e_i that differ from y,
    moves to the best strictly better one or else scales steps by SHRINK,
    until every step is below min_step. Stops with exhausted=True when the
    next evaluation would exceed max_evals, after moving to the best
    strictly better probe of the unfinished poll, so the returned value is
    the best one evaluated. Returns (y, fy, evals, exhausted).
    """
    evals = 0
    while np.max(steps) >= min_step:
        if evals >= max_evals:
            return y, fy, evals, True
        cand_y, cand_val = y, fy
        for i in range(K.dim):
            for direction in (+1.0, -1.0):
                probe = y.copy()
                probe[i] += direction * steps[i]
                probe = K.clip(probe)
                if np.array_equal(probe, y):
                    continue
                if evals >= max_evals:
                    return cand_y, cand_val, evals, True
                val = value_fn(probe)
                evals += 1
                if val > cand_val:
                    cand_y, cand_val = probe, val
        if cand_val > fy:
            y, fy = cand_y, cand_val
        else:
            steps = steps * SHRINK
    return y, fy, evals, False


def pattern_search_maximize(value_fn, K: BoxSet,
                            cfg: UpperConfig = UpperConfig()) -> PatternSearchResult:
    """Compass search maximization of value_fn over the box K.

    Climbs from the box midpoint, then from N_MULTISTARTS - 1 Sobol
    points seeded by cfg.seed, each at first step COLD_STEP of the span.
    Terminates a start when every step component falls below MIN_STEP;
    the whole search stops early when cfg.max_evals is exhausted, in
    which case the best point so far is returned with converged=False.
    The returned point is a mesh-local maximizer at resolution MIN_STEP,
    clipped to K: the earliest evaluation with the strictly highest value.
    """
    best_y, best_val = None, -np.inf
    evals = 0
    exhausted = False
    for y0 in _start_set(K, cfg.seed):
        if evals >= cfg.max_evals:
            exhausted = True
            break
        y = K.clip(np.asarray(y0, dtype=float))
        fy = value_fn(y)
        evals += 1
        y, fy, used, exhausted = _compass_climb(
            value_fn, K, y, fy, _span_steps(K, COLD_STEP), MIN_STEP, cfg.max_evals - evals)
        evals += used
        if fy > best_val:
            best_y, best_val = y, fy
        if exhausted:
            break
    return PatternSearchResult(y=best_y, value=float(best_val), evals=evals,
                               converged=not exhausted)


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
    the strictly highest value); selection is deterministic, so it is
    bitwise the selection a re-solve at y would give. Deterministic for a
    fixed cfg seed. converged=False flags either an exhausted evaluation
    budget or a final selection with fw_gap > FW_TOL.
    """
    require_finite("epsilon", epsilon, positive=True)
    best = None

    def value_fn(y):
        nonlocal best
        selection = select_response(problem, y, epsilon, sign)
        if best is None or selection.leader_value > best.leader_value:
            best = selection
        return selection.leader_value

    K = problem.leader_set
    if warm_start is None:
        ps = pattern_search_maximize(value_fn, K, cfg)
        evals, exhausted = ps.evals, not ps.converged
    else:
        y0 = K.clip(warm_start)
        _, _, used, exhausted = _compass_climb(
            value_fn, K, y0, value_fn(y0), _span_steps(K, WARM_STEP), MIN_STEP,
            cfg.max_evals - 1)
        evals = used + 1
    converged = not exhausted and best.fw_gap <= FW_TOL
    return PenalizedSolution(y=best.y, selection=best, value=best.leader_value,
                             evals=evals, converged=converged)
