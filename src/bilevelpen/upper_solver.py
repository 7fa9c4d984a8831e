"""Derivative-free maximization of the penalized upper objective.

The upper objective y -> f(y, x_eps(y)) is continuous but has no usable
gradient, so the search is a compass pattern search over the leader box:
poll the 2p axis neighbors, move to a strictly better one, shrink the
step otherwise, stop at a mesh resolution. A cold solve climbs from the
box midpoint and a scrambled Sobol set at step span/4; a warm solve
(the later rows of a continuation) climbs once from the given point at
step WARM_STEP * span. _compass_climb is the one compass search of the
package: it runs each climb here and the three-level oracle's polish.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .model import BilevelProblem, BoxSet
from .selection import SelectionConfig, SelectionResult, select_response

WARM_STEP = 1e-2  # a warm climb's first step, as a fraction of the box span


@dataclass(frozen=True)
class UpperConfig:
    n_multistarts: int = 8
    initial_step: Optional[float] = None  # None: (upper - lower) / 4 per coordinate
    shrink: float = 0.5
    min_step: float = 1e-6
    max_evals: int = 20000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0.0 < self.min_step < math.inf:
            raise ValueError("min_step must be positive and finite")
        if self.initial_step is not None:
            if not math.isfinite(self.initial_step):
                raise ValueError("initial_step must be finite")
            if self.min_step >= self.initial_step:
                raise ValueError("min_step must be smaller than initial_step")
        if self.n_multistarts < 1:
            raise ValueError("need at least one start")
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


def _span_steps(K: BoxSet, fraction, min_step):
    steps = (K.upper - K.lower) * fraction
    # collapsed coordinates still need a positive (if useless) step
    return np.where(steps > min_step, steps, 10 * min_step)


def _initial_steps(K: BoxSet, cfg: UpperConfig):
    if cfg.initial_step is not None:
        return np.full(K.dim, float(cfg.initial_step))
    return _span_steps(K, 0.25, cfg.min_step)


def _start_set(K: BoxSet, cfg: UpperConfig):
    starts = [K.midpoint()]
    n_sobol = cfg.n_multistarts - 1
    if n_sobol > 0:
        sampler = qmc.Sobol(d=K.dim, scramble=True, seed=cfg.seed)
        U = sampler.random(1 << (n_sobol - 1).bit_length())[:n_sobol]
        starts.extend(K.lower + U * (K.upper - K.lower))
    return starts


def _compass_climb(value_fn, K: BoxSet, y, fy, steps, shrink, min_step, max_evals):
    """Climb from y, whose value fy is known, to a compass-local maximum.

    Polls the clipped axis neighbors y +- steps[i] e_i that differ from y,
    moves to the best strictly better one or else scales steps by shrink,
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
            steps = steps * shrink
    return y, fy, evals, False


def pattern_search_maximize(value_fn, K: BoxSet,
                            cfg: UpperConfig = UpperConfig()) -> PatternSearchResult:
    """Compass search maximization of value_fn over the box K.

    Climbs from the box midpoint, then from cfg.n_multistarts - 1 Sobol
    points. Terminates a start when every step component falls below
    min_step; the whole search stops early when max_evals is exhausted,
    in which case the best point so far is returned with converged=False.
    The returned point is a mesh-local maximizer at resolution min_step,
    clipped to K: the earliest evaluation with the strictly highest value.
    """
    best_y, best_val = None, -np.inf
    evals = 0
    exhausted = False
    for y0 in _start_set(K, cfg):
        if evals >= cfg.max_evals:
            exhausted = True
            break
        y = K.clip(np.asarray(y0, dtype=float))
        fy = value_fn(y)
        evals += 1
        y, fy, used, exhausted = _compass_climb(
            value_fn, K, y, fy, _initial_steps(K, cfg), cfg.shrink, cfg.min_step,
            cfg.max_evals - evals)
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

    Without warm_start: the multistart pattern search on y -> upper value
    at (y, epsilon). With it: one compass climb from warm_start clipped to
    the box, with first step WARM_STEP of the box span per coordinate and
    cfg's shrink, min_step and max_evals; it finds the local maximum
    around that point, not a global one. The reported selection is the
    one the search made at the returned y (the earliest evaluation with
    the strictly highest value); selection is deterministic, so it is
    bitwise the selection a re-solve at y would give. Deterministic for a
    fixed cfg seed. converged=False flags either an exhausted evaluation
    budget or an uncertified final selection.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    sel_cfg = SelectionConfig(sign=sign, seed=cfg.seed)
    best = None

    def value_fn(y):
        nonlocal best
        selection = select_response(problem, y, epsilon, sel_cfg)
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
            value_fn, K, y0, value_fn(y0), _span_steps(K, WARM_STEP, cfg.min_step),
            cfg.shrink, cfg.min_step, cfg.max_evals - 1)
        evals = used + 1
    converged = not exhausted and best.fw_gap <= sel_cfg.tol
    return PenalizedSolution(y=best.y, selection=best, value=best.leader_value,
                             evals=evals, converged=converged)
