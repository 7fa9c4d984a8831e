"""Derivative-free maximization of the penalized upper objective.

The upper objective y -> f(y, x_eps(y)) is continuous but has no usable
gradient, so the search is a compass pattern search over the leader box:
poll the 2p axis neighbors, move to the best one that improves, shrink
the step otherwise, stop at a mesh resolution. A cold solve climbs from
the box midpoint and N_MULTISTARTS - 1 scrambled Sobol points at step
COLD_STEP * span; a warm solve (the later rows of a continuation) climbs
once from the given point at step WARM_STEP * span. Every climb scales
its steps by SHRINK. A warm climb stops below MIN_STEP. A cold solve
stops each climb below COARSE_STEP and refines only the best end, and any
end of another peak within COARSE_MARGIN of it, down to MIN_STEP: when
every start reaches the same peak, seven fine polishes would change
nothing. A warm solve has one climb and nothing to compare it with, so
it has no coarse stage. Only the evaluation budget and the Sobol seed
are settable, in UpperConfig. _compass_climb is the one compass search:
each climb here and the three-level oracle's polish. _climb_from runs
the starts of both solves and the refinement rule, and _improves picks
the best evaluation of every climb, of the starts and of the oracle's
grid.

The Sobol starts are scipy.stats.qmc.Sobol's points, bit for bit, drawn by
_start_set: a numpy port scrambled as scipy scrambles them. Its 7 points
in Gray-code order read only the first three Joe-Kuo direction numbers of
each dimension (Joe & Kuo, SIAM J. Sci. Comput. 30 (2008) 2635-2654):
m_0 = 1 and the vendored (m_1, m_2) of _SOBOL_M. A cold solve on a leader
box of more than len(_SOBOL_M) dimensions raises DimensionGuardError; a
warm solve draws no Sobol point and runs at any dimension.
"""

from dataclasses import dataclass
from typing import Optional
import math

import numpy as np

from .model import (BilevelProblem, BoxSet, DimensionGuardError, ProblemError, require_finite,
                    require_int)
from .selection import FW_TOL, SelectionResult, select_response

N_MULTISTARTS = 8  # a cold solve climbs from the box midpoint and 7 Sobol points
COLD_STEP = 0.25   # a cold climb's first step, as a fraction of the box span
WARM_STEP = 1e-2   # a warm climb's first step, as a fraction of the box span
SHRINK = 0.5       # a poll with no better neighbor scales the steps by this
MIN_STEP = 1e-6    # a solve's climb ends when every step is below this
COARSE_STEP = 1e-3  # a cold solve stops each start's climb when every step is below this
COARSE_MARGIN = 1e-3  # and refines the ends this close to the best's value, times max(1, |best|)


@dataclass(frozen=True)
class UpperConfig:
    """The upper search's settings; ValueError naming the field unless
    max_evals is an integer >= 1 and seed one >= 0 (numpy integers count,
    bools do not). Both are stored as Python ints, so a report that
    carries them serializes as JSON."""

    max_evals: int = 20000
    seed: int = 0  # scrambles the Sobol starts of a cold solve

    def __post_init__(self):
        require_int("max_evals", self.max_evals, 1)
        require_int("seed", self.seed, 0)
        object.__setattr__(self, "max_evals", int(self.max_evals))
        object.__setattr__(self, "seed", int(self.seed))


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


# The Joe-Kuo direction numbers (m_1, m_2) of the first 32 Sobol dimensions,
# as scipy/stats/_sobol_direction_numbers.npz (scipy 1.17.1) yields them by the
# recurrence of Bratley & Fox (ACM TOMS 14 (1988) 88-100); m_0 = 1 in every
# dimension. Point i < 8 in Gray-code order flips only m_0, m_1 and m_2.
_SOBOL_M = (
    (1, 1), (3, 5), (3, 3), (3, 1), (1, 1), (1, 3), (3, 5), (1, 5), (1, 5), (1, 7), (1, 5),
    (1, 1), (3, 5), (3, 3), (1, 1), (3, 1), (1, 1), (3, 1), (1, 5), (3, 7), (3, 7), (1, 3),
    (3, 5), (3, 1), (3, 1), (1, 5), (3, 5), (1, 7), (3, 7), (1, 3), (3, 5), (3, 7),
)
_SOBOL_BITS = 30  # scipy's default: every coordinate is a multiple of 2**-30


def _start_set(K: BoxSet, seed):
    """The box midpoint, then the first N_MULTISTARTS - 1 points of
    scipy.stats.qmc.Sobol(K.dim, scramble=True, seed=seed) scaled to K, bit
    for bit, for an int seed; N_MULTISTARTS is a power of 2, the draw size
    that keeps Sobol balanced. The scrambling is scipy's: LMS plus a digital
    shift (Matousek 1998) from the same default_rng(seed) draws, a (d, 30)
    shift and then (d, 30, 30) lower triangles, with the points in Gray-code
    order. The LMS scramble of a direction number is a GF(2) product: its
    binary digits, top first, times the triangle. Only m_0, m_1 and m_2
    exist, so a larger N_MULTISTARTS raises IndexError.
    DimensionGuardError above len(_SOBOL_M) dimensions, where the vendored
    table has no direction numbers."""
    d = K.dim
    if d > len(_SOBOL_M):
        raise DimensionGuardError(f"Sobol starts guarded to {len(_SOBOL_M)} leader dims, got {d}")
    rng = np.random.default_rng(seed)
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ (2 ** bits)
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    m = np.array([(1, *m12) for m12 in _SOBOL_M[:d]], dtype=np.uint32)
    V = m << (_SOBOL_BITS - 1 - bits[:3])  # m_j shifted to bit 29 - j
    digits = (V[:, None, :] >> bits[::-1, None]) & 1  # digit p of V_j is its bit 29 - p
    V = (2 ** bits[::-1]) @ ((ltm @ digits) & 1)
    # point i flips the direction number of the lowest set bit of i
    flips = V[:, [(i & -i).bit_length() - 1 for i in range(1, N_MULTISTARTS - 1)]].T
    U = np.bitwise_xor.accumulate(np.vstack([shift, flips]), axis=0) * 2.0 ** -_SOBOL_BITS
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
    evaluation. Returns ((y, value, result), steps, evals, exhausted), steps
    the last ones: a climb stopped at one min_step resumes from its end and
    steps, probe for probe, as if it had run on to a smaller one.

    best[0] must be a point of K: a probe then differs from y at most in
    its coordinate i, so only that coordinate is compared.
    """
    evals = 0
    while np.max(steps) >= min_step:
        if evals >= max_evals:
            return best, steps, evals, True
        y, cand = best[0], best
        for i in range(K.dim):
            for direction in (+1.0, -1.0):
                probe = y.copy()
                probe[i] += direction * steps[i]
                probe = K.clip(probe)
                # y is a point of K (every caller starts from one, and each
                # move is to a clipped probe), and clipping leaves a
                # coordinate in K bit for bit: only probe[i] can differ from y
                if probe[i] == y[i]:
                    continue
                if evals >= max_evals:
                    return cand, steps, evals, True
                value, result = evaluate(probe)
                evals += 1
                if _improves(value, cand[1]):
                    cand = (probe, value, result)
        if cand is best:
            steps = steps * SHRINK
        best = cand
    return best, steps, evals, False


def _climb_from(evaluate, K: BoxSet, starts, fraction, max_evals):
    """Compass climbs from each start in turn, clipped to K, at first step
    fraction of the span, within max_evals evaluations in all.

    One start (a warm solve) climbs down to MIN_STEP. Several (a cold solve)
    each climb down to COARSE_STEP only. Then the best end by _improves
    resumes its climb, from its last steps, down to MIN_STEP, and so does,
    in start order, every other end that is both
    - within COARSE_MARGIN * max(1, |best|) of the best end's value, and
    - outside the best end's last poll: farther than its steps / SHRINK
      from it in some coordinate. An end inside that poll sits on the same
      coarse peak, which the best end's refinement searches already.
    So a near-tie between two peaks is refined on both, and the same peak
    found from many starts is refined once. Each refinement is the rest
    of the climb that refining every start would make, so the result is
    one of that search's evaluations and never higher than its result.

    Returns ((y, value, result), evals, exhausted): the earliest evaluation
    with the highest finite value. ProblemError if no evaluation was finite,
    ValueError for a start whose shape is not (K.dim,).
    """
    steps = (K.upper - K.lower) * fraction
    # collapsed coordinates still need a positive (if useless) step
    steps = np.where(steps > MIN_STEP, steps, 10 * MIN_STEP)
    min_step = COARSE_STEP if len(starts) > 1 else MIN_STEP
    best, best_steps, ends, evals, exhausted = (None, -np.inf, None), steps, [], 0, False
    for y0 in starts:
        exhausted = evals >= max_evals
        if exhausted:
            break
        y = np.asarray(y0, dtype=float)
        if y.shape != K.lower.shape:
            raise ValueError(f"start {y.tolist()} is not a point of {K.dim} leader coordinates")
        y = K.clip(y)
        end, end_steps, used, exhausted = _compass_climb(
            evaluate, K, (y, *evaluate(y)), steps, min_step, max_evals - evals - 1)
        evals += used + 1
        ends.append((end, end_steps))
        if _improves(end[1], best[1]):
            best, best_steps = end, end_steps
        if exhausted:
            break
    if not exhausted and math.isfinite(best[1]):
        margin = COARSE_MARGIN * max(1.0, abs(best[1]))
        reach = best_steps / SHRINK
        refine = [(best, best_steps)] + [
            (end, end_steps) for end, end_steps in ends
            if math.isfinite(end[1]) and end[1] >= best[1] - margin
            and np.any(np.abs(end[0] - best[0]) > reach)]
        for end, end_steps in refine:
            end, _, used, exhausted = _compass_climb(evaluate, K, end, end_steps, MIN_STEP,
                                                     max_evals - evals)
            evals += used
            if _improves(end[1], best[1]):
                best = end
            if exhausted:
                break
    return _require_finite_best(best, evals), evals, exhausted


def pattern_search_maximize(value_fn, K: BoxSet,
                            cfg: UpperConfig = UpperConfig()) -> PatternSearchResult:
    """Compass search maximization of value_fn over the box K.

    Climbs from the box midpoint, then from N_MULTISTARTS - 1 Sobol
    points seeded by cfg.seed, each at first step COLD_STEP of the span
    until every step component falls below COARSE_STEP; then refines the
    best end, and each end of another peak within COARSE_MARGIN of it,
    down to MIN_STEP (the rule of _climb_from). evals counts every
    evaluation. The whole search stops early when cfg.max_evals is
    exhausted, in which case the best point so far is returned with
    converged=False. The returned point is a mesh-local maximizer at
    resolution MIN_STEP, clipped to K: the earliest evaluation with the
    highest finite value.
    ProblemError if no evaluation is finite, DimensionGuardError if K has
    more than len(_SOBOL_M) dimensions.
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
    (y, epsilon), each start climbed down to COARSE_STEP and only the best
    end, with any end of another peak within COARSE_MARGIN of it, refined
    down to MIN_STEP (the rule of _climb_from). With it: one compass climb
    from warm_start clipped to the box, with first step WARM_STEP of the
    box span per coordinate, down to MIN_STEP within cfg.max_evals, with
    no coarse stage, since one climb has nothing to compare; it finds the
    local maximum around that point, not a global one. The reported selection is the
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
    is not finite only never wins; ProblemError if none is finite,
    ValueError for a warm_start whose shape is not (dim_y,), and without
    warm_start DimensionGuardError on a box of more than len(_SOBOL_M)
    dimensions.
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
