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

The Sobol starts are scipy.stats.qmc.Sobol's points, bit for bit, drawn by
_sobol_points: a numpy port over a vendored table of Joe-Kuo direction
numbers (Joe & Kuo, SIAM J. Sci. Comput. 30 (2008) 2635-2654), scrambled
as scipy scrambles them. A cold solve on a leader box of more than
len(_SOBOL_TABLE) dimensions raises DimensionGuardError; a warm solve
draws no Sobol point and runs at any dimension.
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


@dataclass(frozen=True)
class UpperConfig:
    """The upper search's settings; ValueError naming the field unless
    max_evals is an integer >= 1 and seed one >= 0 (numpy integers count,
    bools do not)."""

    max_evals: int = 20000
    seed: int = 0  # scrambles the Sobol starts of a cold solve

    def __post_init__(self):
        require_int("max_evals", self.max_evals, 1)
        require_int("seed", self.seed, 0)


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


# The Joe-Kuo direction numbers of the first 32 Sobol dimensions, copied from
# scipy/stats/_sobol_direction_numbers.npz (scipy 1.17.1; its rows "poly" and
# "vinit"): per dimension, the primitive polynomial and the initial direction
# numbers m_1 .. m_s, s its degree. Dimension 0 (polynomial 1) is all ones.
_SOBOL_TABLE = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)
_SOBOL_BITS = 30  # scipy's default: every coordinate is a multiple of 2**-30


def _sobol_directions(d):
    """(d, _SOBOL_BITS) uint32 direction numbers of the first d dimensions,
    by the recurrence of Bratley & Fox (ACM TOMS 14 (1988) 88-100), the
    j-th shifted to bit _SOBOL_BITS - 1 - j."""
    V = np.empty((d, _SOBOL_BITS), dtype=np.uint32)
    for row, (poly, vinit) in zip(V, _SOBOL_TABLE):
        s = poly.bit_length() - 1
        v = list(vinit) if s else [1] * _SOBOL_BITS
        for j in range(len(v), _SOBOL_BITS):
            new = v[j - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    new ^= v[j - k] << k
            v.append(new)
        row[:] = [vj << (_SOBOL_BITS - 1 - j) for j, vj in enumerate(v)]
    return V


def _parity(a):
    """Each entry's bit parity (0 or 1), for unsigned entries of up to 32
    bits, by an xor-fold of a, in place."""
    for shift in (16, 8, 4, 2, 1):
        a ^= a >> shift
    return a & 1


def _sobol_points(d, n, seed):
    """The first n points of scipy.stats.qmc.Sobol(d, scramble=True,
    seed=seed), bit for bit, for an int seed: LMS plus digital-shift
    scrambling (Matousek 1998) from the same default_rng(seed) draws, a
    (d, 30) shift and then (d, 30, 30) lower triangles, and the points in
    Gray-code order. DimensionGuardError above len(_SOBOL_TABLE) dimensions,
    where the vendored table has no direction numbers."""
    if d > len(_SOBOL_TABLE):
        raise DimensionGuardError(
            f"Sobol starts guarded to {len(_SOBOL_TABLE)} leader dims, got {d}")
    rng = np.random.default_rng(seed)
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ (2 ** bits)
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    rows = ltm @ (2 ** bits[::-1])  # row p of each triangle, its column 0 the top bit
    # bit 29 - p of a scrambled direction number is the parity of row p & it
    V = np.bitwise_or.reduce(
        _parity(rows[:, :, None] & _sobol_directions(d)[:, None, :]) << bits[::-1, None],
        axis=1)
    # point i flips the direction number of the lowest set bit of i
    flips = V[:, [(i & -i).bit_length() - 1 for i in range(1, n)]].T
    return np.bitwise_xor.accumulate(np.vstack([shift, flips]), axis=0) * 2.0 ** -_SOBOL_BITS


def _start_set(K: BoxSet, seed):
    # N_MULTISTARTS is a power of 2, the draw size that keeps Sobol balanced
    U = _sobol_points(K.dim, N_MULTISTARTS, seed)[:N_MULTISTARTS - 1]
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

    best[0] must be a point of K: a probe then differs from y at most in
    its coordinate i, so only that coordinate is compared.
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
                # y is a point of K (every caller starts from one, and each
                # move is to a clipped probe), and clipping leaves a
                # coordinate in K bit for bit: only probe[i] can differ from y
                if probe[i] == y[i]:
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
    ProblemError if no evaluation is finite, DimensionGuardError if K has
    more than len(_SOBOL_TABLE) dimensions.
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
    is not finite only never wins; ProblemError if none is finite,
    ValueError for a warm_start whose shape is not (dim_y,), and without
    warm_start DimensionGuardError on a box of more than len(_SOBOL_TABLE)
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
