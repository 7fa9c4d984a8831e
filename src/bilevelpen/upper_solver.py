"""Derivative-free maximization of the penalized upper objective.

The upper objective y -> f(y, x_eps(y)) is continuous but has no usable
gradient, so it is maximized by compass search over the leader box, the
generating-set search of Kolda, Lewis & Torczon (SIAM Review 45 (2003)
385-482): poll the 2p axis neighbors on the box's integer lattice
(_lattice), move to the best one that improves, shrink the integer
strides otherwise, stop at a mesh resolution.
solve_penalized runs one of two searches:
- pattern_search_maximize, the cold one, multistart from Sobol points:
  without a warm start, as in the first row of a continuation and the
  CLI's solve;
- one _compass_climb, the warm one: from a warm start, as in the later
  rows of a continuation.
_compass_climb is the one compass search, behind both and the
three-level oracle's polish, and _improves picks the best evaluation of
every climb, of the starts and of the oracle's grid. Only the evaluation
budget and the Sobol seed are settable, in UpperConfig.

_start_set draws scipy.stats.qmc.Sobol's points, bit for bit, as lattice
indices: a numpy port scrambled as scipy scrambles them. _mesh_starts
rounds them to the mesh of a coarse climb's last poll, so that climbs that
meet probe the same points. _start_set's 7 points in Gray-code order read
only the first three Joe-Kuo direction numbers of each dimension (Joe &
Kuo, SIAM J. Sci. Comput. 30 (2008) 2635-2654): m_0 = 1 and the vendored
(m_1, m_2) of _SOBOL_M. A cold solve on a leader box of more than
len(_SOBOL_M) dimensions raises DimensionGuardError; a warm solve draws no
Sobol point and runs at any dimension.
"""

from dataclasses import dataclass
from typing import Optional
import math

import numpy as np

from .model import (BilevelProblem, BoxSet, ByValue, DimensionGuardError, ProblemError,
                    require_finite, require_int)
from .selection import FW_TOL, SelectionResult, select_response

N_MULTISTARTS = 8  # a cold solve climbs from the box midpoint and 7 Sobol points
COLD_STEP = 0.25   # a cold climb's first step, as a fraction of the box span
WARM_STEP = 1e-2   # a warm climb's first step, as a fraction of the box span
SHRINK = 0.5       # a poll with no better neighbor scales the strides by this, rounded down
MIN_STEP = 1e-6    # a solve's climb ends when every step is below this fraction of the span
COARSE_STEP = 1e-3  # a cold solve stops each start's climb when every step is below this fraction
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


@dataclass(frozen=True, eq=False)
class PenalizedSolution(ByValue):
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
_LATTICE = 2 ** _SOBOL_BITS  # the strides of the lattice in one span of the box


def _start_set(d, seed):
    """The (N_MULTISTARTS, d) lattice indices of the box midpoint, then of
    the first N_MULTISTARTS - 1 points of scipy.stats.qmc.Sobol(d,
    scramble=True, seed=seed), these times 2**-30 bit for bit for an int
    seed; N_MULTISTARTS is a power of 2, the draw size that keeps Sobol
    balanced. The scrambling is scipy's: LMS plus a digital
    shift (Matousek 1998) from the same default_rng(seed) draws, a (d, 30)
    shift and then (d, 30, 30) lower triangles, with the points in
    Gray-code order. The LMS scramble of a direction number is a GF(2)
    product: its binary digits, top first, times the triangle. Only m_0,
    m_1 and m_2 exist, so a larger N_MULTISTARTS raises IndexError.
    DimensionGuardError above len(_SOBOL_M) dimensions, where the vendored
    table has no direction numbers."""
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
    return np.vstack([np.full(d, _LATTICE // 2), np.bitwise_xor.accumulate([shift, *flips])])


def _improves(value, incumbent):
    """Whether value beats the incumbent's: only a finite, strictly higher
    one does, and a non-finite incumbent counts as -inf. So ties keep the
    earliest evaluation, NaN and +-inf never win, and a NaN start can move."""
    return math.isfinite(value) and (value > incumbent or not math.isfinite(incumbent))


def _require_finite_best(best, evals):
    """best, the (y, value, ...) a search kept; ProblemError if value is not finite."""
    if not math.isfinite(best[1]):
        raise ProblemError(
            f"leader objective is not finite at any of the {evals} leader points evaluated")
    return best


def _lattice(K: BoxSet):
    """K's lattice as Python numbers (lower, span, upper, top) per coordinate:
    index n, 0 to top (2**30, 0 on a collapsed side), is the point
    min(lower + span * (n * 2**-30), upper)."""
    return [(lo, hi - lo, hi, _LATTICE if hi > lo else 0)
            for lo, hi in zip(K.lower.tolist(), K.upper.tolist())]


def _point(lattice, n):
    """The coordinates of the lattice point of indices n, as Python floats."""
    return [min(lo + span * (k / _LATTICE), hi) for k, (lo, span, hi, _) in zip(n, lattice)]


def _compass_climb(evaluate, K: BoxSet, best, steps, min_step, max_evals, fine=None):
    """Climb from best = (y, value), an evaluation already made, or from
    (y, value, n), n y's lattice indices (_lattice) as a climb's end carries
    them, to a compass-local maximum of evaluate, a map of K to values.

    steps are positive integer strides of the lattice, one per coordinate.
    Polls the axis neighbors n +- steps[i] e_i, each index clipped to the
    lattice, that differ from n, moves to the best one that _improves on y
    or else scales steps by SHRINK, rounded down, until every step is below
    min_step, a fraction of the span as MIN_STEP is. Stops with
    exhausted=True when the next evaluation would exceed max_evals, after
    moving to the best probe of the unfinished poll, so the climb ends on
    its best evaluation. Returns ((y, value, n), steps, evals, exhausted),
    steps the last ones: a climb stopped at one min_step resumes from its
    end and steps, probe for probe, as if it had run on to a smaller one.

    With fine, strides the caller expects to suffice, a first poll that
    finds no better neighbor scales the steps to min(steps * SHRINK, fine)
    instead, and each move up to the next such poll scales them by
    1 / SHRINK, to at most steps * SHRINK: the climb still looks as far as
    its first steps, goes on fine where nothing is there, and still travels
    far in a few polls where the fine steps were too short. With
    fine = steps * SHRINK or more it is the climb without fine.

    Every probe is computed from its indices as Python floats, never as
    y + step, and built as an array only to be evaluated: two climbs that
    reach one index probe the same bits, which a memo keyed by the bytes
    answers. A start given without n polls around its nearest indices, as
    (y - lower) / span lies in [0, 1] for y in K.
    """
    lattice, min_step = _lattice(K), min_step * _LATTICE
    n = best[2] if len(best) > 2 else [round((v - lo) / span * _LATTICE) if top else 0
                                       for v, (lo, span, _, top) in zip(best[0].tolist(), lattice)]
    best, point = (*best[:2], n), _point(lattice, n)
    evals, grow = 0, None
    while max(steps) >= min_step:
        if evals >= max_evals:
            return best, steps, evals, True
        cand, moved = best, None
        for i, (lo, span, hi, top) in enumerate(lattice):
            k, step = n[i], steps[i]
            for m in (k + step, k - step):
                m = 0 if m < 0 else top if m > top else m  # min and max would cost two calls
                if m == k:
                    continue
                if evals >= max_evals:
                    return cand, steps, evals, True
                coords, v = point.copy(), lo + span * (m / _LATTICE)
                coords[i] = hi if v > hi else v
                probe = np.array(coords)
                value = evaluate(probe)
                evals += 1
                if _improves(value, cand[1]):
                    cand, moved = (probe, value, n[:i] + [m] + n[i + 1:]), coords
        if moved is None:
            shrunk = [int(s * SHRINK) for s in steps]
            steps, grow = (shrunk, None) if fine is None else (list(map(min, shrunk, fine)), shrunk)
        else:
            n, point = cand[2], moved
            if grow is not None:
                steps = [min(int(s / SHRINK), g) for s, g in zip(steps, grow)]
        best, fine = cand, None
    return best, steps, evals, False


def _require_leader_vector(name, value, K: BoxSet, nonnegative=False):
    """value as a float array of K.dim coordinates; ValueError naming name
    unless it has that shape and every entry is finite (and >= 0 if
    nonnegative)."""
    shape_error = f"is not a point of {K.dim} leader coordinates"
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} {value!r} {shape_error}") from None
    if v.shape != K.lower.shape:
        raise ValueError(f"{name} {v.tolist()} {shape_error}")
    if not (np.isfinite(v).all() and (not nonnegative or (v >= 0.0).all())):
        kind = "finite and nonnegative" if nonnegative else "finite"
        raise ValueError(f"{name} must be {kind}, got {v.tolist()}")
    return v


def _mesh_starts(lattice, seed, stride):
    """The points of _start_set(len(lattice), seed), each index rounded, half
    to even as np.round rounds, to a multiple of the mesh and capped. The
    mesh, the stride of the last poll of a climb from stride to COARSE_STEP,
    is stride times SHRINK, rounded down, as often as leaves it at or above
    COARSE_STEP of the span: a multiple of it is every stride of that climb
    from a power of 2."""
    mesh = stride
    while int(mesh * SHRINK) >= COARSE_STEP * _LATTICE:
        mesh = int(mesh * SHRINK)
    return [np.array(_point(lattice, [min(mesh * round(k / mesh), top)
                                      for k, (*_, top) in zip(start, lattice)]))
            for start in _start_set(len(lattice), seed).tolist()]


def pattern_search_maximize(value_fn, K: BoxSet,
                            cfg: UpperConfig = UpperConfig()) -> PatternSearchResult:
    """Compass search maximization of value_fn over the box K, from many starts.

    Climbs from each of _mesh_starts(lattice, cfg.seed, steps[0]) in turn, at
    first strides COLD_STEP of the span, until every step is below
    COARSE_STEP of it. The starts are _start_set's, rounded coordinate by
    coordinate to the mesh of a climb's last coarse poll, of which every
    coarse stride is an integer multiple: all coarse probes lie on one
    lattice (Torczon, SIAM J. Optim. 7 (1997) 1-25), so a later climb that
    reaches a point an earlier one probed probes the same bits, and a
    caller's memo (solve_penalized's) answers it. Then the best end by
    _improves resumes its climb, from its last indices and steps, down to
    MIN_STEP, and so does, in start order, every other end that is both
    - within COARSE_MARGIN * max(1, |best|) of the best end's value, and
    - outside the union of both ends' last polls: farther apart in some
      index than the sum of their strides / SHRINK. Two ends whose last
      polls overlap sit on the same coarse peak, which the best end's
      refinement searches already; in two dimensions a climb can stop
      farther from its peak than its own last poll reaches.
    So a near-tie between two peaks is refined on both, and the same peak
    found from many starts is refined once. Each refinement is the rest of
    the climb that refining every start would make, so the result is one of
    that search's evaluations and never higher than its result.

    evals counts every evaluation, at most cfg.max_evals; a search that
    runs out returns its best point so far with converged=False. y is the
    earliest evaluation with the highest finite value, the very array
    value_fn was given there. ProblemError if no evaluation is finite,
    DimensionGuardError if K has more than len(_SOBOL_M) dimensions.
    """
    steps, lattice = [round(COLD_STEP * _LATTICE)] * K.dim, _lattice(K)
    best, best_steps, ends, evals, exhausted = (None, -np.inf), steps, [], 0, False
    for y in _mesh_starts(lattice, cfg.seed, steps[0]):
        # a climb that ran out left evals at the budget, so the search stops here
        exhausted = evals >= cfg.max_evals
        if exhausted:
            break
        end, end_steps, used, exhausted = _compass_climb(
            value_fn, K, (y, value_fn(y)), steps, COARSE_STEP, cfg.max_evals - evals - 1)
        evals += used + 1
        ends.append((end, end_steps))
        if _improves(end[1], best[1]):
            best, best_steps = end, end_steps
    if not exhausted and math.isfinite(best[1]):
        margin = COARSE_MARGIN * max(1.0, abs(best[1]))
        refine = [(best, best_steps)] + [
            (end, end_steps) for end, end_steps in ends
            if math.isfinite(end[1]) and end[1] >= best[1] - margin
            and np.any(np.abs(np.array(end[2]) - best[2]) > np.add(best_steps, end_steps) / SHRINK)]
        for end, end_steps in refine:
            end, _, used, exhausted = _compass_climb(value_fn, K, end, end_steps, MIN_STEP,
                                                     cfg.max_evals - evals)
            evals += used
            if _improves(end[1], best[1]):
                best = end
            if exhausted:
                break
    y, value, _ = _require_finite_best(best, evals)
    return PatternSearchResult(y=y, value=float(value), evals=evals, converged=not exhausted)


@np.errstate(all="ignore")  # a non-finite probe is flagged below
def solve_penalized(problem: BilevelProblem, epsilon: float, sign: int = +1,
                    cfg: UpperConfig = UpperConfig(),
                    warm_start=None, warm_step=None) -> PenalizedSolution:
    """Maximize the single-valued penalized upper objective over the box.

    sign picks the selection (PESSIMISTIC or OPTIMISTIC). Without
    warm_start: pattern_search_maximize of y -> upper value at (y, epsilon).
    With it: one _compass_climb from warm_start clipped to the box, at first
    strides WARM_STEP of the span down to MIN_STEP of it, with fine steps
    warm_step, the steps the caller expects to suffice (run_continuation
    reads them from how far its path last moved), each raised to MIN_STEP of
    the span if below it. So where the first poll finds nothing, a warm_step
    of 0 costs one more poll, at that floor, and not one per halving. It
    finds the local maximum around that point, not a global one.

    The reported selection is the one the search made at the returned y;
    selection is deterministic, so it is bitwise the selection a re-solve
    at y would give. A leader point probed again within one solve (the
    compass poll probes the point it just left, and after a shrink both
    neighbours again) reuses its first selection; evals still counts every
    probe. Deterministic for a fixed cfg seed. converged=False flags an
    exhausted budget, a final selection with fw_gap > FW_TOL, or a probe
    whose follower value is not finite: the first such leader point is
    nonfinite_y. numpy's floating-point warnings are silenced, as that flag
    reports them. ProblemError if no leader value is finite, and without
    warm_start DimensionGuardError as pattern_search_maximize raises it.
    Before any evaluation, ValueError naming the argument for a warm_start
    that is not a finite point of shape (dim_y,) (a finite one outside the
    box is clipped to it), a warm_step that is not a finite, nonnegative
    array of that shape, or a warm_step without a warm_start.
    """
    require_finite("epsilon", epsilon, positive=True)
    K = problem.leader_set
    memo = {}  # y.tobytes() -> selection, for this solve
    nonfinite = []  # the leader points probed where the follower value is not finite

    def value(y):
        key = y.tobytes()
        if key not in memo:
            selection = memo[key] = select_response(problem, y, epsilon, sign)
            if not math.isfinite(selection.follower_value):
                nonfinite.append(y)
        return memo[key].leader_value

    if warm_start is None:
        if warm_step is not None:
            raise ValueError("warm_step is a step of a warm climb and needs a warm_start")
        res = pattern_search_maximize(value, K, cfg)
        y, evals, exhausted = res.y, res.evals, not res.converged
    else:
        y = K.clip(_require_leader_vector("warm_start", warm_start, K))
        if warm_step is not None:
            warm_step = _require_leader_vector("warm_step", warm_step, K, nonnegative=True)
            floor = math.ceil(MIN_STEP * _LATTICE)  # strides of at most a span, and at least this
            warm_step = [max(round(min(w / span, 1.0) * _LATTICE), floor) if top else 0
                         for w, (_, span, _, top) in zip(warm_step.tolist(), _lattice(K))]
        best, _, used, exhausted = _compass_climb(
            value, K, (y, value(y)), [round(WARM_STEP * _LATTICE)] * K.dim, MIN_STEP,
            cfg.max_evals - 1, warm_step)
        evals = used + 1
        y = _require_finite_best(best, evals)[0]
    best = memo[y.tobytes()]
    return PenalizedSolution(
        y=best.y, selection=best, value=best.leader_value, evals=evals,
        converged=not (exhausted or nonfinite) and best.fw_gap <= FW_TOL,
        nonfinite_y=nonfinite[0] if nonfinite else None)
