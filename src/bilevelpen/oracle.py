"""Brute-force ground truth for the nested problem, independent of the solver.

The exact follower argmin set is described either by the optimal face's
vertices (follower objective linear or constant in x) or by a dense grid
cloud on the intrinsic coordinates of C (slack variables eliminated).
The worst-case response minimizes the squared leader objective over that
description (on a vertex face by the package's one best-of-runs Frank-Wolfe
loop, lower_solver._fw_best), and the three-level oracle maximizes
the resulting value over a leader grid, polished by the one compass
search, upper_solver._compass_climb. Oracle values certify the penalty
solver's convergence and error rates.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import qr as scipy_qr

from . import expressions as ex
from .model import (LINEAR, BilevelProblem, DimensionGuardError, FEAS_TOL, ProblemError,
                    _read_only, require_finite)
from .lower_solver import (_fw_best, enumerate_vertices, independent_rows,
                           lp_minimize, vertex_lmo)
from .selection import penalized_field
from .upper_solver import _compass_climb, _improves, _require_finite_best

GRID_DIM_GUARD = 4
GRID_EVAL_GUARD = 10 ** 7


@dataclass(frozen=True)
class LowerSetDescription:
    kind: str  # single_point | vertex_face | grid_cloud
    points: np.ndarray
    value: float


@dataclass(frozen=True)
class PessimisticResponse:
    x: np.ndarray
    value: float


@dataclass(frozen=True)
class OracleSolution:
    problem: str
    y: np.ndarray
    x: np.ndarray
    leader_value: float    # leader objective at the certified solution
    follower_value: float  # follower objective there
    method: str            # face_enum | grid
    resolution: float


def _axis_count(span, step):
    """Points of a grid axis over span at step, counted in floats and capped
    at 2**53 + 1, the largest count a double holds exactly: a subnormal step
    gives a finite count, not inf."""
    return min(np.rint(span / step), 2.0 ** 53) + 1.0


def _write_mesh(out, rows, axes):
    """Write the "ij" mesh of axes into the rows `rows` of out, one
    contiguous row per axis: the columns of out run through every
    combination of axis values, the last axis fastest."""
    dims = [len(values) for values in axes]
    for axis, (i, values) in enumerate(zip(rows, axes)):
        shape = [1] * len(axes)
        shape[axis] = len(values)
        out[i].reshape(dims)[...] = values.reshape(shape)  # out[i] is a view of out


def _intrinsic_grid(C, step):
    """Grid the polytope over its free coordinates after slack elimination.

    Picks a well-conditioned basic column set by QR pivoting, bounds each
    free coordinate by LPs, and assembles full feasible points as the
    (N, n) transpose of one array with a contiguous row per coordinate.
    Guarded to 4 intrinsic dimensions and 1e7 grid points.
    """
    rows = independent_rows(C.A)
    A = C.A[rows]
    b = C.b[rows]
    r, n = A.shape[0], C.dim
    free_dim = n - r
    if free_dim > GRID_DIM_GUARD:
        raise DimensionGuardError(
            f"grid oracle guarded to {GRID_DIM_GUARD} intrinsic dims, got {free_dim}")
    _, _, piv = scipy_qr(A, pivoting=True)
    basic = sorted(piv[:r])
    free = [j for j in range(n) if j not in basic]
    B = A[:, basic]
    N = A[:, free]

    bounds = []
    for j in free:
        c = np.zeros(n)
        c[j] = 1.0
        lo = lp_minimize(c, C).value
        c[j] = -1.0
        bounds.append((lo, -lp_minimize(c, C).value))
    # LP round-off may put hi a hair below lo; a tiny step must not make that a negative count
    counts = [_axis_count(max(hi - lo, 0.0), step) for lo, hi in bounds]
    size = math.prod(counts)
    if size > GRID_EVAL_GUARD:
        raise DimensionGuardError(
            f"grid of {size:.0f} points exceeds the {GRID_EVAL_GUARD} guard; coarsen the step")
    Xt = np.empty((n, int(size)))  # one row per coordinate; the grid is its transpose
    _write_mesh(Xt, free, [np.linspace(lo, hi, int(k)) for (lo, hi), k in zip(bounds, counts)])
    # numpy runs a one-row product as a gemv, whose sum order follows the
    # layout: point-major keeps the bits of the former meshgrid build
    R = N @ (Xt[free] if r > 1 else np.ascontiguousarray(Xt[free].T).T)
    np.subtract(b[:, None], R, out=R)  # R = b - N x_free
    # solve(I, R) returns R bit for bit unless R holds a non-finite value or
    # a -0.0, and R holds a -0.0 only where b does
    identity = (np.array_equal(B, np.eye(r)) and not np.signbit(b).any()
                and np.isfinite(R).all())
    Xt[basic] = R if identity else np.linalg.solve(B, R)
    mask = Xt[0] >= -FEAS_TOL
    for row in Xt[1:]:
        mask &= row >= -FEAS_TOL
    return Xt.T if mask.all() else Xt.T[mask]


def _grid_for(C, step):
    if step not in C.cached_grids:
        C.cached_grids[step] = _read_only(_intrinsic_grid(C, step))
    return C.cached_grids[step]


def _follower_points(problem, grid_step):
    """(points, kind) the argmin set is read from: the vertices of C when h is
    linear in x ("vertex_face"), else the x grid of C ("grid_cloud")."""
    C = problem.follower_set
    if problem.follower_objective.structure == LINEAR:
        return enumerate_vertices(C), "vertex_face"
    return _grid_for(C, grid_step), "grid_cloud"


def exact_lower_set(problem: BilevelProblem, y, tol=1e-8,
                    grid_step=1e-3) -> LowerSetDescription:
    """The follower argmin set at fixed y, described exactly or on a grid.

    A follower objective that is linear (or constant) in x attains its
    minimum on a face; the description is that face's vertex set. Other
    objectives fall back to a dense grid cloud of near-minimal points.
    Membership uses the hybrid cutoff tol * (1 + |min|), so tol must be
    finite and nonnegative (a NaN would keep no point); grid_step must be
    positive and finite (an infinite step grids one point). A minimum
    that is not finite raises ProblemError.
    """
    require_finite("grid_step", grid_step, positive=True)
    require_finite("tol", tol)
    y = np.asarray(y, dtype=float)
    X, many = _follower_points(problem, grid_step)
    vals = problem.follower_objective.batch(y, X)
    m = float(vals.min())
    if not math.isfinite(m):
        raise ProblemError(f"follower objective is {m} at y = {y.tolist()} on C")
    pts = X[vals <= m + tol * (1.0 + abs(m))]
    kind = "single_point" if len(pts) == 1 else many
    return LowerSetDescription(kind=kind, points=pts, value=m)


def pessimistic_select(problem: BilevelProblem, y, tol=1e-8,
                       grid_step=1e-3) -> PessimisticResponse:
    """Worst-case follower response: minimize the squared leader objective
    over the exact follower argmin set."""
    y = np.asarray(y, dtype=float)
    return _worst_response(problem, penalized_field(problem, 1.0), y,
                           exact_lower_set(problem, y, tol=tol, grid_step=grid_step))


def _worst_response(problem, penalized, y, desc) -> PessimisticResponse:
    """Minimize the squared leader objective at y over the lower set desc: on
    a grid, at its first point of least finite square; on a vertex face, by
    Frank-Wolfe on penalized = h + f^2, as h is constant there."""
    f = problem.leader_objective
    if desc.kind == "single_point":
        x = desc.points[0]
        return PessimisticResponse(x=x, value=float(f.evaluate(y, x)))
    if desc.kind == "vertex_face":
        section = penalized.fix(y)
        x = _fw_best(section, vertex_lmo(desc.points), desc.points,
                     tol=1e-12, max_iter=500)[0]
        return PessimisticResponse(x=x, value=float(f.evaluate(y, x)))
    fvals = f.batch(y, desc.points)
    i = int(np.argmin(fvals ** 2))
    if not math.isfinite(fvals[i] ** 2):  # a NaN wins np.argmin
        i = int(np.argmin(np.where(np.isfinite(fvals), fvals ** 2, np.inf)))
    return PessimisticResponse(x=desc.points[i], value=float(fvals[i]))


def _leader_grid(K, step, budget_points):
    """The leader grid as the (N, K.dim) transpose of one array with a row
    per axis, and the realized per-axis spacing. The per-axis counts are
    coarsened to the budget before any axis is built, so a subnormal step
    coarsens like any tiny one. Axes of 3 points or fewer are kept, so the
    others shrink by the root of the overrun over their own number."""
    spans = (K.upper - K.lower).tolist()  # float division overflows to inf quietly
    counts = [_axis_count(span, step) for span in spans]
    total = math.prod(counts)
    if total > budget_points:
        shrinkable = max(1, sum(k > 3 for k in counts))
        scale = (budget_points / total) ** (1.0 / shrinkable)
        counts = [k if k <= 3 else max(3, int(k * scale)) for k in counts]
    axes = [np.linspace(lo, hi, int(k)) for lo, hi, k in zip(K.lower, K.upper, counts)]
    spacing = max((a[1] - a[0] for a in axes if len(a) > 1), default=step)
    grid = np.empty((K.dim, math.prod(map(len, axes))))
    _write_mesh(grid, range(K.dim), axes)
    return grid.T, float(spacing)


def solve_three_level(problem: BilevelProblem, y_grid_step=1e-3, tol=1e-8,
                      x_grid_step=1e-3) -> OracleSolution:
    """Maximize the worst-case leader value over a leader grid.

    The leader grid gets GRID_EVAL_GUARD // len(X) points, at least 3,
    charging each leader point a full scan of X (the follower's grid or
    vertices) though the y-free path below scans X once: QB at default
    steps gets 9 points, 0.125 apart. A compass polish at y_grid_step/10
    recovers the stated accuracy; ProblemError if no leader value is finite.
    Guarded to two leader dimensions. Steps positive and finite, tol finite
    and nonnegative: all three are checked before any grid is built.
    A follower objective given as an expression that does not read y has
    one argmin set for every leader point: it is computed once.
    """
    require_finite("y_grid_step", y_grid_step, positive=True)
    require_finite("x_grid_step", x_grid_step, positive=True)
    require_finite("tol", tol)
    K = problem.leader_set
    if K.dim > 2:
        raise DimensionGuardError("three-level oracle guarded to <= 2 leader dims")
    h = problem.follower_objective
    X, kind = _follower_points(problem, x_grid_step)
    method = "face_enum" if kind == "vertex_face" else "grid"

    desc = None
    if h.expression is not None and not ex.uses_y(ex.parse(h.expression)):
        desc = exact_lower_set(problem, K.lower, tol=tol, grid_step=x_grid_step)
        penalized = penalized_field(problem, 1.0)

    def evaluate(y):
        response = (pessimistic_select(problem, y, tol=tol, grid_step=x_grid_step)
                    if desc is None else
                    _worst_response(problem, penalized, np.asarray(y, dtype=float), desc))
        return response.value, response

    budget_points = max(3, GRID_EVAL_GUARD // max(1, len(X)))
    grid, spacing = _leader_grid(K, y_grid_step, budget_points)
    best = (grid[0], *evaluate(grid[0]))
    for y in grid[1:]:
        value, response = evaluate(y)
        if _improves(value, best[1]):
            best = (y, value, response)
    resolution = y_grid_step / 10.0
    steps = np.full(K.dim, max(spacing, 10 * resolution))
    best, evals, _ = _compass_climb(evaluate, K, (best[0].copy(), *best[1:]), steps,
                                    min_step=resolution, max_evals=500)
    y_best, _, response = _require_finite_best(best, len(grid) + evals)
    return OracleSolution(
        problem=problem.name, y=y_best, x=response.x, method=method, resolution=resolution,
        leader_value=float(problem.leader_objective.evaluate(y_best, response.x)),
        follower_value=float(h.evaluate(y_best, response.x)))


def gap_table(oracle: OracleSolution, trace) -> list:
    """Pair each trace epsilon with the oracle-vs-trace leader value gap."""
    if oracle.problem != trace.problem:
        raise ValueError(
            f"oracle is for {oracle.problem!r} but trace is for {trace.problem!r}")
    return [(r.epsilon, oracle.leader_value - r.v) for r in trace.rows]
