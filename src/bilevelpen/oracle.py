"""Brute-force ground truth for the nested problem, independent of the solver.

The exact follower argmin set is described by the vertices of a face:
of C's optimal face when the follower objective is linear or constant in
x, of the argmin face S = {x in C : Qx = Qx*, c'x = c'x*} (Mangasarian,
Oper. Res. Lett. 7 (1988) 21-26) when it is a convex quadratic that reads
no y. Any other follower's argmin set is a dense grid cloud on the
intrinsic coordinates of C (slack variables eliminated). The worst-case
response minimizes the squared leader objective over that description (on
a vertex face by the package's one best-of-runs Frank-Wolfe loop,
lower_solver._fw_best), and the three-level oracle maximizes the
resulting value over a leader grid, polished by the one compass search,
upper_solver._compass_climb. On the face of a follower that reads no y, a
leader objective linear in x and positive at every face vertex is worst
at its vertex of least value, so the oracle scores whole chunks of the
leader grid with one batch (_worst_rows). Oracle values certify the
penalty solver's convergence and error rates.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import expressions as ex
from .model import (LINEAR, QUADRATIC, BilevelProblem, DimensionGuardError, FEAS_TOL,
                    Polytope, ProblemError, _read_only, require_finite)
from .lower_solver import (VERTEX_DIM_GUARD, _fw_best, enumerate_vertices,
                           frank_wolfe_minimize, independent_rows, lp_minimize,
                           vertex_lmo)
from .selection import _leader_point, penalized_field
from .upper_solver import _LATTICE, _compass_climb, _improves, _require_finite_best

GRID_DIM_GUARD = 4
GRID_EVAL_GUARD = 10 ** 7
FACE_GAP = 1e-12     # the Frank-Wolfe gap at which x* defines the argmin face
SCAN_ROWS = 2 ** 16  # (leader point, face vertex) rows per f.batch of the leader scan


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

    Picks a well-conditioned basic column set, the columns of A that
    independent_rows keeps (a QR with column pivoting), bounds each
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
    basic = independent_rows(A.T)
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


def _argmin_face(problem):
    """(V, m): the vertices V of the argmin set S of a convex quadratic
    follower h = x'Qx/2 + c'x + d that reads no y (by _reads_y), and m, a
    lower bound on its minimum over C; (None, None) where S is not taken.
    Cached on problem.

    S = {x in C : Qx = Qx*, c'x = c'x*} for any minimizer x* of h over C
    (Mangasarian, Oper. Res. Lett. 7 (1988) 21-26): a polytope on which h
    is constant. x* comes from Frank-Wolfe, and S is taken only if x*
    certifies at a gap of FACE_GAP and S is non-empty; m is h(x*) minus
    that gap. S's vertices are those of the rows of [A; Q; c'] that
    independent_rows keeps, so dim_x is guarded like C's own vertices.
    """
    if problem.cached_face is None:
        object.__setattr__(problem, "cached_face", _face_of(problem))
    return problem.cached_face


def _reads_y(h):
    """Whether the follower objective h may read y: its expression has a
    y[i] leaf, or it has no expression to tell."""
    return h.expression is None or ex.uses_y(ex.parse(h.expression))


def _face_of(problem):
    h, C = problem.follower_objective, problem.follower_set
    if not (h.structure == QUADRATIC and h.convex_in_x and C.dim <= VERTEX_DIM_GUARD
            and h.coefficients is not None) or _reads_y(h):
        return None, None
    y = np.zeros(problem.dim_y)  # any y: h reads none
    sol = frank_wolfe_minimize(h.fix(y), C, tol=FACE_GAP)
    if not sol.fw_gap <= FACE_GAP:
        return None, None
    Q, c, _ = h.coefficients(y)
    M = np.vstack([C.A, Q, c])
    rows = independent_rows(M)
    rhs = np.concatenate([C.b, Q @ sol.x, [c @ sol.x]])
    try:
        V = enumerate_vertices(Polytope(A=M[rows], b=rhs[rows]))
    except ProblemError:  # S is empty, or its data is not finite
        return None, None
    return (V, sol.value - sol.fw_gap) if len(V) else (None, None)


def _follower_points(problem, grid_step, tol):
    """(points, kind) the argmin set is read from: the vertices of C when h is
    linear in x, those of _argmin_face when every one of them lies in
    exact_lower_set's band of tol about the face's minimum ("vertex_face"),
    else the x grid of C ("grid_cloud")."""
    C, h = problem.follower_set, problem.follower_objective
    if h.structure == LINEAR:
        return enumerate_vertices(C), "vertex_face"
    V, m = _argmin_face(problem)
    if V is not None and (h.batch(np.zeros(problem.dim_y), V) <= m + tol * (1.0 + abs(m))).all():
        return V, "vertex_face"
    return _grid_for(C, grid_step), "grid_cloud"


@np.errstate(all="ignore")  # a non-finite minimum raises below
def exact_lower_set(problem: BilevelProblem, y, tol=1e-8,
                    grid_step=1e-3) -> LowerSetDescription:
    """The follower argmin set at fixed y, described exactly or on a grid.

    A follower objective that is linear (or constant) in x, or a convex
    quadratic that reads no y, attains its minimum on a face; the
    description is that face's vertex set (see _follower_points). Other
    objectives fall back to a dense grid cloud of near-minimal points.
    Membership uses the hybrid cutoff tol * (1 + |min|), so tol must be
    finite and nonnegative (a NaN would keep no point); grid_step must be
    positive and finite (an infinite step grids one point). ValueError
    unless y is a point of the leader box; a minimum that is not finite
    raises ProblemError.
    """
    require_finite("grid_step", grid_step, positive=True)
    require_finite("tol", tol)
    y = _leader_point(problem, y)
    X, many = _follower_points(problem, grid_step, tol)
    vals = problem.follower_objective.batch(y, X)
    m = float(vals.min())
    if not math.isfinite(m):
        raise ProblemError(f"follower objective is {m} at y = {y.tolist()} on C")
    pts = X[vals <= m + tol * (1.0 + abs(m))]
    kind = "single_point" if len(pts) == 1 else many
    return LowerSetDescription(kind=kind, points=pts, value=m)


@np.errstate(all="ignore")
def pessimistic_select(problem: BilevelProblem, y, tol=1e-8,
                       grid_step=1e-3) -> PessimisticResponse:
    """Worst-case follower response: minimize the squared leader objective
    over the exact follower argmin set; ValueError unless y is a point of
    the leader box."""
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
    i = _first_best(-(fvals ** 2))
    return PessimisticResponse(x=desc.points[i], value=float(fvals[i]))


def _worst_rows(problem, Y, respond, face=None):
    """(values, X): the worst leader value at each leader point of Y
    (m, dim_y) and the response x there, as rows of arrays.

    face, if given, holds the vertices of the argmin face, and f must be
    linear in x. Where f is finite and positive at every vertex, f^2 grows
    with f on the face's hull, so the worst response is the first vertex
    of least f, as Frank-Wolfe from face[0] breaks ties: one f.batch over
    the (leader point, vertex) rows scores them all. Every other point
    takes respond(y), a PessimisticResponse.
    """
    m = len(Y)
    values, X = np.empty(m), np.empty((m, problem.dim_x))
    rest = range(m)
    if face is not None:
        f = problem.leader_objective
        F = f.batch(np.repeat(Y, len(face), axis=0), np.tile(face, (m, 1))).reshape(m, len(face))
        pick = F.argmin(axis=1)
        values[:], X[:] = F[np.arange(m), pick], face[pick]
        rest = np.flatnonzero(~((F > 0.0) & (F < math.inf)).all(axis=1))  # a NaN fails F > 0
    for i in rest:
        response = respond(Y[i])
        values[i], X[i] = response.value, response.x
    return values, X


def _first_best(values):
    """Index of the first highest finite value, 0 if none is finite: the
    point a scan in order keeps by upper_solver._improves."""
    finite = np.isfinite(values)
    return int(np.argmax(np.where(finite, values, -np.inf))) if finite.any() else 0


def _leader_grid(K, step, budget_points):
    """The axes of the leader grid and the realized per-axis spacing; the
    grid is their product, which _grid_rows builds a run of points at a
    time. The per-axis counts are coarsened to the budget before any axis
    is built, so a subnormal step coarsens like any tiny one. Axes of 3
    points or fewer are kept, so the others shrink by the root of the
    overrun over their own number."""
    spans = (K.upper - K.lower).tolist()  # float division overflows to inf quietly
    counts = [_axis_count(span, step) for span in spans]
    total = math.prod(counts)
    if total > budget_points:
        shrinkable = max(1, sum(k > 3 for k in counts))
        scale = (budget_points / total) ** (1.0 / shrinkable)
        counts = [k if k <= 3 else max(3, int(k * scale)) for k in counts]
    axes = [np.linspace(lo, hi, int(k)) for lo, hi, k in zip(K.lower, K.upper, counts)]
    spacing = max((a[1] - a[0] for a in axes if len(a) > 1), default=step)
    return axes, float(spacing)


def _grid_rows(axes, start, stop):
    """Points start .. stop - 1 of the "ij" product of axes (the last axis
    fastest), as the (stop - start, len(axes)) transpose of one array with
    a row per axis. Each coordinate is an entry of its axis, so the points
    are those of the whole grid, bit for bit."""
    index = np.unravel_index(np.arange(start, stop), [len(values) for values in axes])
    out = np.empty((len(axes), stop - start))
    for row, values, i in zip(out, axes, index):
        np.take(values, i, out=row, mode="clip")  # i is in range; "raise" would buffer out
    return out.T


@np.errstate(all="ignore")  # non-finite values are handled where they arise
def solve_three_level(problem: BilevelProblem, y_grid_step=1e-3, tol=1e-8,
                      x_grid_step=1e-3) -> OracleSolution:
    """Maximize the worst-case leader value over a leader grid.

    A follower objective that reads no y (by _reads_y: a field without an
    expression may read y) has one argmin set for every leader point: it
    is computed once, and each leader point scans that set; any other
    computes the argmin set (a scan of the x grid or of the vertices) at
    every leader point by pessimistic_select. The leader grid gets
    GRID_EVAL_GUARD points over the size of that per-point scan, at least
    3: QB, whose argmin face has two vertices, gets 1,001 points at the
    default step. The grid is built and scored in chunks of SCAN_ROWS
    (leader point, vertex) rows by _grid_rows and _worst_rows, which
    batches a linear leader on a vertex face, so no more of it is held at
    once. A compass polish at y_grid_step/10, in strides of the largest
    span, recovers the stated accuracy in every coordinate, scored by the
    same scan; ProblemError if no leader value is finite.
    Guarded to two leader dimensions. Steps positive and finite, tol
    finite and nonnegative: all three are checked before any grid is
    built.
    """
    require_finite("y_grid_step", y_grid_step, positive=True)
    require_finite("x_grid_step", x_grid_step, positive=True)
    require_finite("tol", tol)
    K = problem.leader_set
    if K.dim > 2:
        raise DimensionGuardError("three-level oracle guarded to <= 2 leader dims")
    h = problem.follower_objective
    points, kind = _follower_points(problem, x_grid_step, tol)
    method = "face_enum" if kind == "vertex_face" else "grid"

    if _reads_y(h):
        scanned, face = len(points), None

        def respond(y):
            return pessimistic_select(problem, y, tol=tol, grid_step=x_grid_step)
    else:
        desc = exact_lower_set(problem, K.lower, tol=tol, grid_step=x_grid_step)
        penalized = penalized_field(problem, 1.0)
        scanned = len(desc.points)
        linear_face = desc.kind == "vertex_face" and problem.leader_objective.structure == LINEAR
        face = desc.points if linear_face else None

        def respond(y):
            return _worst_response(problem, penalized, y, desc)

    def scan(Y):
        return _worst_rows(problem, Y, respond, face)

    responses = {}  # y.tobytes() -> the response of y's first evaluation, the one a climb keeps

    def evaluate(y):
        values, X = scan(y[None])
        responses.setdefault(y.tobytes(), X[0])
        return float(values[0])

    axes, spacing = _leader_grid(K, y_grid_step, max(3, GRID_EVAL_GUARD // max(1, scanned)))
    size = math.prod(map(len, axes))
    chunk = max(1, SCAN_ROWS // max(1, scanned))
    best = None
    for start in range(0, size, chunk):
        Y = _grid_rows(axes, start, min(start + chunk, size))
        values, X = scan(Y)
        i = _first_best(values)
        if best is None or _improves(values[i], best[1]):
            best, x_best = (Y[i].copy(), float(values[i])), X[i].copy()
    resolution = y_grid_step / 10.0
    responses[best[0].tobytes()] = x_best
    span = float(np.max(K.upper - K.lower)) or 1.0  # a box of one point polls nothing
    stride = round(min(max(spacing, 10 * resolution) / span, 1.0) * _LATTICE)
    best, _, evals, _ = _compass_climb(evaluate, K, best, [stride] * K.dim, resolution / span, 500)
    y_best = _require_finite_best(best, size + evals)[0]
    x = responses[y_best.tobytes()]
    return OracleSolution(
        problem=problem.name, y=y_best, x=x, method=method, resolution=resolution,
        leader_value=float(problem.leader_objective.evaluate(y_best, x)),
        follower_value=float(h.evaluate(y_best, x)))


def gap_table(oracle: OracleSolution, trace) -> list:
    """Pair each trace epsilon with the oracle-vs-trace leader value gap."""
    if oracle.problem != trace.problem:
        raise ValueError(
            f"oracle is for {oracle.problem!r} but trace is for {trace.problem!r}")
    return [(r.epsilon, oracle.leader_value - r.v) for r in trace.rows]
