"""Exact LP and convex minimization over the follower polytope.

Two primitives power everything downstream: a two-phase simplex with
Bland's rule (the linear minimization oracle over C) and pairwise
Frank-Wolfe for convex objectives, which needs only that oracle and
converges linearly on polytopes. Vertex enumeration supports multistarts,
brute-force oracles, and fast linear minimization on small polytopes (the
minimum of a linear function over a bounded polytope is attained at a
vertex, so the cached vertex list is an exact oracle). The package's one
sampler of C (_feasible_points: vertices, then seeded Dirichlet
mixtures), one Frank-Wolfe run (_fw_run), one best-of-runs loop
(_fw_best) and one rank rule (independent_rows, a numpy QR with column
pivoting) live here.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import simplex
from .model import (LINEAR, QUADRATIC, DimensionGuardError, FEAS_TOL, FieldSection, Polytope,
                    _read_only)

VERTEX_DIM_GUARD = 12
RANK_TOL = 1e-10  # singular-value cutoff of independent_rows
_DEDUP_DECIMALS = 8


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float
    basis: tuple
    status: str


@dataclass(frozen=True)
class FwSolution:
    x: np.ndarray
    value: float
    fw_gap: float
    iterations: int


def lp_minimize(c, C: Polytope) -> LpSolution:
    """Minimize <c, x> over C with the two-phase Bland simplex.

    For a validated polytope the result is always an optimal vertex;
    infeasible/unbounded statuses can only appear if the polytope
    invariants were bypassed.
    """
    c = np.asarray(c, dtype=float)
    x, value, basis, status = simplex.solve(c, C.A, C.b)
    return LpSolution(x=x, value=value, basis=basis, status=status)


def independent_rows(A):
    """Indices of a maximal linearly independent subset of rows, at RANK_TOL."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rank = np.linalg.matrix_rank(A, tol=RANK_TOL)
    if rank == A.shape[0]:
        return list(range(A.shape[0]))
    return _pivot_columns(A.T, rank)


def _pivot_columns(M, k):
    """The first k columns that a Householder QR with column pivoting
    (Businger & Golub, Numer. Math. 7 (1965) 269-276) picks from M, sorted.
    Each step takes the column of largest remaining norm, the first on ties,
    with the norms recomputed at every step, not downdated."""
    R = np.array(M, dtype=float)
    order = list(range(R.shape[1]))
    for j in range(k):
        p = j + int(np.argmax(np.linalg.norm(R[j:, j:], axis=0)))
        R[:, [j, p]] = R[:, [p, j]]
        order[j], order[p] = order[p], order[j]
        v = R[j:, j].copy()
        v[0] += math.copysign(np.linalg.norm(v), v[0])
        R[j:, j:] -= np.outer(v, (2.0 / (v @ v)) * (v @ R[j:, j:]))
    return sorted(order[:k])


def enumerate_vertices(C: Polytope) -> np.ndarray:
    """All basic feasible solutions of C, deduplicated; caches the result.

    Guarded to dim <= 12 since enumeration walks every column subset.
    """
    if C.cached_vertices is not None:
        return C.cached_vertices
    n = C.dim
    if n > VERTEX_DIM_GUARD:
        raise DimensionGuardError(
            f"vertex enumeration guarded to dim <= {VERTEX_DIM_GUARD}, got {n}")
    rows = independent_rows(C.A)
    A = C.A[rows]
    b = C.b[rows]
    r = len(rows)
    seen = {}
    for cols in combinations(range(n), r):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if xb.min() < -FEAS_TOL:
            continue
        v = np.zeros(n)
        v[list(cols)] = xb
        np.maximum(v, 0.0, out=v)
        if np.max(np.abs(C.A @ v - C.b)) > FEAS_TOL:
            continue
        key = tuple(np.round(v, _DEDUP_DECIMALS))
        if key not in seen:
            seen[key] = v
    V = np.array(sorted(seen.values(), key=tuple))
    object.__setattr__(C, "cached_vertices", _read_only(V))
    return V


def vertex_lmo(V):
    """Exact linear minimization oracle backed by an explicit vertex list."""
    V = np.asarray(V, dtype=float)

    def lmo(g):
        return V[(V @ g).argmin()]

    return lmo


def _simplex_lmo(C):
    def lmo(g):
        sol = lp_minimize(g, C)
        if sol.status != "optimal":
            raise RuntimeError(f"linear oracle failed with status {sol.status}")
        return sol.x
    return lmo


def _feasible_points(V, n, seed):
    """n points of the polytope with vertex array V: the vertices in order,
    then Dirichlet mixtures of all of them drawn from default_rng(seed), so
    seed is an int or a Generator, which is touched only when n > len(V)."""
    if n <= len(V):
        return V[:n]
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(len(V)), size=n - len(V))
    return np.vstack([V, W @ V])


def _finite_or_inf(v):
    return v if math.isfinite(v) else math.inf


def _fw_run(section, lmo, x0, tol, max_iter):
    """One pairwise Frank-Wolfe run from x0 (Lacoste-Julien & Jaggi, NeurIPS
    2015). x is a convex combination of atoms (x0, then oracle vertices);
    each step moves weight from the away atom a (the active atom with the
    largest g'a) to the oracle vertex v, at most all of a's weight, exactly
    along v - a for fields at most quadratic in x, by Armijo otherwise.
    A step that keeps the active set is followed by _newton_on_atoms.
    Atoms never move, so each atom's gradient is computed once per run.

    Returns (x, value, gap, iterations), gap = g'(x - v). A run whose gap
    reaches tol returns that point, unless it met a point lower by more
    than the gap (only on a nonconvex section). Otherwise it returns the
    first point of lowest value met; every oracle vertex is evaluated, so
    that value never exceeds the value at a vertex the run visited.
    Non-finite values and gaps count as +inf: the run stops at its first
    such gap, and one that met no finite value returns inf with gap inf.
    """
    exact_steps = section.structure in (LINEAR, QUADRATIC)
    x = np.array(x0, dtype=float)
    atoms, weights = {x.tobytes(): x.copy()}, {x.tobytes(): 1.0}
    grads = {}  # atom key -> gradient at that atom, filled as needed
    fx = _finite_or_inf(section.value(x))
    best_x, best_val, best_gap = x.copy(), fx, None
    iters = 0
    for iters in range(1, max_iter + 1):
        g = section.grad(x)
        if iters == 1:
            grads[x.tobytes()] = g
        v = lmo(g)
        gap = _finite_or_inf(float(g @ (x - v)))
        if (fx < best_val or (fx == best_val and best_gap is None)
                or (gap <= tol and fx <= best_val + gap)):
            best_x, best_val, best_gap = x.copy(), fx, gap
        if gap <= tol or gap == math.inf:
            break
        f_v = _finite_or_inf(section.value(v))
        if f_v < best_val:
            best_x, best_val, best_gap = v.copy(), f_v, None
        if len(atoms) == 1:  # x is the only atom: a vanilla step, which ends at v
            (away,) = atoms
            cap, d, slope, x_cap, f_cap = weights[away], v - x, -gap, v, f_v
        else:
            away = max(atoms, key=lambda k: g @ atoms[k])
            cap, d = weights[away], v - atoms[away]
            slope = float(g @ d)  # <= -gap < 0
            x_cap = x + cap * d
            f_cap = _finite_or_inf(section.value(x_cap))
        if exact_steps:
            curv = f_cap - fx - slope * cap  # cap^2 times the curvature along d
            gamma = cap if curv <= 1e-16 else min(cap, -slope * cap * cap / (2.0 * curv))
            f_new = f_cap if gamma == cap else None
        else:
            gamma, f_new = cap, f_cap
            while gamma > 1e-13 and not f_new <= fx + 1e-4 * gamma * slope:
                gamma *= 0.5
                f_new = _finite_or_inf(section.value(x + gamma * d))
            if not f_new <= fx + 1e-4 * gamma * slope:
                break  # no sufficient decrease left: numerically stationary
        x = x_cap if gamma == cap else x + gamma * d
        fx = f_new if f_new is not None else _finite_or_inf(section.value(x))
        weights[away] -= gamma
        if gamma == cap:
            del atoms[away], weights[away]
        key = v.tobytes()
        kept = key in atoms and gamma < cap
        atoms[key] = v
        weights[key] = weights.get(key, 0.0) + gamma
        if kept and len(atoms) > 2:
            x, fx = _newton_on_atoms(section, atoms, weights, grads, x, fx)
    if best_val == math.inf:
        best_gap = math.inf
    elif best_gap is None:
        g = section.grad(best_x)
        v = lmo(g)
        best_gap = _finite_or_inf(float(g @ (best_x - v)))
    return best_x, best_val, best_gap, iters


def _newton_on_atoms(section, atoms, weights, grads, x, fx):
    """A Newton step in the atoms' weights, cut where a weight reaches 0
    (that atom leaves), kept if it lowers the value. Pairwise steps zigzag
    on ill-conditioned faces; on a quadratic section this step lands on the
    minimum over the atoms' hull. Hessian products are gradient differences
    between the atoms, which lie in C (a secant model on other sections).
    grads caches the atoms' gradients across calls; an atom missing from it
    gets its gradient here."""
    keys = list(atoms)
    for k in keys:
        if k not in grads:
            grads[k] = section.grad(atoms[k])
    A, w = np.array([atoms[k] for k in keys]), np.array([weights[k] for k in keys])
    G, D = np.array([grads[k] for k in keys]), A[1:] - A[0]
    M, r = D @ (G[1:] - G[0]).T, -(D @ section.grad(x))
    if not (np.isfinite(M).all() and np.isfinite(r).all()):
        return x, fx
    t = np.linalg.lstsq(M, r, rcond=None)[0]
    dw = np.concatenate(([-t.sum()], t))
    ratios = [-wk / dk if dk < 0 else math.inf for wk, dk in zip(w, dw)]
    j = int(np.argmin(ratios))
    alpha = min(1.0, ratios[j])
    x_new = x + alpha * (t @ D)
    f_new = _finite_or_inf(section.value(x_new))
    if not f_new < fx:
        return x, fx
    w = w + alpha * dw
    if alpha == ratios[j]:
        w[j] = 0.0  # the blocking atom leaves exactly
    for k, wk in zip(keys, w):
        weights[k] = float(wk)
        if wk <= 0.0:
            del atoms[k], weights[k]
    return x_new, f_new


def _fw_best(section, lmo, starts, tol, max_iter):
    """(x, value, gap, runs, iterations) of the best multistart run: the
    lowest value, the earliest start on ties. On a convex section the first
    run with gap <= tol is a certified minimum, so no later start is run."""
    best, total = None, 0
    for runs, x0 in enumerate(starts, 1):
        x, val, gap, iters = _fw_run(section, lmo, x0, tol, max_iter)
        total += iters
        if best is None or val < best[1]:
            best = (x, val, gap)
        if section.convex_in_x and gap <= tol:
            break
    return (*best, runs, total)


def _project_start(start, C):
    """start if it lies in C, else (also for start=None) a phase-1 vertex."""
    if start is not None and C.contains(start):
        return np.asarray(start, dtype=float)
    x, status = simplex.feasible_point(C.A, C.b)
    if status != "optimal":
        raise RuntimeError("polytope infeasible")
    return x


def frank_wolfe_minimize(section: FieldSection, C: Polytope, tol=1e-8, max_iter=2000,
                         start=None) -> FwSolution:
    """Minimize a convex section over C by Frank-Wolfe.

    section is a FieldSection, a field already fixed at some y (for a
    ScalarField, pass field.fix(y)). The linear oracle is the vertex
    list of C up to dim 12 and the simplex above. With an explicit
    start the run is single-start (infeasible starts are replaced by a
    phase-1 vertex); with start=None the search restarts from the
    vertices of C in turn (above dim 12, from one phase-1 vertex) and
    keeps the best point, stopping at the first certified run of a convex
    section, which is also how the selection layer drives it. fw_gap is the
    linear-oracle duality gap at the returned point; for convex sections it
    bounds value minus the true minimum.

    Non-convergence is not an exception: the result carries fw_gap > tol
    when max_iter ran out first.
    """
    V = enumerate_vertices(C) if C.dim <= VERTEX_DIM_GUARD else None
    lmo = _simplex_lmo(C) if V is None else vertex_lmo(V)
    starts = V if start is None and V is not None else [_project_start(start, C)]
    x, value, gap, _, total = _fw_best(section, lmo, starts, tol, max_iter)
    return FwSolution(x=x, value=float(value), fw_gap=float(gap), iterations=total)
