"""Two-phase tableau simplex for min c'x s.t. Ax = b, x >= 0.

Pivot selection follows Bland's rule throughout (entering variable:
smallest index with negative reduced cost; leaving variable: ratio test
with smallest basic index on ties), which guarantees termination on
degenerate problems. Everything is dense numpy; intended for the small
polytopes this package works with.
"""

import numpy as np

_PIVOT_TOL = 1e-10


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_iterate(T, basis, ncols):
    """Run simplex pivots on tableau T (last row = objective, last col = rhs).

    Returns "optimal" or "unbounded". Only the first `ncols` columns are
    eligible to enter the basis.
    """
    m = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best_ratio, best_basic = -1, np.inf, None
        for i in range(m):
            a = T[i, enter]
            if a > _PIVOT_TOL:
                ratio = T[i, -1] / a
                if (ratio < best_ratio - _PIVOT_TOL or
                        (abs(ratio - best_ratio) <= _PIVOT_TOL and
                         (best_basic is None or basis[i] < best_basic))):
                    leave, best_ratio, best_basic = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def _phase1(A, b):
    """Find a basic feasible solution of {Ax = b, x >= 0}.

    Returns (tableau, basis, status) where the tableau's real columns are
    0..n-1 and redundant rows have been removed. status is "optimal" or
    "infeasible".
    """
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # tableau columns: n real + m artificial + rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(n, n + m))

    _bland_iterate(T, basis, n + m)
    if T[-1, -1] < -1e-8:
        return None, None, "infeasible"

    # Drive remaining artificials out of the basis or drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(T, basis, i, pivot_col)
                keep.append(i)
            # else: redundant row, drop it
        else:
            keep.append(i)
    rows = keep + [m]
    T = T[np.ix_(rows, list(range(n)) + [n + m])]
    basis = [basis[i] for i in keep]
    return T, basis, "optimal"


def _basic_solution(T, basis, n):
    """The basic solution of tableau T in R^n, clipped at 0 (-0.0, round-off dust)."""
    x = np.zeros(n)
    x[basis] = T[:len(basis), -1]
    return np.maximum(x, 0.0, out=x)


def solve(c, A, b):
    """Minimize c'x over {Ax = b, x >= 0}.

    Returns (x, value, basis, status) with status in
    {"optimal", "unbounded", "infeasible"}. On success x is a basic
    feasible solution (a vertex when the feasible set is a polytope).
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    T, basis, status = _phase1(A, b)
    if status == "infeasible":
        return None, np.nan, (), "infeasible"

    m = T.shape[0] - 1
    # rebuild objective row for phase 2
    T[-1, :n] = c
    T[-1, -1] = 0.0
    for i in range(m):
        if c[basis[i]] != 0.0:
            T[-1] -= c[basis[i]] * T[i]

    status = _bland_iterate(T, basis, n)
    if status == "unbounded":
        return None, -np.inf, (), "unbounded"

    x = _basic_solution(T, basis, n)
    return x, float(np.dot(c, x)), tuple(sorted(basis)), "optimal"


def feasible_point(A, b):
    """Phase-1 only: return (x, status) with x a basic feasible solution."""
    T, basis, status = _phase1(A, b)
    if status == "infeasible":
        return None, "infeasible"
    return _basic_solution(T, basis, np.shape(A)[1]), "optimal"
