"""The penalized follower selection and the single-valued upper objective.

At fixed leader point y and penalty epsilon > 0 the follower solves

    min over x in C of  h(y, x) + sign * eps * f(y, x)^2

with sign = +1 for the worst-case (pessimistic) tie-break and sign = -1
for the best-case (optimistic) one. The leader objective is constant on
the argmin set, which makes y -> f(y, x(y)) single-valued; the constancy
check measures that property at runtime.
"""

from dataclasses import dataclass

import numpy as np

from .model import (GENERAL, LINEAR, QUADRATIC, BilevelProblem, DenseSection, ScalarField,
                    coefficient_reads, is_psd, require_finite, require_int)
from .lower_solver import _feasible_points, _fw_best, _fw_run, enumerate_vertices, vertex_lmo

PESSIMISTIC = +1
OPTIMISTIC = -1
FW_TOL = 1e-8       # a Frank-Wolfe run with gap <= FW_TOL is certified
FW_MAX_ITER = 2000  # Frank-Wolfe iterations per run
MAX_STARTS = 16     # selection runs from the first min(#vertices, MAX_STARTS) vertices


@dataclass(frozen=True)
class SelectionResult:
    y: np.ndarray
    epsilon: float
    sign: int
    x: np.ndarray
    leader_value: float
    follower_value: float
    penalized_value: float
    fw_gap: float
    n_starts: int  # runs made: a section convex at y stops at its first certified run

    @property
    def reliable(self):
        return self.fw_gap <= 1e-6


@dataclass(frozen=True)
class ConstancyReport:
    """Spread of the leader objective across near-optimal follower responses."""

    kappa: float
    spread: float
    witnesses: tuple  # (x, leader_value) pairs within tolerance of the best


def _require_sign(sign):
    """ValueError unless sign is the int +1 or -1 (True and 1.0 are not)."""
    if type(sign) is not int or sign not in (PESSIMISTIC, OPTIMISTIC):
        raise ValueError(f"sign must be the int +1 (pessimistic) or -1 (optimistic), "
                         f"got {sign!r}")


def penalized_field(problem: BilevelProblem, epsilon: float, sign: int = PESSIMISTIC) -> ScalarField:
    """The follower objective with the squared leader-objective penalty.

    Returns (y, x) -> h(y, x) + sign * eps * f(y, x)^2 with the exact
    composite gradient. The field is declared convex in x for every y
    only for the pessimistic sign when the leader objective's structure
    guarantees convexity of its square (linear, or convex with positive
    values). For f linear and h of degree <= 2 with coefficients, so is
    the result: with f = a'x + f0, it has Q_h + 2s*eps*aa', c_h +
    2s*eps*f0*a and d_h + s*eps*f0^2 (see _penalized_coefficients). A
    selection decides the convexity of such a field not declared convex
    from that Hessian (see _setup and _section).
    ValueError unless sign is the int +1 or -1.
    """
    require_finite("epsilon", epsilon, positive=True)
    _require_sign(sign)
    f = problem.leader_objective
    h = problem.follower_objective
    s_eps = float(sign) * float(epsilon)

    def evaluate(y, x):
        return h.evaluate(y, x) + s_eps * f.evaluate(y, x) ** 2

    def gradient_x(y, x):
        fv = f.evaluate(y, x)
        return (np.asarray(h.gradient_x(y, x), dtype=float)
                + 2.0 * s_eps * fv * np.asarray(f.gradient_x(y, x), dtype=float))

    coefficients = None
    if f.structure == LINEAR and h.structure in (LINEAR, QUADRATIC):
        structure = QUADRATIC
        if f.coefficients is not None and h.coefficients is not None:
            coefficients = _penalized_coefficients(f, h, s_eps)
    else:
        structure = GENERAL
    convex = (sign == PESSIMISTIC and h.convex_in_x
              and (f.structure == LINEAR or f.convex_in_x))
    return ScalarField(
        dim_y=f.dim_y, dim_x=f.dim_x,
        evaluate=evaluate, gradient_x=gradient_x,
        structure=structure, convex_in_x=convex,
        expression=None, coefficients=coefficients,
    )


def _penalized_coefficients(f, h, s_eps):
    """y -> (Q_h + 2s*eps*aa', c_h + 2s*eps*f0*a, d_h + s*eps*f0^2) of a
    linear leader f = a'x + f0 and a follower h of degree <= 2.

    h's (Q_h, c_h, d_h) are built once here when they read no y (by
    coefficient_reads: a hand-built callable without the record counts as
    reading y), and per call otherwise. aa' is a[:, None] * a, each entry
    the one product a_i * a_j, as np.outer computes it. The result records
    its reads_y: Q reads y when Q_h or a does, c when c_h, a or f0 does,
    and d when d_h or f0 does.
    """
    two_s_eps = 2.0 * s_eps
    f_reads, h_reads = coefficient_reads(f.coefficients), coefficient_reads(h.coefficients)
    fixed_h = None if h_reads else h.coefficients(np.zeros(f.dim_y))  # y is never read

    def coefficients(y):
        Qh, ch, dh = h.coefficients(y) if fixed_h is None else fixed_h
        _, a, f0 = f.coefficients(y)
        return Qh + two_s_eps * (a[:, None] * a), ch + two_s_eps * f0 * a, dh + s_eps * f0 * f0
    reads = {"Q": "Q" in h_reads or "c" in f_reads,
             "c": "c" in h_reads or not f_reads.isdisjoint("cd"),
             "d": "d" in h_reads or "d" in f_reads}
    coefficients.reads_y = frozenset(part for part, r in reads.items() if r)
    return coefficients


def _setup(problem, y, epsilon, sign):
    """(penalized field, its convexity, vertices V of C, vertex LMO,
    V[:MAX_STARTS]) of a selection, built once per (epsilon, sign) in
    problem.cached_selection; a problem is read-only, so nothing else can
    make that set-up stale. The sign is checked first, as the cache key
    (epsilon, 1) equals (epsilon, True).

    The convexity is True for a field declared convex. For one with
    coefficients whose Q reads no y it is is_psd(Q), decided once here at
    y, the leader point of the first selection; it is None for any other
    field, whose section _section decides at each y.
    """
    _require_sign(sign)
    cached = problem.cached_selection
    if cached is not None and cached[0] == (epsilon, sign):
        return cached[1]
    penalized = penalized_field(problem, epsilon, sign)
    convex = True if penalized.convex_in_x else None
    if (convex is None and penalized.coefficients is not None
            and "Q" not in penalized.coefficients.reads_y):
        convex = is_psd(penalized.coefficients(y)[0])
    V = enumerate_vertices(problem.follower_set)
    setup = (penalized, convex, V, vertex_lmo(V), V[:MAX_STARTS])
    object.__setattr__(problem, "cached_selection", ((epsilon, sign), setup))
    return setup


def _leader_point(problem, y):
    """y as a float array; ValueError unless it is a point of the leader box."""
    y = np.asarray(y, dtype=float)
    if not problem.leader_set.contains(y):
        raise ValueError(f"y={y} is outside the leader box")
    return y


def _section(problem, y, epsilon, sign):
    """y as an array, the penalized section at y and the rest of _setup.

    A field without coefficients is fixed as it is. Otherwise (Q, c, d)
    are built at y, with only the entries that read y evaluated, and the
    section is convex at y as _setup decided, or when Q(y) is PSD
    (is_psd) for a field whose Q reads y and is not declared convex. Such
    a field is optimistic: one with coefficients has a linear leader and a
    problem's follower is declared convex, so its pessimistic sign is
    declared convex and makes no PSD test. QB's optimistic Q_h - 2*eps*aa'
    reads y and is PSD at every y for eps <= 1/4; FS's -2*eps*aa' reads no
    y and is not PSD, which _setup decides once per (epsilon, sign).
    """
    y = _leader_point(problem, y)
    penalized, convex, *rest = _setup(problem, y, epsilon, sign)
    if penalized.coefficients is None:
        return y, penalized.fix(y), *rest
    Q, c, d = penalized.coefficients(y)
    convex = is_psd(Q) if convex is None else convex
    return y, DenseSection(Q, c, d, penalized.structure, convex), *rest


def select_response(problem: BilevelProblem, y, epsilon: float,
                    sign: int = PESSIMISTIC) -> SelectionResult:
    """Solve the penalized follower problem at fixed y.

    Pairwise Frank-Wolfe from the first min(#vertices, MAX_STARTS)
    polytope vertices in turn; the lowest penalized value wins, ties
    broken by start order. A section convex at y (see _section) stops at
    its first run with gap <= FW_TOL, a certified minimum; one that is not
    runs every start. n_starts in the result counts the runs made. An
    uncertified result is not an error: its fw_gap > FW_TOL marks it
    unreliable. The penalized field, its y-free coefficients and convexity,
    the vertices, the LMO and the starts are built once per (problem,
    epsilon, sign) (see _setup); each call fixes the field at y and runs
    Frank-Wolfe.
    """
    y, section, _, lmo, starts = _section(problem, y, epsilon, sign)
    x, _, gap, runs, _ = _fw_best(section, lmo, starts, FW_TOL, FW_MAX_ITER)
    f = problem.leader_objective
    h = problem.follower_objective
    fv = f.evaluate(y, x)
    hv = h.evaluate(y, x)
    return SelectionResult(
        y=y, epsilon=float(epsilon), sign=sign, x=x,
        leader_value=float(fv), follower_value=float(hv),
        penalized_value=float(hv + sign * epsilon * fv ** 2),
        fw_gap=float(gap), n_starts=runs,
    )


def constancy_check(problem: BilevelProblem, y, epsilon: float,
                    n_starts: int = 16, seed: int = 0) -> ConstancyReport:
    """Measure how constant the leader objective is on the argmin set.

    Runs n_starts independent pessimistic solves (distinct vertices
    first, then interior points seeded by seed), keeps every run whose
    penalized value lies within FW_TOL of the best, and reports the
    max-min spread of the leader objective over those runs. A spread
    near zero realizes the constant-on-argmin property even when the
    minimizers form a nontrivial face. Before any solve, ValueError naming
    the argument unless n_starts is an integer >= 8 and seed one >= 0
    (numpy integers count, bools do not).
    """
    require_int("n_starts", n_starts, 8)
    require_int("seed", seed, 0)
    y, section, V, lmo, _ = _section(problem, y, epsilon, PESSIMISTIC)
    runs = [_fw_run(section, lmo, x0, FW_TOL, FW_MAX_ITER)
            for x0 in _feasible_points(V, n_starts, seed)]
    best = min(range(len(runs)), key=lambda i: runs[i][1])
    kept = [i for i, r in enumerate(runs) if r[1] <= runs[best][1] + FW_TOL]
    xs = [runs[i][0] for i in kept]
    leaders = [float(v) for v in problem.leader_objective.batch(y, np.array(xs))]
    return ConstancyReport(kappa=leaders[kept.index(best)],
                           spread=max(leaders) - min(leaders),
                           witnesses=tuple(zip(xs, leaders)))
