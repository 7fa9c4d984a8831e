"""Problem data types, standing-assumption validation, and the built-in problems.

A bilevel instance bundles a leader objective f(y, x) to be maximized, a
follower objective h(y, x) minimized over a polytope C at fixed y, a box
K for the leader variable, and the polytope C = {x : Ax = b, x >= 0} for
the follower. The leader objective must be strictly positive on K x C
and the follower objective convex in x; both assumptions are checked by
sampling rather than proved.
"""

from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import product
from typing import Callable, Optional, Sequence

import json
import math
import numbers
import numpy as np

from . import expressions as ex
from . import simplex

LINEAR = "linear_in_x"
QUADRATIC = "quadratic_in_x"
GENERAL = "general"

FEAS_TOL = 1e-9
PSD_TOL = 1e-9  # is_psd's eigenvalue tolerance, relative to max(1, ||Q||)
VALIDATION_SAMPLES = 500  # sampled (y, x) pairs per validate_problem check
VALIDATION_SEED = 0
CORNER_DIM_GUARD = 12  # leader dimensions whose 2**dim_y box corners _convex_on tests
_cache = partial(field, init=False, repr=False, compare=False)  # a field that only caches


class ProblemError(ValueError):
    """Base class for problem-construction failures."""


class EmptyFeasibleSetError(ProblemError):
    """The follower polytope {Ax = b, x >= 0} is empty."""


class UnboundedFeasibleSetError(ProblemError):
    """The follower polytope {Ax = b, x >= 0} is unbounded."""


class DimensionGuardError(ProblemError):
    """A combinatorial or grid guard was exceeded."""


class UnknownProblemError(KeyError):
    """Requested name is neither a built-in problem nor a file."""


def require_finite(name, value, positive=False):
    """Raise ValueError naming name unless value is a real number (a Python
    or numpy real, not a bool) with 0 <= value < inf (0 < value if positive)."""
    kind = "positive and finite" if positive else "finite and nonnegative"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a {kind} real number, got {value!r}")
    if not (0 < value if positive else 0 <= value) or not value < math.inf:
        raise ValueError(f"{name} must be {kind}, got {value}")


def require_int(name, value, minimum):
    """Raise ValueError unless value is an integer >= minimum: a Python or
    numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _read_only(a):
    """a, an array that no caller holds, with writing switched off."""
    a.flags.writeable = False
    return a


class ByValue:
    """Equality and hash by value for a frozen dataclass declared with
    eq=False that holds numpy arrays: its fields compare as a tuple, each
    array by its dtype, shape and bytes (so a NaN equals a NaN of the same
    bits), anything else by ==. The dataclass == raised ValueError on an
    array of more than one element."""

    __slots__ = ()

    def _value_key(self):
        return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self):
        return hash(self._value_key())


@dataclass(slots=True)
class FieldSection:
    """A scalar field with the leader variable frozen; function of x only."""

    value: Callable
    grad: Callable
    value_batch: Callable
    structure: str
    convex_in_x: bool


@dataclass(frozen=True)
class ScalarField:
    """A differentiable function (y, x) -> R with declared structure.

    evaluate maps (y, x) to a float; gradient_x returns the gradient in x.
    structure is one of {linear_in_x, quadratic_in_x, general} and
    convex_in_x declares convexity of x -> f(y, x) for every y. The
    declaration is trusted by the solvers and cross-checked by
    validate_problem. evaluate_batch, when given, evaluates a whole
    (N, dim_x) batch of x points at once, at one leader point of shape
    (dim_y,) or at one per row, y of shape (N, dim_y): a hand-built
    evaluate_batch must accept both (see batch). coefficients, when given,
    maps y to (Q, c, d) with f(y, x) = x'(Qx/2 + c) + d; fix then returns
    a section evaluated by dense linear algebra instead of evaluate. On a
    field built from an expression, evaluate and gradient_x take one point
    (float arrays, lists or tuples of shape (dim,)) and raise ValueError
    for any other shape; they run a point on Python floats with the bits
    and warnings of the numpy evaluation (see field_from_expression).
    """

    dim_y: int
    dim_x: int
    evaluate: Callable
    gradient_x: Callable
    structure: str = GENERAL
    convex_in_x: bool = False
    evaluate_batch: Optional[Callable] = None
    expression: Optional[str] = None
    coefficients: Optional[Callable] = None

    def batch(self, y, X):
        """Values at the rows of X (N, dim_x): all at the leader point y of
        shape (dim_y,), or row i at y[i] for y of shape (N, dim_y); ValueError
        for any other shape. Without evaluate_batch, evaluate runs once per
        row."""
        y, X = np.asarray(y, dtype=float), np.asarray(X, dtype=float)
        if (X.ndim != 2 or X.shape[1] != self.dim_x
                or y.shape not in ((self.dim_y,), (len(X), self.dim_y))):
            raise ValueError(f"batch takes y of shape ({self.dim_y},) or (N, {self.dim_y}) and "
                             f"X of shape (N, {self.dim_x}), got {y.shape} and {X.shape}")
        if self.evaluate_batch is not None:
            return np.asarray(self.evaluate_batch(y, X), dtype=float)
        Y = np.broadcast_to(y, (len(X), self.dim_y))
        return np.array([self.evaluate(yi, x) for yi, x in zip(Y, X)], dtype=float)

    def fix(self, y):
        """Freeze the leader variable, yielding a function of x alone;
        ValueError unless y has shape (dim_y,)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim_y,):
            raise ValueError(f"y must have shape (dim_y,) = ({self.dim_y},), got {y.shape}")
        if self.coefficients is not None:
            return DenseSection(*self.coefficients(y), self.structure, self.convex_in_x)
        return FieldSection(
            value=lambda x: float(self.evaluate(y, x)),
            grad=lambda x: np.asarray(self.gradient_x(y, x), dtype=float),
            value_batch=lambda X: self.batch(y, X),
            structure=self.structure,
            convex_in_x=self.convex_in_x,
        )


class DenseSection:
    """The section x -> x'(Qx/2 + c) + d, evaluated by dense linear algebra.

    It has the methods and attributes of a FieldSection; a search builds one
    per leader point, so it is one small object rather than three closures."""

    __slots__ = ("Q", "half_Q", "c", "d", "structure", "convex_in_x")

    def __init__(self, Q, c, d, structure, convex_in_x):
        self.Q, self.c, self.d = Q, c, d
        self.half_Q = 0.5 * Q  # scaling by 2 is exact: same bits as 0.5 * (Q @ x)
        self.structure, self.convex_in_x = structure, convex_in_x

    def value(self, x):
        return float(x @ (self.half_Q @ x + self.c) + self.d)

    def grad(self, x):
        return self.Q @ x + self.c

    def value_batch(self, X):
        return np.einsum("ij,ij->i", X, X @ self.half_Q + self.c) + self.d



def is_psd(Q):
    """Whether the symmetric matrix Q is finite and positive semidefinite: its
    least eigenvalue is >= -PSD_TOL * max(1, ||Q||), ||Q|| the spectral norm.
    It decides every convexity a selection tests; an optimistic section
    Q_h - 2*eps*aa' whose Q_h reads no y reaches it only outside the band
    of selection._downdate_test, which accepts the rest with one mat-vec."""
    if not np.isfinite(Q).all():
        return False
    w = np.linalg.eigvalsh(Q)
    return bool(w[0] >= -PSD_TOL * max(1.0, -w[0], w[-1]))


def field_from_expression(text, dim_y, dim_x):
    """Build a ScalarField from an expression string.

    Structure (linear/quadratic/general in x) is derived from the
    polynomial degree of the expression; gradients are symbolic. Fields
    of degree <= 2 carry their coefficients (see _quadratic_coefficients).
    Convexity in x is decided for degree <= 2 by a PSD test of the Hessian
    at 5 y drawn from U(-1, 2), or once if it reads no y (see _convex_on).

    evaluate and gradient_x take a y of shape (dim_y,) and an x of shape
    (dim_x,), as float arrays or sequences, to the float trees (see
    ex.compile_evaluator), and give the bits and RuntimeWarnings of the
    numpy trees: a point where the float trees raise ArithmeticError or a
    value is not finite runs the numpy trees again. A y or x of any other
    shape raises ValueError; batches go to evaluate_batch, which runs the
    numpy tree. Those numpy trees are compiled from text at the first point
    that needs them, so until then evaluate and gradient_x, and whatever
    keeps them (a certificate's membership test), hold only the float
    trees.
    """
    node = ex.parse(text)
    ex.check_indices(node, dim_y, dim_x)
    value_fn = ex.compile_evaluator(node)
    float_value = ex.compile_evaluator(node, floats=True)
    grad_nodes = [ex.diff_x(node, j) for j in range(dim_x)]
    float_grads = ex.compile_evaluators(grad_nodes, floats=True)

    degree = ex.degree_in_x(node)
    if degree is None or degree > 2:
        structure = GENERAL
    elif degree == 2:
        structure = QUADRATIC
    else:
        structure = LINEAR
    coefficients = (None if structure == GENERAL
                    else _quadratic_coefficients(node, grad_nodes))

    if structure == QUADRATIC:
        draws = 5 if "Q" in coefficients.reads_y else 1
        convex = _psd_at(coefficients, np.random.default_rng(0).uniform(-1.0, 2.0, (draws, dim_y)))
    else:
        convex = structure == LINEAR

    numpy_value = numpy_grads = None  # compiled from text at the first point that needs them

    def evaluate(y, x):
        nonlocal numpy_value
        y, x = np.asarray(y, float), np.asarray(x, float)
        if y.shape != (dim_y,) or x.shape != (dim_x,):
            raise _shape_error(y, x, dim_y, dim_x)
        value = ex.point_value(float_value, y.tolist(), x.tolist())
        if value is not None:
            return value
        if numpy_value is None:
            numpy_value = ex.compile_evaluator(ex.parse(text))
        return float(numpy_value(y, x))

    def gradient_x(y, x):
        nonlocal numpy_grads
        y, x = np.asarray(y, float), np.asarray(x, float)
        if y.shape != (dim_y,) or x.shape != (dim_x,):
            raise _shape_error(y, x, dim_y, dim_x)
        yf, xf = y.tolist(), x.tolist()
        values = [ex.point_value(g, yf, xf) for g in float_grads]
        if None not in values:
            return np.array(values)
        if numpy_grads is None:
            parsed = ex.parse(text)
            numpy_grads = ex.compile_evaluators([ex.diff_x(parsed, j) for j in range(dim_x)])
        return np.array([g(y, x) for g in numpy_grads], dtype=float)

    def evaluate_batch(y, X):
        # for a y per row, y.T[i] is a column that lines up with X[..., j]
        out = value_fn(np.asarray(y, float).T, np.asarray(X, float))
        return np.broadcast_to(np.asarray(out, float), (X.shape[0],)).copy()

    return ScalarField(
        dim_y=dim_y, dim_x=dim_x,
        evaluate=evaluate, gradient_x=gradient_x,
        structure=structure, convex_in_x=convex,
        evaluate_batch=evaluate_batch, expression=text,
        coefficients=coefficients,
    )


def _shape_error(y, x, dim_y, dim_x):
    """The ValueError for a point (y, x) of a field that is not of shape
    ((dim_y,), (dim_x,)); a module function, so it adds nothing to the
    closures a certificate keeps."""
    return ValueError(f"a point takes y of shape ({dim_y},) and x of shape ({dim_x},), "
                      f"got {y.shape} and {x.shape}")


COEFFICIENT_PARTS = frozenset("Qcd")


def _quadratic_coefficients(node, grad_nodes):
    """y -> (Q, c, d) of a field of degree <= 2 in x, given its gradient nodes.

    Q is the Hessian from the symbolic second derivatives, c the gradient
    and d the value at x = 0, so f(y, x) = x'(Qx/2 + c) + d exactly. They
    are packed in one vector [Q.ravel(), c, d]. Each entry is compiled at
    x = 0: one that folds to a value (reads no y) is stored once here. The
    others are grouped by ex.tree_key, and a call evaluates each group
    once: QB's leader has three entries that read y, c_0 and c_1 the same
    tree w(y) = 1 + 4y(1 - y) and d = w(y)(1 + 0 + 0), so a call makes two
    evaluations. Equal trees give equal bits, so every entry keeps the bits
    of ex.compile_evaluator(entry)(y, 0). coefficients.reads_y records the
    parts, a subset of COEFFICIENT_PARTS, with an entry that reads y.
    """
    n = len(grad_nodes)
    terms = [([n * n + n], node)] + [([n * n + j], g) for j, g in enumerate(grad_nodes)]
    terms += [([i * n + j, j * n + i], ex.diff_x(grad_nodes[i], j))
              for i in range(n) for j in range(i, n)]
    x0 = np.zeros(n)
    base = np.zeros(n * n + n + 1)
    varying = {}  # tree key -> (indices, evaluator)
    fns = ex.compile_evaluators([term for _, term in terms], x0)
    for (idx, term), fn in zip(terms, fns):
        if fn.value is None:
            varying.setdefault(ex.tree_key(term), ([], fn))[0].extend(idx)
        else:
            base[idx] = fn.value
    varying = list(varying.values())

    def coefficients(y):
        theta = base.copy()
        for idx, fn in varying:
            value = fn(y, None)
            for k in idx:
                theta[k] = value
        return theta[:n * n].reshape(n, n), theta[n * n:-1], float(theta[-1])
    coefficients.reads_y = frozenset("Q" if k < n * n else "c" if k < n * n + n else "d"
                                     for idx, _ in varying for k in idx)
    return coefficients


def coefficient_reads(coefficients):
    """The parts of coefficients' (Q, c, d) that read y: its reads_y record,
    or all of COEFFICIENT_PARTS for a hand-built callable without one."""
    return getattr(coefficients, "reads_y", COEFFICIENT_PARTS)


def _psd_at(coefficients, ys):
    """Whether the Hessian of coefficients is PSD (see is_psd) at every row of ys."""
    return all(is_psd(coefficients(y)[0]) for y in ys)


@dataclass(frozen=True)
class Polytope:
    """The follower feasible set C = {x : Ax = b, x >= 0}, read-only.

    A and b are read-only copies that C owns. Construction rejects an A of
    no columns and a non-finite A or b, then verifies C is nonempty and
    bounded with one LP, max 1'x over C: since x >= 0, C is bounded iff
    that maximum is finite.
    cached_vertices and cached_grids (grid step -> points) are read-only caches,
    filled by enumerate_vertices and the grid oracle; the constructor does not
    take them, since an incomplete list would make the vertex oracle inexact.
    """

    A: np.ndarray
    b: np.ndarray
    cached_vertices: Optional[np.ndarray] = _cache(default=None)
    cached_grids: dict = _cache(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "A", _read_only(np.array(self.A, dtype=float, ndmin=2)))
        object.__setattr__(self, "b", _read_only(np.asarray(self.b, dtype=float).flatten()))
        if self.A.shape[0] != self.b.shape[0]:
            raise ProblemError("A and b row counts differ")
        if self.A.shape[1] == 0:
            raise ProblemError("a polytope needs at least one coordinate")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ProblemError("A and b must be finite")
        _, _, _, status = simplex.solve(-np.ones(self.A.shape[1]), self.A, self.b)
        if status == "infeasible":
            raise EmptyFeasibleSetError("feasible set {Ax=b, x>=0} is empty")
        if status == "unbounded":
            raise UnboundedFeasibleSetError("feasible set {Ax=b, x>=0} is unbounded")

    @property
    def dim(self):
        return self.A.shape[1]

    def contains(self, x, tol=FEAS_TOL):
        x = np.asarray(x, dtype=float)
        return (np.max(np.abs(self.A @ x - self.b)) <= tol
                and np.min(x) >= -tol)


@dataclass(frozen=True)
class BoxSet:
    """An axis-aligned box of at least one coordinate for the leader
    variable, with read-only bounds.

    cached_slack_bounds holds lower - 1e-12 and upper + 1e-12, the bounds
    contains tests against, as (lower, upper) pairs of Python floats, one
    per coordinate: computed once here, since a search tests every point it
    probes.
    """

    lower: np.ndarray
    upper: np.ndarray
    cached_slack_bounds: tuple = _cache(default=())

    def __post_init__(self):
        lo = _read_only(np.asarray(self.lower, dtype=float).flatten())
        hi = _read_only(np.asarray(self.upper, dtype=float).flatten())
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape:
            raise ProblemError("box bound shapes differ")
        if lo.size == 0:
            raise ProblemError("a box needs at least one coordinate")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ProblemError("box bounds must be finite")
        if np.any(lo > hi):
            raise ProblemError("box lower bound exceeds upper bound")
        with np.errstate(over="ignore"):  # an overflowing span is reported here
            if not np.all(np.isfinite(hi - lo)):
                raise ProblemError("box span upper - lower must be finite")
        object.__setattr__(self, "cached_slack_bounds", tuple(
            zip((lo - 1e-12).tolist(), (hi + 1e-12).tolist())))

    @property
    def dim(self):
        return self.lower.shape[0]

    def contains(self, y):
        """Whether y is a point of the box: of shape (dim,), each coordinate
        within 1e-12 of its bounds (NaN is not). The coordinates are compared
        as Python floats, which are the same doubles as numpy's, so the
        answer is the array comparison's at a fraction of its dispatches."""
        y = np.asarray(y, dtype=float)
        if y.shape != self.lower.shape:
            return False
        for v, (lo, hi) in zip(y.tolist(), self.cached_slack_bounds):
            if not lo <= v <= hi:
                return False
        return True

    def clip(self, y):
        """y clipped to the box, with the bits of np.clip (NaN stays NaN)."""
        return np.minimum(np.maximum(np.asarray(y, dtype=float), self.lower), self.upper)

    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))


@dataclass(frozen=True)
class BilevelProblem:
    """A validated, read-only bundle (f, h, K, C); dataclasses.replace varies it."""

    name: str
    leader_objective: ScalarField
    follower_objective: ScalarField
    leader_set: BoxSet
    follower_set: Polytope
    # the set-up of the last (epsilon, sign) selected, see selection._setup
    cached_selection: Optional[tuple] = _cache(default=None)
    # the follower's exact argmin face, see oracle._argmin_face
    cached_face: Optional[tuple] = _cache(default=None)

    def __post_init__(self):
        f, h = self.leader_objective, self.follower_objective
        if f.dim_y != h.dim_y or f.dim_y != self.leader_set.dim:
            raise ProblemError("leader dimension mismatch")
        if f.dim_x != h.dim_x or f.dim_x != self.follower_set.dim:
            raise ProblemError("follower dimension mismatch")
        if not h.convex_in_x:
            raise ProblemError("follower objective must be declared convex in x")

    @property
    def dim_y(self):
        return self.leader_objective.dim_y

    @property
    def dim_x(self):
        return self.leader_objective.dim_x


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[tuple]
    worst_value: float


@dataclass(frozen=True)
class ValidationReport:
    checks: Sequence[CheckResult]

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_problem(problem):
    """Check the standing assumptions on VALIDATION_SAMPLES points of K x C
    drawn from VALIDATION_SEED.

    Runs three checks: positivity of the leader objective (one f.batch over
    the pairs), convexity in x of the follower objective (midpoint tests on
    random segments inside C, three h.batch calls) and gradient consistency
    of f, then h, against central differences at the first 64 pairs. Each
    check scores every sample by one rule (see _worst_sample): a non-finite
    score fails it, and its witness is the worst sample. Boundedness of C is
    not sampled: constructing the Polytope already enforces it.
    """
    from .lower_solver import _feasible_points, enumerate_vertices  # no cycle at module load

    rng = np.random.default_rng(VALIDATION_SEED)
    f, h = problem.leader_objective, problem.follower_objective
    K, C = problem.leader_set, problem.follower_set

    V = enumerate_vertices(C)
    X = _feasible_points(V, VALIDATION_SAMPLES, rng)
    Y = K.sample(rng, size=VALIDATION_SAMPLES)

    positivity = _worst_sample("positivity", f.batch(Y, X), Y, X,
                               lambda v: v > 0.0, lowest=True)

    a, b = rng.integers(len(X), size=(VALIDATION_SAMPLES, 2)).T  # a, b per sample in turn
    mids = 0.5 * (X[a] + X[b])
    gaps = h.batch(Y, mids) - 0.5 * (h.batch(Y, X[a]) + h.batch(Y, X[b]))
    convexity = _worst_sample("convexity_in_x", gaps, Y, mids, lambda gap: gap <= 1e-9)

    pairs = np.repeat(np.arange(64), 2)  # f then h at each pair
    errs = [_gradient_relative_error(fld, Y[i], X[i]) for i in range(64) for fld in (f, h)]
    gradients = _worst_sample("gradient_consistency", errs, Y[pairs], X[pairs],
                              lambda err: err <= 1e-5)

    return ValidationReport(checks=(positivity, convexity, gradients))


def _worst_sample(name, scores, Y, X, passes, lowest=False):
    """CheckResult of one score per sample (Y[i], X[i]), witnessed by the worst
    sample: the first non-finite score, which fails the check, else the first
    lowest (lowest=True) or highest score, which passes(score) decides."""
    scores = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~np.isfinite(scores))
    i = bad[0] if len(bad) else (np.argmin(scores) if lowest else np.argmax(scores))
    v = float(scores[i])
    return CheckResult(name, bool(math.isfinite(v) and passes(v)), (Y[i].copy(), X[i].copy()), v)


def _gradient_relative_error(fld, y, x, step=1e-6):
    """|g - fd| / max(1, |g|) for g = fld.gradient_x(y, x) and fd its central
    differences, whose 2 * dim_x points are evaluated in one fld.batch."""
    g = np.asarray(fld.gradient_x(y, x), dtype=float)
    E = step * np.eye(len(x))
    vals = fld.batch(y, np.vstack([x + E, x - E]))
    fd = (vals[:len(x)] - vals[len(x):]) / (2 * step)
    scale = max(1.0, float(np.linalg.norm(g)))
    return float(np.linalg.norm(g - fd)) / scale


# -- JSON problem documents ------------------------------------------------

def problem_from_dict(doc):
    """Build a problem from the JSON document schema.

    Expected keys: name (a file name, as reports are named after it: no / or
    \\, not . or ..), dim_y, dim_x (integers of at least 1), A (row-major
    nested lists), b, K_lower, K_upper, f, h (expression strings). A key of
    another type or value is a ProblemError naming it, never a truncation,
    and every key but f and h, shapes too, is checked before a field is built.
    """
    if not isinstance(doc, dict):
        raise ProblemError(f"a problem document is a JSON object, got {type(doc).__name__}")
    required = ("name", "dim_y", "dim_x", "A", "b", "K_lower", "K_upper", "f", "h")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ProblemError(f"problem document missing keys: {missing}")
    stem = (lambda v: isinstance(v, str) and v not in ("", ".", "..") and "/" not in v
            and "\\" not in v, "a non-empty string with no / or \\ that is not . or ..")
    count = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1,
             "an integer of at least 1")
    text = (lambda v: isinstance(v, str), "an expression string")
    for key, (ok, noun) in (("name", stem), ("dim_y", count), ("dim_x", count),
                            ("f", text), ("h", text)):
        if not ok(doc[key]):
            raise ProblemError(f"{key} must be {noun}, got {json.dumps(doc[key], default=repr)}")
    dim_y, dim_x = int(doc["dim_y"]), int(doc["dim_x"])

    def floats(key):
        try:
            return np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProblemError(f"{key} must be an array of numbers: {exc}") from None
    A = np.atleast_2d(floats("A"))
    if A.shape[1] != dim_x:
        raise ProblemError(f"A has {A.shape[1]} columns, expected dim_x={dim_x}")
    K = BoxSet(lower=floats("K_lower"), upper=floats("K_upper"))
    if K.dim != dim_y:
        raise ProblemError("box bounds do not match dim_y")
    C = Polytope(A=A, b=floats("b"))
    f = field_from_expression(doc["f"], dim_y=dim_y, dim_x=dim_x)
    h = field_from_expression(doc["h"], dim_y=dim_y, dim_x=dim_x)
    return BilevelProblem(
        name=doc["name"],
        leader_objective=_convex_on(f, K),
        follower_objective=_convex_on(h, K),
        leader_set=K,
        follower_set=C,
    )


def _convex_on(fld, K):
    """fld with its convexity in x decided again on K, when it is of degree 2
    and its Hessian reads y: a PSD test at 5 y drawn from K and at the
    2**dim_y corners of K, skipping a corner whose Hessian is not finite.
    The corners decide a Hessian affine in y exactly: its least eigenvalue
    is concave in y, so it is least at a corner. DimensionGuardError above
    CORNER_DIM_GUARD leader dimensions."""
    if fld.structure != QUADRATIC or "Q" not in coefficient_reads(fld.coefficients):
        return fld
    if K.dim > CORNER_DIM_GUARD:
        raise DimensionGuardError(f"a Hessian that reads y is tested at the 2**dim_y corners "
                                  f"of K, guarded to dim_y <= {CORNER_DIM_GUARD}, got {K.dim}")
    corners = [y for y in map(np.array, product(*zip(K.lower, K.upper)))
               if np.isfinite(fld.coefficients(y)[0]).all()]
    ys = np.concatenate([K.sample(np.random.default_rng(0), 5), np.reshape(corners, (-1, K.dim))])
    return replace(fld, convex_in_x=_psd_at(fld.coefficients, ys))


def problem_to_dict(problem):
    f, h = problem.leader_objective, problem.follower_objective
    if f.expression is None or h.expression is None:
        raise ProblemError("only expression-backed problems can be serialized")
    return {
        "name": problem.name,
        "dim_y": problem.dim_y,
        "dim_x": problem.dim_x,
        "A": problem.follower_set.A.tolist(),
        "b": problem.follower_set.b.tolist(),
        "K_lower": problem.leader_set.lower.tolist(),
        "K_upper": problem.leader_set.upper.tolist(),
        "f": f.expression,
        "h": h.expression,
    }


def load_problem(path):
    """The problem of the JSON document at path; ProblemError if it cannot be read."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read problem document {str(path)!r}: "
                           f"{exc.strerror or exc}") from None
    return problem_from_dict(doc)


def save_problem(problem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


# -- built-in problems ------------------------------------------------------

# Follower set is the segment z1 + z2 = 1, z >= 0. The follower objective is
# identically zero, so every feasible point is optimal and the worst-case
# selection does all the work.
FS_DOC = {"name": "FS", "dim_y": 1, "dim_x": 2, "A": [[1.0, 1.0]], "b": [1.0],
          "K_lower": [0.0], "K_upper": [1.0],
          "f": "1 + 4*y[0]*(1 - y[0]) + x[0]", "h": "0"}

# Unit box in (z1, z2) written with slacks; the follower objective is
# minimized on the whole band z1 + z2 = 1, on which the leader objective is
# constant in x.
QB_DOC = {"name": "QB", "dim_y": 1, "dim_x": 4,
          "A": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], "b": [1.0, 1.0],
          "K_lower": [0.0], "K_upper": [1.0],
          "f": "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])", "h": "(x[0] + x[1] - 1)^2"}

_BUILT_IN = {"FS": FS_DOC, "QB": QB_DOC}
# bound now, so a registry_get makes one call to the problem_from_dict defined
# above whatever rebinds the module name later
_build = problem_from_dict


def registry_names():
    return sorted(_BUILT_IN)


def registry_get(name):
    """Return a fresh instance of a built-in problem."""
    if name not in _BUILT_IN:
        raise UnknownProblemError(f"unknown problem {name!r}; "
                                  f"known: {', '.join(registry_names())}")
    return _build(_BUILT_IN[name])


def resolve_problem(name_or_path):
    """Built-in problem name or path to a problem JSON document."""
    if name_or_path in _BUILT_IN:
        return registry_get(name_or_path)
    import os
    if os.path.exists(name_or_path):
        return load_problem(name_or_path)
    raise UnknownProblemError(
        f"unknown problem {name_or_path!r} (not registered, not a file)")
