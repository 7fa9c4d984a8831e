"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Each workload is a closed loop in one process: the next operation starts when
the previous one returns. The seed fixes the list of operations, so two
commits given the same seed do identical work. Checkers compare outputs with
references the benchmark derives itself (closed forms, or scipy on the
benchmark's own numpy copies of the objectives), never with values the
library reports about its own accuracy.

The library is driven only through its public entry points, called as module
attributes so that the tracer's wrappers (see tracing.py) see every call.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from bilevelpen import (cli, continuation, diagnostics, model, oracle,
                        selection, upper_solver)

VALUE_TOL = 1e-7        # closed-form checks; both limits are exact on the grids used
SELECT_TOL = 2e-6       # a reliable selection certifies fw_gap <= 1e-6
FEAS_TOL = 1e-8
REPORT_TOL = 1e-9       # relative; library-reported value vs. our own evaluation


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one operation.

    claimed: the library reported success (converged rows, exit code 0, a
    reliable selection). problems: what the checker rejected. An operation
    fails when it did not claim success or a check rejected it; it is wrong
    when it claimed success and a check still rejected it.
    """

    claimed: bool
    problems: tuple = ()

    @property
    def failed(self):
        return not self.claimed or bool(self.problems)

    @property
    def wrong(self):
        return self.claimed and bool(self.problems)


# -- checkers ----------------------------------------------------------------

def qb_limit(epsilon, sign):
    """Closed-form penalized value of QB at y = 1/2 for one trace row."""
    if sign > 0:
        return 4.0 / (1.0 + 4.0 * epsilon)
    return min(6.0, 4.0 / (1.0 - 4.0 * epsilon))


def check_trace(sign, epsilons, values, converged, monotone_ok):
    problems = []
    for k, (eps, v) in enumerate(zip(epsilons, values)):
        ref = qb_limit(eps, sign)
        if not abs(v - ref) <= VALUE_TOL * (1.0 + abs(ref)):
            problems.append(f"row {k}: value {v!r} != {ref!r}")
    if not monotone_ok:
        problems.append("trace is not monotone")
    return Verdict(claimed=all(converged), problems=tuple(problems))


def check_oracle(exit_code, value, expected):
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    elif not abs(value - expected) <= VALUE_TOL * (1.0 + abs(expected)):
        problems.append(f"oracle value {value!r} != {expected!r}")
    return Verdict(claimed=exit_code == 0, problems=tuple(problems))


def check_selection(gen, x, reported_value, reference_value, reliable):
    """x must lie in C and its penalized value must not exceed the reference.

    Infeasibility is rejected even for an unreliable selection: Frank-Wolfe
    iterates are convex combinations of vertices, so they are always in C.
    """
    x = np.asarray(x, dtype=float)
    residual = max(float(np.max(np.abs(gen.A @ x - gen.b))), float(-x.min()))
    if residual > FEAS_TOL:
        return Verdict(claimed=True, problems=(f"x outside C by {residual:.3g}",))
    problems = []
    own = float(gen.penalized(x))
    if not abs(reported_value - own) <= REPORT_TOL * (1.0 + abs(own)):
        problems.append(f"reported value {reported_value!r} != {own!r} at x")
    if not own <= reference_value + SELECT_TOL * (1.0 + abs(reference_value)):
        problems.append(f"penalized value {own!r} above reference {reference_value!r}")
    return Verdict(claimed=reliable, problems=tuple(problems))


# -- qb-trace ------------------------------------------------------------------

QB_OPS = 4
QB_SCHEDULE = continuation.EpsSchedule(eps0=0.1, rho=0.5, k_max=12)


@dataclass(frozen=True)
class TraceOp:
    sign: int
    cfg_seed: int

    @property
    def label(self):
        return f"{'pessimistic' if self.sign > 0 else 'optimistic'} trace, cfg seed {self.cfg_seed}"


class QbTrace:
    """12-row continuation traces on QB, alternating pessimistic/optimistic."""

    name = "qb-trace"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.problem = model.registry_get("QB")
        self.ops = [TraceOp(sign=selection.PESSIMISTIC if i % 2 == 0
                            else selection.OPTIMISTIC,
                            cfg_seed=int(rng.integers(2 ** 31 - 1)))
                    for i in range(QB_OPS)]

    def run(self, op):
        return continuation.run_continuation(
            self.problem, QB_SCHEDULE, sign=op.sign,
            cfg=upper_solver.UpperConfig(seed=op.cfg_seed))

    def check(self, op, trace):
        rows = trace.rows
        return check_trace(op.sign, [r.epsilon for r in rows], [r.v for r in rows],
                           [r.converged for r in rows],
                           continuation.check_monotone(trace).ok)


# -- oracle-cli ----------------------------------------------------------------

ORACLE_OPS = 8
QB_LEADER = "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])"


@dataclass(frozen=True)
class OracleOp:
    doc: dict
    expected: float

    @property
    def label(self):
        return f"{self.doc['name']} (h = {self.doc['h']}, f = {self.doc['f']})"


def qb_variant(name, t):
    """QB with follower band x0 + x1 = t; t on the 1e-3 grid so the x grid hits it."""
    return OracleOp(doc={
        "name": name, "dim_y": 1, "dim_x": 4,
        "A": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], "b": [1.0, 1.0],
        "K_lower": [0.0], "K_upper": [1.0],
        "f": QB_LEADER, "h": f"(x[0] + x[1] - {t!r})^2",
    }, expected=2.0 * (1.0 + t))


def fs_variant(name, a):
    """FS with leader 1 + 4y(1-y) + a*x0, a > 0; the worst case sits at x0 = 0."""
    return OracleOp(doc={
        "name": name, "dim_y": 1, "dim_x": 2,
        "A": [[1.0, 1.0]], "b": [1.0], "K_lower": [0.0], "K_upper": [1.0],
        "f": f"1 + 4*y[0]*(1 - y[0]) + {a!r}*x[0]", "h": "0",
    }, expected=2.0)


class OracleCli:
    """`bilevelpen oracle` in process on fresh QB/FS variants, then a certificate.

    Three ops in four are QB variants, so the median op is a QB grid oracle;
    the FS ops keep the face-enumeration path in the mix.
    """

    name = "oracle-cli"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops = []
        for i in range(ORACLE_OPS):
            if i % 4 == 3:
                self.ops.append(fs_variant(f"fs{i}", round(float(rng.uniform(0.5, 2.0)), 3)))
            else:
                self.ops.append(qb_variant(f"qb{i}", int(rng.integers(200, 1801)) / 1000.0))

    def run(self, op):
        # A fresh file per op: Polytope caches vertices and grids per instance,
        # and every CLI invocation pays for building them.
        path = os.path.join(self.workdir, op.doc["name"] + ".json")
        with open(path, "w") as fh:
            json.dump(op.doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["oracle", "--problem", path, "--output", self.workdir,
                             "--format", "json"])
        if code != 0:
            return code, None, None
        with open(os.path.join(self.workdir, op.doc["name"] + "_oracle.json")) as fh:
            report = json.load(fh)
        solution = oracle.OracleSolution(
            problem=report["problem"], y=np.asarray(report["y_best"]),
            x=np.asarray(report["x_best"]), leader_value=report["leader_value"],
            follower_value=report["follower_value"], method=report["method"],
            resolution=report["resolution"])
        cert = diagnostics.build_certificate(model.load_problem(path), solution)
        return code, report, cert

    def check(self, op, result):
        code, report, _ = result
        return check_oracle(code, None if report is None else report["leader_value"],
                            op.expected)


# -- custom-select ---------------------------------------------------------------

# (family seed, block sizes, leader adds a convex quadratic). Linear leaders
# get exact Frank-Wolfe steps, quadratic ones a general section and Armijo
# steps. The seed fixes a family's coefficients and (y, eps). With at most 16
# vertices every vertex is a start, so relabelling cannot change the work.
# The families were picked so that every selection costs within a factor of
# two of the others (about 1.5 to 2.7 s on the machine of bench/baseline.json)
# while three of the seven stall at max_iter and end unreliable: the median
# op then sits in a dense cluster and does not jump between a fast and a slow
# family from run to run.
CUSTOM_FAMILIES = (
    (1000, (2, 2, 2), False), (1001, (2, 2, 2), False),
    (1003, (3, 3), False), (1000, (3, 3), False),
    (1001, (2, 2), True), (1002, (2, 2), True), (1006, (2, 2), True),
)


@dataclass(frozen=True)
class GeneratedSelection:
    """A generated problem document, its selection point and numpy copies of f, h.

    C is a product of scaled simplices {x_B >= 0, sum x_B = b_B}. The follower
    h = (g'x - c - 0.2*y0)^2 is minimized on a whole hyperplane section of C;
    the leader f = 1 + y0 + a'x [+ q*(x_i - x_j)^2] is positive on K x C.
    """

    doc: dict
    y: float
    epsilon: float
    A: np.ndarray
    b: np.ndarray
    g: np.ndarray
    c: float
    a: np.ndarray
    quad: tuple  # () or (i, j, q)

    @property
    def label(self):
        return f"{self.doc['name']} at y {self.y!r}, eps {self.epsilon!r}"

    def leader(self, x):
        v = 1.0 + self.y + self.a @ x
        if self.quad:
            i, j, q = self.quad
            v += q * (x[i] - x[j]) ** 2
        return v

    def leader_grad(self, x):
        grad = self.a.copy()
        if self.quad:
            i, j, q = self.quad
            grad[i] += 2.0 * q * (x[i] - x[j])
            grad[j] -= 2.0 * q * (x[i] - x[j])
        return grad

    def penalized(self, x):
        r = self.g @ x - self.c - 0.2 * self.y
        return r * r + self.epsilon * self.leader(x) ** 2

    def penalized_grad(self, x):
        r = self.g @ x - self.c - 0.2 * self.y
        return 2.0 * r * self.g + 2.0 * self.epsilon * self.leader(x) * self.leader_grad(x)

    def reference(self):
        """min over C of the penalized objective by SLSQP from the block barycentre."""
        from scipy.optimize import minimize

        x0 = self.A.T @ (self.b / self.A.sum(axis=1))
        res = minimize(self.penalized, x0, jac=self.penalized_grad, method="SLSQP",
                       bounds=[(0.0, None)] * len(x0),
                       constraints=[{"type": "eq", "fun": lambda x: self.A @ x - self.b,
                                     "jac": lambda x: self.A}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        return float(self.penalized(np.clip(res.x, 0.0, None)))


def generate_selection(family_seed, sizes, quadratic, rng):
    """One custom-select input: a family's problem with seeded labels.

    The coefficients, y and eps come from the family's own seed; the
    workload seed permutes the coordinates. Every seed therefore poses an
    isomorphic problem, and Frank-Wolfe does the same work on it: with
    coefficients drawn afresh, a 5% change moved single selections by up
    to a factor of four, which no affordable number of ops per run averages out.
    """
    family = np.random.default_rng(family_seed)
    n = sum(sizes)
    edges = np.cumsum((0,) + sizes)
    blocks = [slice(edges[k], edges[k + 1]) for k in range(len(sizes))]
    b = np.round(family.uniform(0.5, 1.5, size=len(sizes)), 3)
    g = np.round(family.uniform(0.5, 2.0, size=n), 3)
    a = np.round(family.uniform(0.1, 1.0, size=n), 3)
    lo = sum(g[s].min() * b[k] for k, s in enumerate(blocks))
    hi = sum(g[s].max() * b[k] for k, s in enumerate(blocks))
    c = round(float(lo + family.uniform(0.3, 0.6) * (hi - lo)), 3)
    y = round(float(family.uniform(0.2, 0.8)), 3)
    epsilon = float(10.0 ** round(float(family.uniform(-3.0, -1.0)), 2))
    pair = family.choice(n, size=2, replace=False) if quadratic else None

    perm = rng.permutation(n)          # new coordinate k is old coordinate perm[k]
    where = np.argsort(perm)           # old coordinate j moves to where[j]
    A = np.zeros((len(sizes), n))
    for k, s in enumerate(blocks):
        A[k, where[s]] = 1.0
    g, a = g[perm], a[perm]
    gx = " + ".join(f"{float(g[j])!r}*x[{j}]" for j in range(n))
    f = "1 + y[0] + " + " + ".join(f"{float(a[j])!r}*x[{j}]" for j in range(n))
    quad = ()
    if quadratic:
        i, j = (int(where[v]) for v in pair)
        quad = (i, j, 0.5)
        f += f" + 0.5*(x[{i}] - x[{j}])^2"
    doc = {
        "name": f"family{family_seed}-{'x'.join(map(str, sizes))}-{'quad' if quadratic else 'lin'}",
        "dim_y": 1, "dim_x": n,
        "A": A.tolist(), "b": b.tolist(), "K_lower": [0.0], "K_upper": [1.0],
        "f": f, "h": f"({gx} - {c!r} - 0.2*y[0])^2",
    }
    return GeneratedSelection(doc=doc, y=y, epsilon=epsilon, A=A, b=b, g=g, c=c,
                              a=a, quad=quad)


class CustomSelect:
    """A user's JSON problem: build, validate, one pessimistic selection.

    Runs with library defaults only (no max_iter, n_starts or tol of ours),
    so Frank-Wolfe stalls show up as slow, unreliable operations.
    """

    name = "custom-select"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = [generate_selection(*family, rng) for family in CUSTOM_FAMILIES]
        self.ops = [ops[k] for k in rng.permutation(len(ops))]
        self._references = {}

    def run(self, op):
        problem = model.problem_from_dict(op.doc)
        report = model.validate_problem(problem)
        return report, selection.select_response(problem, [op.y], op.epsilon)

    def check(self, op, result):
        report, sel = result
        if id(op) not in self._references:
            self._references[id(op)] = op.reference()
        verdict = check_selection(op, sel.x, sel.penalized_value,
                                  self._references[id(op)], sel.reliable)
        if not report.all_passed:
            failing = [c.name for c in report.checks if not c.passed]
            return Verdict(claimed=verdict.claimed,
                           problems=verdict.problems + (f"validation failed: {failing}",))
        return verdict


WORKLOADS = {w.name: w for w in (QbTrace, OracleCli, CustomSelect)}
