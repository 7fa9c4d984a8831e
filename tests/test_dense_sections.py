"""Dense sections of fields of degree <= 2 in x against the expression path.

A field built from an expression of degree <= 2 carries coefficients
y -> (Q, c, d), and its sections evaluate x'(Qx/2 + c) + d instead of the
expression. These tests compare the two paths; the expression path is the
reference, reached by replacing the coefficients with None.
"""

import hashlib
import json
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import expressions as ex, selection
from bilevelpen.cli import trace_to_json
from bilevelpen.continuation import EpsSchedule
from bilevelpen.lower_solver import _fw_run, vertex_lmo
from bilevelpen.model import (COEFFICIENT_PARTS, GENERAL, QB_DOC, DenseSection,
                              _quadratic_coefficients, field_from_expression, is_psd)
from bilevelpen.selection import FW_MAX_ITER, FW_TOL, MAX_STARTS, OPTIMISTIC, PESSIMISTIC
from bilevelpen.upper_solver import UpperConfig

REL = 1e-12

numbers = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: round(v, 3))


def close(a, b, rel=REL):
    """Equal to rel relative to the reference b, with a unit floor."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def expression_only(field):
    return replace(field, coefficients=None)


@st.composite
def quadratic_expressions(draw, dim_y, dim_x, linear=False):
    """Random expression text of degree <= 2 (<= 1 if linear) in x."""

    def coef():
        return f"({draw(numbers)!r} + {draw(numbers)!r}*y[{draw(st.integers(0, dim_y - 1))}])"

    def index():
        return draw(st.integers(0, dim_x - 1))

    kinds = ["x", "scaled"] if linear else ["x", "scaled", "xx", "square", "product"]
    terms = [coef()]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "x":
            terms.append(f"{coef()}*x[{index()}]")
        elif kind == "scaled":
            terms.append(f"x[{index()}]/(2 + y[0]^2)")
        elif kind == "xx":
            terms.append(f"{coef()}*x[{index()}]*x[{index()}]")
        elif kind == "square":
            terms.append(f"({coef()}*x[{index()}] - x[{index()}] + {draw(numbers)!r})^2")
        else:
            terms.append(f"-(x[{index()}] + {coef()})*({coef()} - x[{index()}])")
    return " + ".join(terms)


@st.composite
def field_cases(draw):
    """(field, y, X): a field of degree <= 2 over dim_x <= 6 and points to test."""
    dim_y, dim_x = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    field = field_from_expression(draw(quadratic_expressions(dim_y, dim_x)), dim_y, dim_x)
    y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim_y, max_size=dim_y)))
    X = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim_x, max_size=dim_x),
                               min_size=1, max_size=4)))
    return field, y, X


class TestDenseSection:
    @settings(max_examples=150, deadline=None)
    @given(field_cases())
    def test_matches_expression(self, case):
        field, y, X = case
        assert field.structure != GENERAL and field.coefficients is not None
        section, reference = field.fix(y), expression_only(field).fix(y)
        for x in X:
            assert close(section.value(x), field.evaluate(y, x))
            assert close(section.grad(x), field.gradient_x(y, x))
        assert close(section.value_batch(X), reference.value_batch(X))

    def test_general_field_has_no_coefficients(self):
        field = field_from_expression("x[0]^3 + y[0]", 1, 2)
        assert field.structure == GENERAL and field.coefficients is None

    def test_qb_coefficients(self, qb):
        Q, c, d = qb.follower_objective.coefficients(np.array([0.1]))
        np.testing.assert_array_equal(Q[:2, :2], [[2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_array_equal(Q[2:], 0.0)
        np.testing.assert_array_equal(c, [-2.0, -2.0, 0.0, 0.0])
        assert d == 1.0
        _, a, f0 = qb.leader_objective.coefficients(np.array([0.5]))
        np.testing.assert_array_equal(a, [2.0, 2.0, 0.0, 0.0])
        assert f0 == 2.0


def per_term_coefficients(node, dim_x, y):
    """(Q, c, d) of node with each entry evaluated by its own compile_evaluator."""
    x0 = np.zeros(dim_x)
    grads = [ex.diff_x(node, j) for j in range(dim_x)]

    def value(term):
        return ex.compile_evaluator(term)(y, x0)
    Q = np.zeros((dim_x, dim_x))
    for i in range(dim_x):
        for j in range(i, dim_x):
            Q[i, j] = Q[j, i] = value(ex.diff_x(grads[i], j))
    return Q, np.array([value(g) for g in grads], dtype=float), float(value(node))


@st.composite
def coefficient_cases(draw):
    """(node, dim_y, dim_x, y): an AST of degree <= 2 in x that reads y, with
    signed zeros and infinities among its constants, and a leader point."""
    dim_y, dim_x = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    leaves = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.5, 2.0, math.inf]).map(lambda v: ("const", v)),
        st.integers(0, dim_y - 1).map(lambda i: ("y", i)),
        st.integers(0, dim_x - 1).map(lambda j: ("x", j)))
    nodes = st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 3))), max_leaves=12)
    node = draw(nodes.filter(lambda n: ex.uses_y(n) and ex.degree_in_x(n) in (0, 1, 2)))
    y = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0]),
                               min_size=dim_y, max_size=dim_y)))
    return node, dim_y, dim_x, y


# Parts that read y, in the style of test_model's _EXPRESSIONS; 0 and the
# signed zero y = -0.0 make NaN, infinite and signed-zero entries
_Y_PARTS = st.recursive(st.sampled_from(["y[0]", "y[1]", "0.5", "0", "3"]), lambda inner: st.tuples(
    inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"), max_leaves=4)


@st.composite
def shared_entry_cases(draw):
    """(text, dim_x = 2): an expression of degree <= 2 in x that reads y,
    whose terms reuse a few parts, so that several entries are one tree."""
    parts = draw(st.lists(_Y_PARTS, min_size=1, max_size=3))
    terms = ["y[0]"]
    for _ in range(draw(st.integers(1, 5))):
        w, i, j = draw(st.sampled_from(parts)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
        terms.append(draw(st.sampled_from([
            f"{w}*x[{i}]", f"{w}*x[{i}]*x[{j}]", f"({w} + x[{i}])^2", f"-{w}*(x[{i}] - {w})"])))
    return " + ".join(draw(st.permutations(terms))), 2


class TestOnePassCoefficients:
    # with -0.0 and 0.0 merged, y*(-0.0) + y*0.0 would read -0.0 instead of 0.0
    @example((("add", ("mul", ("y", 0), ("const", -0.0)), ("mul", ("y", 0), ("const", 0.0))),
              1, 1, np.array([0.5])))
    @settings(max_examples=150, deadline=None)
    @given(coefficient_cases())
    def test_bits_match_each_entry_on_its_own(self, case):
        node, dim_y, dim_x, y = case
        with np.errstate(all="ignore"):
            grads = [ex.diff_x(node, j) for j in range(dim_x)]
            got = _quadratic_coefficients(node, grads)(y)
            want = per_term_coefficients(node, dim_x, y)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_entries_that_read_no_y_fold_at_build(self):
        # QB's h reads no y, so each of its entries folds to a value when the
        # field is built and a call reads y zero times; QB's f reads y, and its
        # entries keep the bits of compiling each on its own
        reads = []

        class Leader:
            def __getitem__(self, i):
                reads.append(i)
                return np.float64(0.3)
        h = field_from_expression(QB_DOC["h"], 1, 4)
        h.coefficients(Leader())
        assert reads == [] and not h.coefficients.reads_y
        got = field_from_expression(QB_DOC["f"], 1, 4).coefficients(Leader())
        want = per_term_coefficients(ex.parse(QB_DOC["f"]), 4, np.array([0.3]))
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @example(case=(QB_DOC["f"], 4), y=[0.3, 0.0])
    @settings(max_examples=150, deadline=None)
    @given(case=shared_entry_cases(),
           y=st.lists(st.sampled_from([0.0, -0.0, 0.3, 1.0, -1.0, 2.0]), min_size=2, max_size=2))
    def test_shared_entries_keep_every_bit(self, case, y):
        # QB's leader has three entries that read y, c_0 = c_1 = w(y) the same tree
        text, dim_x = case
        y = np.array(y)
        node = ex.parse(text)
        x0 = np.zeros(dim_x)
        grads = [ex.diff_x(node, j) for j in range(dim_x)]
        hessian = {(i, j): ex.diff_x(grads[min(i, j)], max(i, j))
                   for i in range(dim_x) for j in range(dim_x)}
        with np.errstate(all="ignore"):
            coefficients = _quadratic_coefficients(node, grads)
            Q, c, d = coefficients(y)
            alone = [(Q[i, j], ex.compile_evaluator(t, x0)(y, None)) for (i, j), t in hessian.items()]
            alone += [(c[j], ex.compile_evaluator(g, x0)(y, None)) for j, g in enumerate(grads)]
            alone += [(d, ex.compile_evaluator(node, x0)(y, None))]
        for got, want in alone:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

        def varies(terms):
            return any(ex.compile_evaluator(t, x0).value is None for t in terms)
        assert coefficients.reads_y == {part for part, terms in (
            ("Q", hessian.values()), ("c", grads), ("d", [node])) if varies(terms)}
        assert coefficients.reads_y <= COEFFICIENT_PARTS

    def test_entries_equal_but_for_a_signed_zero_are_not_shared(self):
        # c_0 = y*(-0.0) and c_1 = y*0.0 are == as tuples; one evaluation for
        # both would give c_1 = -0.0 at y = 0.5
        y0 = ("y", 0)
        node = ("add", ("mul", ("mul", y0, ("const", -0.0)), ("x", 0)),
                ("mul", ("mul", y0, ("const", 0.0)), ("x", 1)))
        grads = [ex.diff_x(node, j) for j in range(2)]
        assert grads[0] == grads[1] and ex.tree_key(grads[0]) != ex.tree_key(grads[1])
        _, c, _ = _quadratic_coefficients(node, grads)(np.array([0.5]))
        assert c.tobytes() == np.array([-0.0, 0.0]).tobytes()

    def test_equal_entries_are_evaluated_once_per_call(self):
        # w(y) = 1 + 4y(1 - y) reads y twice: c_0 and c_1 share one evaluation,
        # d = w(y)(1 + 0 + 0) is a tree of its own
        reads = []

        class Leader:
            def __getitem__(self, i):
                reads.append(i)
                return np.float64(0.3)
        f = field_from_expression(QB_DOC["f"], 1, 4)
        f.coefficients(Leader())
        assert len(reads) == 4 and f.coefficients.reads_y == {"c", "d"}


class TestPenalizedCoefficients:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from([PESSIMISTIC, OPTIMISTIC]),
           st.sampled_from([1e-1, 1e-2, 1e-3]))
    def test_equal_h_plus_signed_eps_f_squared(self, data, sign, eps):
        dim_y, dim_x = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
        f = field_from_expression(
            data.draw(quadratic_expressions(dim_y, dim_x, linear=True)), dim_y, dim_x)
        h = field_from_expression(
            data.draw(quadratic_expressions(dim_y, dim_x)), dim_y, dim_x)
        field = bp.penalized_field(SimpleNamespace(leader_objective=f, follower_objective=h),
                                   eps, sign)
        assert field.coefficients is not None
        y = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=dim_y, max_size=dim_y)))
        x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=dim_x, max_size=dim_x)))
        Q, c, d = field.coefficients(y)
        fv = f.evaluate(y, x)
        assert close(x @ (0.5 * Q @ x + c) + d, h.evaluate(y, x) + sign * eps * fv ** 2)
        assert close(Q @ x + c, h.gradient_x(y, x) + 2.0 * sign * eps * fv * f.gradient_x(y, x))

    def test_quadratic_leader_takes_expression_path(self, qb):
        f = field_from_expression("1 + x[0]^2", 1, 4)
        p = SimpleNamespace(leader_objective=f, follower_objective=qb.follower_objective)
        assert bp.penalized_field(p, 0.1).coefficients is None


def both_paths(problem):
    """The problem as given, and with its fields on the expression path."""
    return problem, replace(problem,
                            leader_objective=expression_only(problem.leader_objective),
                            follower_objective=expression_only(problem.follower_objective))


def assert_same_selection(dense, reference):
    # x itself may differ: on QB the argmin is a segment, and rounding picks
    # which start's point wins; f and the penalized value are constant there
    assert close(dense.leader_value, reference.leader_value)
    assert close(dense.penalized_value, reference.penalized_value)
    assert dense.reliable == reference.reliable


EPSILONS = [1e-1, 1e-2, 1e-3]


@st.composite
def block_simplex_selections(draw, psd_optimistic=False):
    """(problem, y, eps): a product of scaled simplices, a follower
    (g'x - c - 0.2*y0)^2 minimized on a whole face and a linear leader
    1 + y0 + a'x. The optimistic Hessian 2gg' - 2eps*aa' is then mostly
    indefinite. With psd_optimistic it is PSD at every y: either a = t*g
    with eps*t^2 <= 1, or the follower adds mu*||x||^2 with
    mu >= eps*||a||^2."""
    sizes = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
    n = sum(sizes)
    A = np.zeros((len(sizes), n))
    start = 0
    for k, size in enumerate(sizes):
        A[k, start:start + size] = 1.0
        start += size
    weights = st.floats(0.1, 2.0).map(lambda v: round(v, 3))
    g = [draw(weights) for _ in range(n)]
    a = [draw(weights) for _ in range(n)]
    ridge = ""
    if psd_optimistic:
        eps = draw(st.sampled_from(EPSILONS))
        if draw(st.booleans()):
            t = draw(weights)  # eps * t^2 <= 0.4
            a = [t * gj for gj in g]
        else:
            mu = math.ceil(1e3 * eps * sum(aj * aj for aj in a)) / 1e3
            ridge = f" + {mu!r}*(" + " + ".join(f"x[{j}]^2" for j in range(n)) + ")"
    doc = {
        "name": "blocks", "dim_y": 1, "dim_x": n, "A": A.tolist(),
        "b": [draw(st.floats(0.5, 1.5)) for _ in sizes],
        "K_lower": [0.0], "K_upper": [1.0],
        "f": "1 + y[0] + " + " + ".join(f"{a[j]!r}*x[{j}]" for j in range(n)),
        "h": "(" + " + ".join(f"{g[j]!r}*x[{j}]" for j in range(n))
             + f" - {draw(st.floats(0.5, 2.0))!r} - 0.2*y[0])^2" + ridge,
    }
    y = draw(st.floats(0.0, 1.0))
    return bp.problem_from_dict(doc), y, eps if psd_optimistic else draw(st.sampled_from(EPSILONS))


QB = bp.registry_get("QB")
# QB's optimistic Hessian 2(1 - eps*k(y)^2)ee', k(y) = 1 + 4y(1 - y) <= 2, is PSD for eps <= 1/4
qb_selections = st.tuples(st.just(QB), st.floats(0.0, 1.0), st.floats(1e-4, 0.2))


def psd_at(problem, y, eps, sign):
    """Whether the penalized Hessian Q(y) is PSD, so the section is convex at y."""
    return is_psd(bp.penalized_field(problem, eps, sign).coefficients(np.array([y]))[0])


def all_start_runs(problem, y, eps, sign):
    """_fw_run from each of V[:MAX_STARTS] on the penalized section at y."""
    V = bp.enumerate_vertices(problem.follower_set)
    section, lmo = bp.penalized_field(problem, eps, sign).fix([y]), vertex_lmo(V)
    return [_fw_run(section, lmo, x0, FW_TOL, FW_MAX_ITER) for x0 in V[:MAX_STARTS]]


def first_certified(runs):
    """The runs a section convex at y makes: up to its first with gap <= FW_TOL."""
    return next((k for k, (_, _, gap, _) in enumerate(runs, 1) if gap <= FW_TOL), len(runs))


class TestSelectionPaths:
    @pytest.mark.parametrize("name", ["QB", "FS"])
    @pytest.mark.parametrize("sign", [PESSIMISTIC, OPTIMISTIC])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    def test_registry_grid(self, name, sign, eps):
        dense, reference = both_paths(bp.registry_get(name))
        for y in np.linspace(0.0, 1.0, 21):
            assert_same_selection(bp.select_response(dense, [y], eps, sign),
                                  bp.select_response(reference, [y], eps, sign))

    @settings(max_examples=12, deadline=None)
    @given(block_simplex_selections())
    def test_random_block_simplex(self, case):
        problem, y, eps = case
        dense_problem, reference = both_paths(problem)
        dense = bp.select_response(dense_problem, [y], eps)
        assert_same_selection(dense, bp.select_response(reference, [y], eps))
        assert dense.reliable

    @settings(max_examples=12, deadline=None)
    @given(block_simplex_selections())
    def test_json_round_trip_selects_bit_identically(self, case):
        problem, y, eps = case
        again = bp.problem_from_dict(json.loads(json.dumps(bp.problem_to_dict(problem))))
        for sign in (PESSIMISTIC, OPTIMISTIC):
            assert (pickle.dumps(bp.select_response(again, [y], eps, sign))
                    == pickle.dumps(bp.select_response(problem, [y], eps, sign)))

    @settings(max_examples=25, deadline=None)
    @given(block_simplex_selections(), st.sampled_from([PESSIMISTIC, OPTIMISTIC]))
    def test_block_simplex_stops_at_first_certified_run(self, case, sign):
        problem, y, eps = case
        C = problem.follower_set
        sel = bp.select_response(problem, [y], eps, sign)
        assert C.contains(sel.x)
        V = bp.enumerate_vertices(C)
        if sign == OPTIMISTIC:
            if psd_at(problem, y, eps, sign):
                assert sel.n_starts == first_certified(all_start_runs(problem, y, eps, sign))
            else:
                assert sel.n_starts == len(V)
            return
        # the first start is the first vertex; a convex section whose first
        # run certifies is at its minimum and runs no other start
        first = bp.frank_wolfe_minimize(bp.penalized_field(problem, eps).fix([y]), C,
                                        tol=FW_TOL, max_iter=FW_MAX_ITER, start=V[0])
        assert (sel.n_starts == 1) == (first.fw_gap <= FW_TOL)

    def test_optimistic_selection_stops_early_where_convex_at_y(self):
        stopped = []

        @settings(max_examples=25, deadline=None)
        @given(st.one_of(block_simplex_selections(psd_optimistic=True), qb_selections))
        def check(case):
            problem, y, eps = case
            assert psd_at(problem, y, eps, OPTIMISTIC)
            sel = bp.select_response(problem, [y], eps, OPTIMISTIC)
            assert problem.follower_set.contains(sel.x)
            runs = all_start_runs(problem, y, eps, OPTIMISTIC)
            assert abs(sel.penalized_value - min(r[1] for r in runs)) <= FW_TOL
            assert sel.n_starts == first_certified(runs)
            stopped.append(sel.n_starts < len(runs))

        check()
        assert any(stopped)

    def test_pessimistic_selection_makes_no_psd_test(self, monkeypatch):
        # a penalized field with coefficients has a linear leader and a problem's
        # follower is declared convex, so the pessimistic sign is declared convex
        # and _section fixes it as it is: only an optimistic field reaches is_psd
        def no_psd_test(Q):
            raise AssertionError("a pessimistic selection ran is_psd")

        monkeypatch.setattr("bilevelpen.selection.is_psd", no_psd_test)

        @settings(max_examples=15, deadline=None)
        @given(st.one_of(block_simplex_selections(), qb_selections,
                         st.tuples(st.just(bp.registry_get("FS")), st.floats(0.0, 1.0),
                                   st.floats(1e-4, 0.2))))
        def check(case):
            problem, y, eps = case
            assert bp.penalized_field(problem, eps, PESSIMISTIC).convex_in_x
            bp.select_response(problem, [y], eps, PESSIMISTIC)

        check()

    def test_y_free_optimistic_hessian_is_tested_once_per_setup(self, monkeypatch):
        # FS's optimistic Hessian -2*eps*aa' reads no y, so _setup decides its
        # PSD test once per (eps, sign); every selection keeps the bits that a
        # PSD test at each y gives, and the trace text is the one that test made
        tested = []

        def counted_psd(Q):
            tested.append(Q)
            return is_psd(Q)

        def per_probe_section(problem, y, epsilon, sign):
            y = selection._leader_point(problem, y)
            penalized, _, *rest = selection._setup(problem, y, epsilon, sign)
            Q, c, d = penalized.coefficients(y)
            return y, DenseSection(Q, c, d, penalized.structure, counted_psd(Q)), *rest

        def selections(problem):
            return [pickle.dumps(bp.select_response(problem, [y], eps, OPTIMISTIC))
                    for eps in EPSILONS for y in np.linspace(0.0, 1.0, 11)]

        monkeypatch.setattr(selection, "is_psd", counted_psd)
        trace = bp.run_continuation(bp.registry_get("FS"), EpsSchedule(0.1, 0.5, 6),
                                    sign=OPTIMISTIC, cfg=UpperConfig(seed=7))
        assert len(tested) == len(trace.rows) == 6
        assert (hashlib.sha256(json.dumps(trace_to_json(trace)).encode()).hexdigest()
                == FS_OPTIMISTIC_TRACE_SHA256)
        del tested[:]
        once = selections(bp.registry_get("FS"))
        assert len(tested) == len(EPSILONS)
        del tested[:]
        monkeypatch.setattr(selection, "_section", per_probe_section)
        assert selections(bp.registry_get("FS")) == once
        assert len(tested) == len(EPSILONS) + len(once)


# sha256 of the trace_to_json text of a 6-row optimistic FS trace at
# UpperConfig(seed=7), pinned while _section still ran is_psd at every y;
# re-pinned when a cold solve refined only its best climb (row 1's evals 436 to 220)
FS_OPTIMISTIC_TRACE_SHA256 = "f6d0493f172ce1d9c94e60f2f8d103ddb0e0c5f3d812efec36245079de78aa07"
