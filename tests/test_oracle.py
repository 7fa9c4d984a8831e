import dataclasses
import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import cli, oracle, selection
from bilevelpen.cli import oracle_to_json
from bilevelpen.continuation import EpsSchedule
from bilevelpen.lower_solver import _fw_best, independent_rows, lp_minimize, vertex_lmo
from bilevelpen.model import (BilevelProblem, BoxSet, DimensionGuardError,
                              Polytope, ProblemError, field_from_expression)


def make_problem(f_expr, h_expr, dim_y=1, dim_x=4, box=(0.0, 1.0), name="custom",
                 A=None, b=None):
    A = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]] if A is None else A
    b = [1.0, 1.0] if b is None else b
    return BilevelProblem(
        name=name,
        leader_objective=field_from_expression(f_expr, dim_y, dim_x),
        follower_objective=field_from_expression(h_expr, dim_y, dim_x),
        leader_set=BoxSet(lower=[box[0]] * dim_y, upper=[box[1]] * dim_y),
        follower_set=Polytope(A=A, b=b),
    )


def _spy_linspace(monkeypatch):
    """Record the num of every np.linspace call; fail one above the grid guard
    before it allocates."""
    from bilevelpen.oracle import GRID_EVAL_GUARD
    asked, linspace = [], np.linspace

    def spy(start, stop, num=50, **kwargs):
        asked.append(num)
        assert num <= GRID_EVAL_GUARD, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, **kwargs)
    monkeypatch.setattr(np, "linspace", spy)
    return asked


class TestExactLowerSet:
    def test_fs_whole_segment_is_optimal(self, fs):
        desc = bp.exact_lower_set(fs, [0.37])
        assert desc.kind == "vertex_face"
        assert desc.value == 0.0
        np.testing.assert_allclose(sorted(map(tuple, desc.points)),
                                   [(0.0, 1.0), (1.0, 0.0)])

    def test_qb_band(self, qb):
        # the argmin set x0 + x1 = 1 of C, exactly: its two vertices
        desc = bp.exact_lower_set(qb, [0.5])
        assert desc.kind == "vertex_face"
        assert desc.value == 0.0
        np.testing.assert_array_equal(desc.points, [[0, 1, 1, 0], [1, 0, 0, 1]])
        sigma = desc.points[:, 0] + desc.points[:, 1]
        np.testing.assert_array_equal(sigma, 1.0)

    def test_strictly_convex_follower_gives_single_point(self):
        p = make_problem("1 + x[0]", "(x[0] - 0.3)^2 + (x[1] - 0.4)^2")
        desc = bp.exact_lower_set(p, [0.5])
        assert desc.kind == "single_point"
        assert desc.points[0][0] == pytest.approx(0.3, abs=1e-3)
        assert desc.points[0][1] == pytest.approx(0.4, abs=1e-3)

    def test_grid_dimension_guard(self):
        # 5 free coordinates after slack elimination, nonlinear follower objective
        n = 10
        A = np.hstack([np.eye(5), np.eye(5)])
        p = BilevelProblem(
            name="wide",
            leader_objective=field_from_expression("1 + x[0]", 1, n),
            # a follower that reads y keeps the grid
            follower_objective=field_from_expression("(x[0] + x[1] - y[0])^2", 1, n),
            leader_set=BoxSet(lower=[0.0], upper=[1.0]),
            follower_set=Polytope(A=A, b=np.ones(5)),
        )
        with pytest.raises(DimensionGuardError):
            bp.exact_lower_set(p, [0.5])


class TestPessimisticSelect:
    def test_fs_low_end(self, fs):
        r = bp.pessimistic_select(fs, [0.5])
        np.testing.assert_allclose(r.x, [0.0, 1.0], atol=1e-9)
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_qb_band_value(self, qb):
        r = bp.pessimistic_select(qb, [0.5])
        assert r.value == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_grid_point_never_wins(self):
        # f is NaN where x[0] = 0, at 1 of the 11 band points of the step-0.1
        # grid, and np.argmin of the squares once picked it; f = 4 at the others
        p = make_problem("(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1]) + 0*(1/x[0])",
                         "(x[0] + x[1] - 1)^2")
        r = bp.pessimistic_select(p, [0.5], grid_step=0.1)
        assert r.value == pytest.approx(4.0, abs=1e-12)
        assert r.x[0] > 0 and p.follower_set.contains(r.x)

    def test_leader_objective_independent_of_x(self):
        p = make_problem("2 + y[0]", "(x[0] + x[1] - 1)^2")
        r = bp.pessimistic_select(p, [0.25])
        assert r.value == pytest.approx(2.25, abs=1e-12)
        assert p.follower_set.contains(r.x)


class TestSolveThreeLevel:
    def test_fs_certified(self, fs):
        sol = bp.solve_three_level(fs)
        assert abs(sol.y[0] - 0.5) <= 1e-3
        assert abs(sol.leader_value - 2.0) <= 1e-3
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-3)
        assert sol.method == "face_enum"

    def test_qb_certified(self, qb):
        sol = bp.solve_three_level(qb)
        assert abs(sol.leader_value - 4.0) <= 1e-3
        assert abs(sol.follower_value) <= 1e-6
        assert sol.method == "face_enum"

    def test_collapsed_leader_box(self):
        p = make_problem("1 + 4*y[0]*(1 - y[0]) + x[0]", "0",
                         dim_x=2, A=[[1.0, 1.0]], b=[1.0], box=(0.3, 0.3))
        sol = bp.solve_three_level(p)
        assert sol.y[0] == 0.3
        assert sol.leader_value == pytest.approx(1 + 4 * 0.3 * 0.7, abs=1e-9)

    def test_zero_dimensional_follower_set(self):
        # A = I leaves no free coordinate: the x grid and the argmin face
        # are the one point of C
        p = make_problem("2 + x[0]", "(x[0] - 0.3)^2 + x[1]^2", dim_x=2,
                         A=[[1.0, 0.0], [0.0, 1.0]], b=[0.3, 0.7])
        np.testing.assert_array_equal(oracle._intrinsic_grid(p.follower_set, 1e-3), [[0.3, 0.7]])
        desc = bp.exact_lower_set(p, [0.5])
        assert desc.kind == "single_point"
        np.testing.assert_array_equal(desc.points, [[0.3, 0.7]])
        sol = bp.solve_three_level(p)
        np.testing.assert_array_equal(sol.x, [0.3, 0.7])
        assert sol.method == "face_enum" and sol.leader_value == pytest.approx(2.3, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("per_y", [False, True], ids=["argmin_once", "per_y"])
    def test_nan_grid_point_never_wins(self, fs, per_y):
        # NaN at the grid point y = 0.3 only; np.argmax used to pick it
        p = bp.problem_from_dict({**bp.problem_to_dict(fs),
                                  "f": "1 + 4*y[0]*(1 - y[0]) + x[0] + 0*(1/(y[0] - 0.3))"})
        sol = bp.solve_three_level(_per_y(p) if per_y else p)
        np.testing.assert_array_equal(sol.y, [0.5])
        assert sol.leader_value == 2.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("per_y", [False, True], ids=["argmin_once", "per_y"])
    def test_nan_everywhere_is_a_problem_error(self, fs, per_y):
        p = bp.problem_from_dict({**bp.problem_to_dict(fs),
                                  "f": "1 + x[0] + 0*(1/(y[0] - y[0]))"})
        with pytest.raises(ProblemError, match="leader objective is not finite"):
            bp.solve_three_level(_per_y(p) if per_y else p, y_grid_step=0.05)

    @pytest.mark.parametrize("call", [bp.pessimistic_select, bp.exact_lower_set])
    @pytest.mark.parametrize("y", [[5.0], [0.5, 0.9]], ids=["outside", "long"])
    def test_leader_point_outside_the_box_raises(self, qb, call, y):
        # pessimistic_select(QB, [5.0]) once returned -158.0 and [0.5, 0.9]
        # the response at y = 0.5, where select_response raises
        with pytest.raises(ValueError, match="outside the leader box"):
            call(qb, y)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("h", ["(y[0]/y[0]) * x[0]", "(y[0]/y[0]) * (x[0] - 0.5)^2"],
                             ids=["vertex_face", "grid"])
    def test_non_finite_follower_value_raises(self, h):
        # NaN at y = 0 once emptied the argmin set: a TypeError deep in
        # Frank-Wolfe on the vertex path, an empty argmin on the grid path
        p = make_problem("1 + x[0]", h, dim_x=2, A=[[1.0, 1.0]], b=[1.0])
        with pytest.raises(ProblemError, match=r"follower objective is nan at y = \[0\.0\]"):
            bp.solve_three_level(p)

    def test_two_dimensional_polish_leaves_the_grid(self):
        p = make_problem("3 - (y[0] - 0.33)^2 - (y[1] - 0.61)^2 + x[0]", "0",
                         dim_y=2, dim_x=2, A=[[1.0, 1.0]], b=[1.0])
        sol = bp.solve_three_level(p, y_grid_step=0.05)
        # the best grid point is (0.35, 0.6); the polish moves both coordinates
        assert sol.y[0] != 0.35 and sol.y[1] != 0.6
        np.testing.assert_allclose(sol.y, [0.33, 0.61], atol=sol.resolution)
        assert 3.0 - 2 * sol.resolution ** 2 <= sol.leader_value <= 3.0
        np.testing.assert_array_equal(sol.x, [0.0, 1.0])

    @pytest.mark.parametrize("fn,kwargs", [
        (bp.solve_three_level, dict(y_grid_step=0.0)),
        (bp.solve_three_level, dict(x_grid_step=-1e-3)),
        (bp.exact_lower_set, dict(y=[0.5], grid_step=0.0)),
        (bp.pessimistic_select, dict(y=[0.5], grid_step=-1.0)),
        # an infinite step grids one point: on QB the lower set was the
        # single point (1, 1, 0, 0) with h = 1, above the minimum 0
        (bp.solve_three_level, dict(y_grid_step=math.inf)),
        (bp.solve_three_level, dict(x_grid_step=math.inf)),
        (bp.exact_lower_set, dict(y=[0.5], grid_step=math.inf)),
    ], ids=["three_level_y", "three_level_x", "exact_lower_set", "pessimistic_select",
            "three_level_y_inf", "three_level_x_inf", "exact_lower_set_inf"])
    @pytest.mark.parametrize("name", ["FS", "QB"])
    def test_nonpositive_grid_steps_rejected(self, fn, kwargs, name):
        with pytest.raises(ValueError, match="must be positive"):
            fn(bp.registry_get(name), **kwargs)

    @pytest.mark.parametrize("fn,kwargs", [
        (bp.solve_three_level, dict(y_grid_step=0.1, x_grid_step=0.1)),
        (bp.exact_lower_set, dict(y=[0.5])),
        (bp.pessimistic_select, dict(y=[0.5])),
    ], ids=["three_level", "exact_lower_set", "pessimistic_select"])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, fs, fn, kwargs, tol):
        # a NaN tol used to keep no point of the argmin set
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            fn(fs, tol=tol, **kwargs)

    @pytest.mark.parametrize("name", ["FS", "QB"])
    def test_three_level_checks_tol_before_any_grid(self, monkeypatch, name):
        from bilevelpen import oracle
        for attr in ("_grid_for", "enumerate_vertices"):
            monkeypatch.setattr(oracle, attr, lambda *a, attr=attr: pytest.fail(f"{attr} ran"))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            bp.solve_three_level(bp.registry_get(name), tol=math.nan)

    def test_tiny_leader_step_is_coarsened_before_allocating(self, monkeypatch):
        from bilevelpen import oracle
        asked = _spy_linspace(monkeypatch)
        K = BoxSet(lower=[0.0], upper=[1.0])
        axes, spacing = oracle._leader_grid(K, 1e-9, 10)  # a small budget
        assert asked == [10] and [len(a) for a in axes] == [10]
        assert spacing == pytest.approx(1.0 / 9)
        K2 = BoxSet(lower=[0.0, -1.0], upper=[1.0, 1.0])
        asked.clear()
        axes, _ = oracle._leader_grid(K2, 1e-9, 100)
        assert len(asked) == 2 and max(asked) <= 100
        assert [len(a) for a in axes] == asked and math.prod(asked) <= 100
        # a collapsed or thin axis keeps its 1-3 points; the other axis alone
        # shrinks to the budget (these boxes once got 94, 134 and 162 points)
        for upper in ([1.0, 0.0], [1.0, 1e-3], [1.0, 2e-3]):
            axes, _ = oracle._leader_grid(BoxSet(lower=[0.0, 0.0], upper=upper), 1e-3, 9)
            assert math.prod(map(len, axes)) <= 9, upper

    @pytest.mark.parametrize("lower,upper,step", [
        ([0.0], [1.0], 0.1),
        ([0.0, -1.0], [1.0, 2.0], 0.25),
        ([0.0, 0.3], [1.0, 0.3], 0.2),  # the second axis is collapsed
    ], ids=["1d", "2d", "collapsed_axis"])
    def test_leader_grid_is_one_array_in_product_order(self, lower, upper, step):
        built, _ = oracle._leader_grid(BoxSet(lower=lower, upper=upper), step, 10 ** 7)
        axes = [np.linspace(lo, hi, round((hi - lo) / step) + 1)
                for lo, hi in zip(lower, upper)]
        ref = np.array(list(itertools.product(*axes)))
        size = math.prod(map(len, axes))
        grid = oracle._grid_rows(built, 0, size)
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
        assert grid.shape == (size, len(lower))
        assert grid.tobytes() == ref.tobytes()
        # built in runs of 4 points, as the oracle scans it in chunks
        runs = [oracle._grid_rows(built, start, min(start + 4, size))
                for start in range(0, size, 4)]
        assert np.concatenate(runs).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["FS", "QB"])
    def test_solution_is_not_a_view_of_the_leader_grid(self, monkeypatch, name):
        grids, grid_rows = [], oracle._grid_rows

        def spy(*args):
            grids.append(grid_rows(*args))
            return grids[-1]
        monkeypatch.setattr(oracle, "_grid_rows", spy)
        # at this step the best grid point is the optimum, so the polish keeps it
        sol = bp.solve_three_level(bp.registry_get(name), y_grid_step=0.1)
        assert sol.y[0] == 0.5 and len(grids) == 1
        assert not np.shares_memory(sol.y, grids[0])

    def test_subnormal_leader_step_coarsens_like_a_tiny_one(self):
        K = BoxSet(lower=[0.0], upper=[1.0])
        (axis,), spacing = oracle._leader_grid(K, 1e-320, 9)  # a small budget
        (ref,), ref_spacing = oracle._leader_grid(K, 1e-9, 9)
        np.testing.assert_array_equal(axis, ref)
        assert len(axis) == 9 and spacing == ref_spacing == 0.125

    @pytest.mark.parametrize("step", [1e-10, 1e-4, 1e-320])
    def test_x_grid_guard_raises_before_allocating(self, monkeypatch, qb, step):
        from bilevelpen import oracle
        asked = _spy_linspace(monkeypatch)
        with pytest.raises(DimensionGuardError, match="guard; coarsen the step"):
            oracle._intrinsic_grid(qb.follower_set, step)
        assert asked == []

    def test_leader_dimension_guard(self):
        p = BilevelProblem(
            name="wide_leader",
            leader_objective=field_from_expression("1 + y[0] + y[1] + y[2] + x[0]", 3, 2),
            follower_objective=field_from_expression("0", 3, 2),
            leader_set=BoxSet(lower=[0.0] * 3, upper=[1.0] * 3),
            follower_set=Polytope(A=[[1.0, 1.0]], b=[1.0]),
        )
        with pytest.raises(DimensionGuardError):
            bp.solve_three_level(p)


def _per_y(problem):
    """The same problem with a follower that hides its expression: such a
    field may read y, so the three-level oracle computes the argmin set at
    every y, and a quadratic one takes the x grid, not its argmin face."""
    h = dataclasses.replace(problem.follower_objective, expression=None)
    return dataclasses.replace(problem, follower_objective=h)


def _count_calls(monkeypatch, name):
    """Spy on oracle's name: the list of what each call returned."""
    results, fn = [], getattr(oracle, name)

    def spy(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(oracle, name, spy)
    return results


SIMPLEX_3 = dict(dim_x=3, A=[[1.0, 1.0, 1.0]], b=[1.0])


def _same_solutions(a, b):
    for fld in dataclasses.fields(a):
        u, v = getattr(a, fld.name), getattr(b, fld.name)
        if isinstance(u, np.ndarray):
            assert u.tobytes() == v.tobytes(), fld.name
        else:
            assert u == v and type(u) is type(v), fld.name


@st.composite
def _y_free_block_simplices(draw):
    """A product of simplices with a follower that reads no y, linear or
    a convex quadratic (g'x - t)^2, plus a ridge, and a leader whose
    coefficients read y: linear in x, or a quadratic, concave or convex in
    x, whose least value on the face Frank-Wolfe finds."""
    sizes = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3)]))
    n = sum(sizes)
    A = np.zeros((len(sizes), n))
    for k, start in enumerate(np.cumsum([0, *sizes[:-1]])):
        A[k, start:start + sizes[k]] = 1.0
    positive = [0.5, 1.0, 1.5, 2.0]  # few, so values often tie
    gx = " + ".join(f"{draw(st.sampled_from(positive))!r}*x[{j}]" for j in range(n))
    kind = draw(st.sampled_from(["linear", "quadratic", "ridge"]))
    h = gx if kind == "linear" else f"({gx} - {draw(st.sampled_from([0.5, 1.0, 2.0]))!r})^2"
    if kind == "ridge":
        h += " + 0.25*(" + " + ".join(f"x[{j}]^2" for j in range(n)) + ")"
    quadratic = draw(st.booleans())
    weights = st.sampled_from(positive if quadratic else positive + [-1.0])
    f = "1 + 4*y[0]*(1 - y[0]) + " + " + ".join(
        f"({draw(weights)!r} + {draw(weights)!r}*y[0])*x[{j}]" for j in range(n))
    if quadratic:
        f += f" {draw(st.sampled_from('+-'))} 0.5*(x[0] - x[{n - 1}])^2"
    return make_problem(f, h, dim_x=n, A=A, b=[draw(st.sampled_from([0.5, 1.0])) for _ in sizes],
                        name="blocks")


class TestArgminSetOnce:
    @pytest.mark.parametrize("problem", [
        "QB", "FS",
        make_problem("2 + y[0]*(1 - y[0]) + x[0]*y[0] - x[2]", "(x[0] - x[1])^2",
                     name="quadratic", **SIMPLEX_3),
        make_problem("1 + (y[0] - 0.3)^2 + x[1]*y[0] + x[2]", "x[0]",
                     name="linear", **SIMPLEX_3),
    ], ids=["QB", "FS", "quadratic_simplex", "linear_simplex"])
    def test_matches_the_per_y_scan_bit_for_bit(self, monkeypatch, problem):
        if isinstance(problem, str):
            problem = bp.registry_get(problem)
        once = bp.solve_three_level(problem)  # caches the argmin face, if any
        # the same problem and face, scanned as if the follower read y
        monkeypatch.setattr(oracle, "_reads_y", lambda h: True)
        lower_sets = _count_calls(monkeypatch, "exact_lower_set")
        scan = bp.solve_three_level(problem)
        assert len(lower_sets) > 100
        _same_solutions(once, scan)

    @settings(max_examples=60, deadline=None)
    @given(problem=_y_free_block_simplices())
    def test_matches_the_per_y_scan_on_random_block_simplices(self, problem):
        once = bp.solve_three_level(problem, y_grid_step=0.05, x_grid_step=0.05)
        with mock.patch.object(oracle, "_reads_y", lambda h: True):
            scan = bp.solve_three_level(problem, y_grid_step=0.05, x_grid_step=0.05)
        _same_solutions(once, scan)

    def test_qb_computes_one_argmin_set(self, monkeypatch, qb):
        lower_sets = _count_calls(monkeypatch, "exact_lower_set")
        selects = _count_calls(monkeypatch, "pessimistic_select")
        bp.solve_three_level(qb)
        assert len(lower_sets) == 1 and selects == []

    def test_follower_without_expression_takes_neither_face_nor_one_scan(self, monkeypatch,
                                                                          qb):
        # QB's follower with its expression hidden: nothing tells that it
        # reads no y, so it is gridded and its argmin set is found at every y
        monkeypatch.setattr(oracle, "frank_wolfe_minimize",
                            lambda *a, **k: pytest.fail("the face was tried"))
        p = _per_y(qb)
        assert oracle._reads_y(p.follower_objective)
        lower_sets = _count_calls(monkeypatch, "exact_lower_set")
        responses = _count_calls(monkeypatch, "_worst_response")
        sol = bp.solve_three_level(p, y_grid_step=0.1, x_grid_step=0.1)
        assert sol.method == "grid" and oracle._argmin_face(p) == (None, None)
        assert len(lower_sets) > 10 and len(lower_sets) == len(responses)

    def test_follower_reading_y_keeps_the_per_y_scan(self, monkeypatch, qb):
        # argmin set x0 + x1 = y, where the leader is (1 + 4y(1 - y))(1 + y)
        p = dataclasses.replace(qb, follower_objective=field_from_expression(
            "(x[0] + x[1] - y[0])^2", 1, 4))
        # the oracle scores f itself: it builds no squared-leader section
        assert not hasattr(oracle, "penalized_field")
        monkeypatch.setattr(selection, "penalized_field",
                            lambda *a: pytest.fail("a squared-leader section was built"))
        lower_sets = _count_calls(monkeypatch, "exact_lower_set")
        responses = _count_calls(monkeypatch, "_worst_response")
        selects = _count_calls(monkeypatch, "pessimistic_select")
        step = 0.01
        sol = bp.solve_three_level(p, y_grid_step=step, x_grid_step=step)
        # one argmin set and one response per leader point
        assert selects == [] and sol.method == "grid"
        assert len(lower_sets) > 100 and len(lower_sets) == len(responses)
        y = np.linspace(0.0, 1.0, 100001)
        brute = float(np.max((1 + 4 * y * (1 - y)) * (1 + y)))
        # the band x0 + x1 = y is hit within step / 2 and the leader's slope
        # along x0 + x1 is at most 2
        assert abs(sol.leader_value - brute) <= step
        assert sol.y[0] == pytest.approx(math.sqrt(5 / 12), abs=step)


def _meshgrid_reference(C, step):
    """The x grid as built before it was written straight into X: meshgrid,
    stack, a zeroed X and a column copy. Kept to pin the grid's bits."""
    rows = independent_rows(C.A)
    A = C.A[rows]
    b = C.b[rows]
    r, n = A.shape[0], C.dim
    basic = independent_rows(A.T)
    free = [j for j in range(n) if j not in basic]
    B = A[:, basic]
    N = A[:, free]
    bounds, counts = [], []
    for j in free:
        c = np.zeros(n)
        c[j] = 1.0
        lo = lp_minimize(c, C).value
        c[j] = -1.0
        hi = -lp_minimize(c, C).value
        bounds.append((lo, hi))
        counts.append(1 if hi - lo <= step * 1e-9 else int(round((hi - lo) / step)) + 1)
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(bounds, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    Xfree = np.stack([m.ravel() for m in mesh], axis=1)
    X = np.zeros((Xfree.shape[0], n))
    X[:, free] = Xfree
    X[:, basic] = np.linalg.solve(B, b[:, None] - N @ Xfree.T).T
    mask = X.min(axis=1) >= -oracle.FEAS_TOL
    return X[mask], B, len(X)


# no column of A is a unit vector, so no basic block is the identity
DENSE_BASIS = Polytope(A=[[2.0, 1.0, 1.0, 1.0], [1.0, 3.0, 1.0, 2.0]], b=[1.0, 1.0])
# the QR pivot picks the two unit columns, and no entry of N is zero
IDENTITY_DENSE_N = Polytope(A=[[1.0, 0.0, 0.5, 0.25], [0.0, 1.0, 0.25, 0.5]], b=[1.0, 1.0])
# x1 = x4 = 0 on a row whose b is -0.0; the basic block is the identity
NEG_ZERO_B = Polytope(A=[[1.0, 0.0, 0.1, 0.1, 0.0], [0.0, 1.0, 0.0, 0.0, 0.5]], b=[0.7, -0.0])


class TestIntrinsicGrid:
    @pytest.mark.parametrize("step", [1e-3, 2e-3, 0.05])
    @pytest.mark.parametrize("polytope", [
        bp.registry_get("QB").follower_set, bp.registry_get("FS").follower_set,
        Polytope(A=SIMPLEX_3["A"], b=SIMPLEX_3["b"]), DENSE_BASIS,
    ], ids=["QB", "FS", "simplex_3", "dense_basis"])
    def test_bits_match_the_meshgrid_build(self, polytope, step):
        ref, B, size = _meshgrid_reference(polytope, step)
        X = oracle._intrinsic_grid(polytope, step)
        assert X.shape == ref.shape and X.tobytes() == ref.tobytes()
        if polytope is DENSE_BASIS:
            assert not np.array_equal(B, np.eye(2))
            assert len(X) < size  # the feasibility mask dropped rows

    @pytest.mark.parametrize("step", [0.01, 0.05])
    def test_identity_basis_with_dense_n_skips_the_solve(self, monkeypatch, step):
        ref, B, _ = _meshgrid_reference(IDENTITY_DENSE_N, step)
        assert np.array_equal(B, np.eye(2))
        monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("solve ran"))
        X = oracle._intrinsic_grid(IDENTITY_DENSE_N, step)
        assert X.shape == ref.shape and X.tobytes() == ref.tobytes()

    def test_negative_zero_in_b_keeps_the_solve(self):
        ref, B, _ = _meshgrid_reference(NEG_ZERO_B, 0.05)
        assert np.array_equal(B, np.eye(2))
        # b - N x is -0.0 in every x1, but the solve turns it into +0.0
        # where x0 is a hair below zero
        assert 0 < np.signbit(ref[:, 1]).sum() < len(ref)
        X = oracle._intrinsic_grid(NEG_ZERO_B, 0.05)
        assert X.shape == ref.shape and X.tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 2), cols=st.integers(3, 5), data=st.data(),
           step=st.sampled_from([0.05, 0.1, 0.25]))
    def test_random_polytopes_match_the_meshgrid_build(self, rows, cols, data, step):
        entry = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
        A = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
        b = data.draw(st.lists(entry, min_size=rows, max_size=rows))
        # a lower guard keeps every grid small: a larger one raises
        # DimensionGuardError, a ProblemError, and the draw is skipped
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "GRID_EVAL_GUARD", 10 ** 5)
            try:
                C = Polytope(A=A, b=b)
                X = oracle._intrinsic_grid(C, step)
            except ProblemError:
                assume(False)
        ref, _, _ = _meshgrid_reference(C, step)
        assert X.shape == ref.shape and X.tobytes() == ref.tobytes()
        assert (X >= -oracle.FEAS_TOL).all()


def _qb_with(name, h, follower_set=None):
    qb = bp.registry_get("QB")
    return dataclasses.replace(
        qb, name=name, follower_objective=field_from_expression(h, 1, 4),
        follower_set=qb.follower_set if follower_set is None else follower_set)


# oracle_to_json text of solve_three_level at its default steps: FS pinned
# before the x grid was built one row per coordinate, the others when
# their convex quadratic followers took the exact argmin face
PINNED_REPORTS = {
    "QB": (lambda: bp.registry_get("QB"),
           '{"schema": "oracle-v1", "problem": "QB", "y_best": [0.5], "x_best": '
           '[0.0, 1.0, 1.0, 0.0], "leader_value": 4.0, "follower_value": 0.0, '
           '"method": "face_enum", "resolution": 0.0001}'),
    "FS": (lambda: bp.registry_get("FS"),
           '{"schema": "oracle-v1", "problem": "FS", "y_best": [0.5], "x_best": [0.0, 1.0], '
           '"leader_value": 2.0, "follower_value": 0.0, "method": "face_enum", '
           '"resolution": 0.0001}'),
    "QB_band": (lambda: _qb_with("QB_band", "(x[0] + x[1] - 0.7)^2"),
                '{"schema": "oracle-v1", "problem": "QB_band", "y_best": [0.5], "x_best": '
                '[0.0, 0.7, 1.0, 0.30000000000000004], "leader_value": 3.4, '
                '"follower_value": 0.0, "method": "face_enum", "resolution": 0.0001}'),
    "dense_basis": (lambda: _qb_with("dense_basis", "(x[2] + x[3] - 0.5)^2",
                                     Polytope(A=DENSE_BASIS.A, b=DENSE_BASIS.b)),
                    '{"schema": "oracle-v1", "problem": "dense_basis", "y_best": [0.5], '
                    '"x_best": [0.25, 0.0, 0.25, 0.25], "leader_value": 2.5, '
                    '"follower_value": 0.0, "method": "face_enum", "resolution": 0.0001}'),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_oracle_report_text_is_pinned(name):
    make, text = PINNED_REPORTS[name]
    assert json.dumps(oracle_to_json(bp.solve_three_level(make()))) == text


# SHA-256 of CLI reports: the --format json reports of the README's QB solve
# and of seed-7 QB continuations of both signs, pinned before FS and QB were
# built from problem documents; their CSVs, the QB oracle's CSV and the rates
# reports of FS and QB (which exits 2), pinned before the report format moved
# into bilevelpen.cli; the QB oracle's CSV and QB's rates reports re-pinned
# when QB's oracle took the exact argmin face; the optimistic reports re-pinned
# when a section convex at y stopped at its first certified run (x moved within
# the argmin face on rows 1 and 7); the solve and continuation reports, their
# CSVs and the rates JSON reports re-pinned when a cold solve refined only its
# best climb (the evals of a cold solve: 436 to 220, 438 to 226 in rates); the
# continuation reports, their CSVs and the rates JSON reports re-pinned when a
# warm row went on at a step read from how far the path last moved (the evals
# of rows 3 and later: 29 to 11); the solve and continuation reports, their CSVs
# and the rates JSON reports re-pinned when a cold solve's starts were rounded
# to the mesh of its last coarse poll (the evals of a cold solve: 220 to 218,
# 226 to 218 in rates); the continuation reports, their CSVs and the rates JSON
# reports re-pinned when a warm row whose first poll finds nothing went on at
# its step floored at MIN_STEP, and row 2 at a step of 0 (the evals of row 2:
# 29 to 5, of rows 3 and later: 11 to 5). Each entry: argv, report file, digest,
# exit code.
_SOLVE = ["solve", "--problem", "QB", "--epsilon", "0.1", "--seed", "7"]
_PESSIMISTIC = ["continuation", "--problem", "QB", "--seed", "7"]
_OPTIMISTIC = _PESSIMISTIC + ["--sign", "optimistic"]
_JSON, _CSV = ["--format", "json"], ["--format", "csv"]
PINNED_CLI_REPORTS = {
    "solve": (_SOLVE + _JSON, "QB_solve.json",
              "b5038d99860c3bbb67fdb4a8366c06efc39cabd49fb111ffff9312d5bdca33b2", 0),
    "pessimistic": (_PESSIMISTIC + _JSON, "QB_trace.json",
                    "61f5cbc8aa5e508370f1c03692bc490dad62e968f0339d3db7d99ce8fb2aeb25", 0),
    "optimistic": (_OPTIMISTIC + _JSON, "QB_trace.json",
                   "d6707c7abb81c1f8ab4b9000aa7ae3a9749ea5251ae024b4f7984d19ac4cba10", 0),
    "solve_csv": (_SOLVE + _CSV, "QB_solve.csv",
                  "97e43f099c42d09d0ffb88434ac9ebc13e2ba7114c3a7ea4810f0dd9d587a837", 0),
    "pessimistic_csv": (_PESSIMISTIC + _CSV, "QB_trace.csv",
                        "fe4b1a27815593b8deb2e0e422ce92471c3282a2dbc9520aa00a7908f426256e", 0),
    "optimistic_csv": (_OPTIMISTIC + _CSV, "QB_trace.csv",
                       "3d60a1f61b025029b415f59b3ac477ecfb3aad9804f3bd07f1d1bdd290d5b4c6", 0),
    "oracle_csv": (["oracle", "--problem", "QB"] + _CSV, "QB_oracle.csv",
                   "ff1d19fdbb0183baf7445d5bf3375c105cad46a351b55aff3d1fa9b433e66bbc", 0),
    "rates_fs": (["rates", "--problem", "FS"] + _JSON, "FS_rates.json",
                 "8f6852a902e79def1a708f18448fe2c94d74471e4a375418d5c953cdea62620c", 0),
    "rates_fs_csv": (["rates", "--problem", "FS"] + _CSV, "FS_gaps.csv",
                     "a1f59c1bc51e2cafb4c43aec46533b5f24ba8270287a11036fa8fe56c1d6df94", 0),
    "rates_qb": (["rates", "--problem", "QB"] + _JSON, "QB_rates.json",
                 "8ae856b4c74eeb302746c6aa91c874462d1c71af7e0342f0072fa669215f4e92", 2),
    "rates_qb_csv": (["rates", "--problem", "QB"] + _CSV, "QB_gaps.csv",
                     "c3070053d4abc11a181e7a34c29b51f71a6b99cc5f2d9ef9316b6643d85a39a0", 2),
}


@pytest.mark.parametrize("name", PINNED_CLI_REPORTS)
def test_cli_report_bytes_are_pinned(tmp_path, capsys, name):
    argv, report, digest, code = PINNED_CLI_REPORTS[name]
    assert cli.main(argv + ["--output", str(tmp_path)]) == code
    assert [p.name for p in tmp_path.iterdir()] == [report]
    assert hashlib.sha256((tmp_path / report).read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def qb_pair(qb):
    oracle = bp.solve_three_level(qb)
    trace = bp.run_continuation(qb, EpsSchedule(0.1, 0.5, 8))
    return oracle, trace


class TestGapTable:
    def test_matches_closed_form(self, qb_pair):
        oracle, trace = qb_pair
        for eps, gap in bp.gap_table(oracle, trace):
            assert gap == pytest.approx(16 * eps / (1 + 4 * eps), abs=5e-4)

    def test_gaps_never_meaningfully_negative(self, qb_pair):
        oracle, trace = qb_pair
        assert all(gap >= -2e-4 for _, gap in bp.gap_table(oracle, trace))

    def test_fs_gaps_tiny(self, fs):
        oracle = bp.solve_three_level(fs)
        trace = bp.run_continuation(fs, EpsSchedule(0.1, 0.5, 6))
        assert all(abs(gap) <= 2e-4 for _, gap in bp.gap_table(oracle, trace))

    def test_problem_mismatch_rejected(self, qb_pair, fs):
        oracle, _ = qb_pair
        trace = bp.run_continuation(fs, EpsSchedule(0.1, 0.5, 4))
        with pytest.raises(ValueError):
            bp.gap_table(oracle, trace)

    def test_optimistic_trace_rejected(self, qb_pair, qb):
        # every gap to an optimistic trace is negative (-2.0, -0.91, ...), so
        # fit_rate once read them as an exact selection
        oracle, _ = qb_pair
        trace = bp.run_continuation(qb, EpsSchedule(0.1, 0.5, 4), sign=-1)
        with pytest.raises(ValueError, match="pessimistic trace"):
            bp.gap_table(oracle, trace)


class TestLimitCertification:
    def test_trace_limit_agrees_with_oracle_selection(self, qb, fs):
        # the continuation limit lands on the worst-case selection value
        for problem in (qb, fs):
            trace = bp.run_continuation(problem, EpsSchedule(0.1, 0.5, 12))
            est = bp.limit_estimate(trace)
            f = problem.leader_objective
            at_limit = f.evaluate(est.y_limit, est.x_limit)
            oracle_value = bp.pessimistic_select(problem, est.y_limit).value
            assert abs(at_limit - oracle_value) <= 1e-3


class TestExport:
    def test_oracle_json_schema(self, fs):
        sol = bp.solve_three_level(fs)
        doc = oracle_to_json(sol)
        assert doc["schema"] == "oracle-v1"
        assert doc["problem"] == "FS"
        assert doc["leader_value"] == pytest.approx(2.0, abs=1e-3)
        assert "resolution" in doc


def _block_simplex(sizes):
    A = np.zeros((len(sizes), sum(sizes)))
    for i, start in enumerate(np.cumsum([0, *sizes[:-1]])):
        A[i, start:start + sizes[i]] = 1.0
    return Polytope(A=A, b=np.ones(len(sizes)))


def _linear_text(const, coefs):
    return " + ".join([repr(float(const))]
                      + [f"{float(c)!r}*x[{j}]" for j, c in enumerate(coefs) if c])


class TestArgminFace:
    @settings(max_examples=40, deadline=None)
    @given(polytope=st.sampled_from(["2+2", "3+2", "2+2+2", "dense_basis"]), data=st.data())
    def test_face_value_matches_the_lp_over_the_argmin_set(self, polytope, data):
        # h = |G x - G x0|^2 for a point x0 of C: its argmin set is C with
        # G x = G x0, where the worst response to a positive linear f is an LP
        from scipy.optimize import linprog
        C = DENSE_BASIS if polytope == "dense_basis" else _block_simplex(
            [int(k) for k in polytope.split("+")])
        n = C.dim
        ints = st.integers(-3, 3)
        G = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                        min_size=1, max_size=3)), dtype=float)
        assume(G.any(axis=1).all())
        V = oracle.enumerate_vertices(C)
        w = np.array(data.draw(st.lists(st.integers(0, 4), min_size=len(V), max_size=len(V))))
        assume(w.any())
        t = G @ (w @ V / w.sum())
        h = " + ".join(f"({_linear_text(-ti, g)})^2" for g, ti in zip(G, t))
        c = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        p = BilevelProblem(
            name="face", leader_objective=field_from_expression(
                f"(1 + y[0]) * ({_linear_text(1.0, c)})", 1, n),
            follower_objective=field_from_expression(h, 1, n),
            leader_set=BoxSet(lower=[0.0], upper=[1.0]), follower_set=Polytope(A=C.A, b=C.b))
        desc = bp.exact_lower_set(p, [0.5])
        assert desc.kind in ("vertex_face", "single_point")
        assert all(p.follower_set.contains(x) for x in desc.points)
        ref = linprog(c, A_eq=np.vstack([C.A, G]), b_eq=np.concatenate([C.b, t]),
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        worst = 1.5 * (1.0 + ref.fun)
        assert bp.pessimistic_select(p, [0.5]).value == pytest.approx(worst, rel=1e-9)
        sol = bp.solve_three_level(p, y_grid_step=0.1)
        assert sol.method == "face_enum" and sol.y[0] == 1.0
        assert sol.leader_value == pytest.approx(2.0 * (1.0 + ref.fun), rel=1e-9)

    def test_the_linear_part_bounds_the_face(self):
        # c = e2 is not in the range of Q: without c'x = c'x*, the face would
        # take in x2 > 0, where h is higher
        p = make_problem("1 + x[2] + 2*x[3]", "(x[0] - x[1])^2 + x[2]", dim_x=5,
                         A=[[1.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0]], b=[1.0, 1.0])
        desc = bp.exact_lower_set(p, [0.5])
        assert desc.kind == "vertex_face"
        np.testing.assert_allclose(desc.points, [[0.5, 0.5, 0, 0, 1], [0.5, 0.5, 0, 1, 0]],
                                   atol=1e-12)
        assert bp.pessimistic_select(p, [0.5]).value == pytest.approx(1.0, abs=1e-12)

    def _qb_face(self, monkeypatch, fw):
        """QB's argmin set through Frank-Wolfe replaced by fw; the x grid at step 0.1."""
        monkeypatch.setattr(oracle, "frank_wolfe_minimize", fw)
        return bp.exact_lower_set(_qb_with("QB", "(x[0] + x[1] - 1)^2"), [0.5], grid_step=0.1)

    @pytest.mark.parametrize("lie", [
        dict(fw_gap=1e-9),                        # x* does not certify
        dict(x=np.array([2.0, 0.0, 0.0, 0.0])),   # S is empty: x0 = 2 is outside C
        dict(value=-1.0),                         # the face's h lies above the band
    ], ids=["uncertified", "empty", "band"])
    def test_a_face_that_fails_a_check_keeps_the_grid(self, monkeypatch, lie):
        from bilevelpen.lower_solver import FwSolution, frank_wolfe_minimize

        def fw(*args, **kwargs):
            sol = frank_wolfe_minimize(*args, **kwargs)
            return FwSolution(**{**dataclasses.asdict(sol), **lie})
        desc = self._qb_face(monkeypatch, fw)
        assert desc.kind == "grid_cloud" and len(desc.points) == 11

    def test_the_face_passes_its_checks(self, monkeypatch):
        from bilevelpen.lower_solver import frank_wolfe_minimize
        desc = self._qb_face(monkeypatch, frank_wolfe_minimize)
        assert desc.kind == "vertex_face"

    def test_more_than_twelve_variables_keep_the_grid(self):
        # three free coordinates: the grid is small, and S's vertices would
        # need the enumeration guarded to 12 variables
        A = np.zeros((10, 13))
        for i in range(3):
            A[i, 2 * i:2 * i + 2] = 1.0
        A[3:, 6:] = np.eye(7)
        p = make_problem("1 + x[0]", "(x[0] + x[2] - 1)^2", dim_x=13, A=A,
                         b=[1.0] * 3 + [0.5] * 7)
        desc = bp.exact_lower_set(p, [0.5], grid_step=0.1)
        assert desc.kind == "grid_cloud"
        np.testing.assert_allclose(desc.points[:, 0] + desc.points[:, 2], 1.0)

    @pytest.mark.parametrize("follower", ["reads_y", "general"])
    def test_other_followers_keep_the_grid(self, monkeypatch, follower):
        monkeypatch.setattr(oracle, "frank_wolfe_minimize",
                            lambda *a, **k: pytest.fail("the face was tried"))
        h = field_from_expression("(x[0] + x[1] - 1 + 0*y[0])^2", 1, 4)
        if follower == "general":
            h = dataclasses.replace(field_from_expression("(x[0] + x[1] - 1)^2", 1, 4),
                                    structure="general", coefficients=None)
        p = dataclasses.replace(bp.registry_get("QB"), follower_objective=h)
        assert bp.exact_lower_set(p, [0.5], grid_step=0.1).kind == "grid_cloud"
        assert bp.solve_three_level(p, y_grid_step=0.1, x_grid_step=0.1).method == "grid"


def _simplex_face_problem(n, face, f_text):
    """The simplex of dim n, with a follower whose argmin set is the face
    spanned by the unit vectors of face (in order)."""
    off = [j for j in range(n) if j not in face]
    h = " + ".join(f"x[{j}]" for j in off) if off else "0"
    return make_problem(f_text, h, dim_x=n, A=[[1.0] * n], b=[1.0])


@st.composite
def _simplex_faces(draw):
    """(n, face, leader coefficients, leader points) on the simplex of dim n;
    coefficients from a small set, so vertices often tie."""
    n = draw(st.integers(2, 5))
    face = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted))
    coefs = draw(st.lists(st.sampled_from([1, 2, 3, 0.5]), min_size=n, max_size=n))
    ys = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.75, 1.0]), min_size=1, max_size=6))
    return n, face, coefs, ys


class TestFaceBatch:
    @settings(max_examples=60, deadline=None)
    @given(case=_simplex_faces())
    @example(case=(3, [0, 1, 2], [3, 1, 1], [0.0, 0.25, 1.0]))  # ties at vertices 1 and 2
    def test_matches_frank_wolfe_bit_for_bit(self, case):
        n, face, coefs, ys = case
        f_text = f"0.5 + y[0]*(1 - y[0]) + {_linear_text(0.0, coefs)}"
        p = _simplex_face_problem(n, face, f_text)
        desc = bp.exact_lower_set(p, [0.5])
        assume(desc.kind == "vertex_face")
        f, V = p.leader_objective, desc.points
        Y = np.array(ys)[:, None]
        values, X = oracle._worst_rows(p, Y, lambda y: pytest.fail(f"a response at y = {y}"), V)
        for i, y in enumerate(Y):
            ref = oracle._worst_response(p, y, desc)
            # Frank-Wolfe on f from the first vertex ends at the same vertex
            fw = _fw_best(f.fix(y), vertex_lmo(V), V, tol=1e-12, max_iter=500)[0]
            assert X[i].tobytes() == ref.x.tobytes() == fw.tobytes() and values[i] == ref.value

    def test_a_point_where_f_is_not_positive_keeps_the_least_f(self):
        # f = x[0] + 0.5 - y[0] is 0.5 - y at the vertex (0, 1) and 1.5 - y
        # at (1, 0), so (0, 1) is the worst response at every y, also where
        # f is not positive, outside the assumption f > 0; at y = 1 the least
        # f^2 took (0.5, 0.5), where f = 0
        p = make_problem("x[0] + 0.5 - y[0]", "0", dim_x=2, A=[[1.0, 1.0]], b=[1.0])
        desc = bp.exact_lower_set(p, [0.0])
        Y = np.array([[0.0], [0.5], [1.0]])
        values, X = oracle._worst_rows(
            p, Y, lambda y: pytest.fail(f"a response at y = {y}"), desc.points)
        np.testing.assert_array_equal(X, [[0.0, 1.0]] * 3)
        np.testing.assert_array_equal(values, [0.5, 0.0, -0.5])
        for i, y in enumerate(Y):
            ref = oracle._worst_response(p, y, desc)
            assert X[i].tobytes() == ref.x.tobytes() and values[i] == ref.value
        r = bp.pessimistic_select(p, [1.0])
        np.testing.assert_array_equal(r.x, [0.0, 1.0])
        assert r.value == -0.5

    def test_convex_quadratic_leader_certifies_every_run(self, monkeypatch):
        # h is constant on the 3-simplex, so the face is the whole simplex,
        # and f is least inside it; Frank-Wolfe on h + f^2 once ran 19,083
        # iterations at this step, 1,500 in each of the slowest points,
        # without certifying
        from scipy.optimize import minimize
        p = make_problem("1 + 4*y[0]*(1 - y[0]) + (-1.0 + 1.5*y[0])*x[0] + (0.5 + 0.5*y[0])*x[1]"
                         " + (1.5 + 0.5*y[0])*x[2] + 1.5*(x[0] - x[2])^2",
                         "0.5*x[0] + 0.5*x[1] + 0.5*x[2]", **SIMPLEX_3)
        runs = _count_calls(monkeypatch, "_fw_best")
        sol = bp.solve_three_level(p, y_grid_step=0.05)
        assert sol.method == "face_enum" and len(runs) > 20
        assert max(gap for _, _, gap, _, _ in runs) <= 1e-12
        V = bp.exact_lower_set(p, sol.y).points
        f = p.leader_objective
        ref = minimize(lambda w: f.evaluate(sol.y, w @ V), np.full(len(V), 1.0 / len(V)),
                       method="SLSQP", bounds=[(0.0, 1.0)] * len(V),
                       constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                       options={"ftol": 1e-15, "maxiter": 500})
        assert ref.success and abs(sol.leader_value - ref.fun) <= 1e-8

    @pytest.mark.parametrize("h,scanned", [
        ("QB", 2),        # the two vertices of the argmin face
        ("general", 11),  # the band x0 + x1 = 1 of the 121-point x grid, once
        ("(x[0] + x[1] - y[0])^2", 121),  # the whole x grid at every leader point
    ], ids=["face", "band", "per_y"])
    def test_each_leader_point_is_charged_what_it_scans(self, monkeypatch, h, scanned):
        qb = bp.registry_get("QB")
        if h == "general":
            h = dataclasses.replace(field_from_expression("(x[0] + x[1] - 1)^2", 1, 4),
                                    structure="general", coefficients=None)
        elif h != "QB":
            h = field_from_expression(h, 1, 4)
        p = qb if h == "QB" else dataclasses.replace(qb, follower_objective=h)
        budgets, leader_grid = [], oracle._leader_grid

        def spy(K, step, budget):
            budgets.append(budget)
            return leader_grid(K, step, budget)
        monkeypatch.setattr(oracle, "_leader_grid", spy)
        bp.solve_three_level(p, y_grid_step=0.25, x_grid_step=0.1)
        assert budgets == [oracle.GRID_EVAL_GUARD // scanned]
