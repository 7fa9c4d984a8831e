import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import qr as scipy_qr

import bilevelpen as bp
from bilevelpen import cli, oracle
from bilevelpen.continuation import EpsSchedule
from bilevelpen.lower_solver import independent_rows, lp_minimize
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
        desc = bp.exact_lower_set(qb, [0.5])
        assert desc.kind == "grid_cloud"
        assert desc.value <= 1e-6
        sigma = desc.points[:, 0] + desc.points[:, 1]
        np.testing.assert_allclose(sigma, 1.0, atol=1e-4)
        assert len(desc.points) > 100  # a genuine band, not a point

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
            follower_objective=field_from_expression("(x[0] + x[1] - 1)^2", 1, n),
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
        assert sol.method == "grid"

    def test_collapsed_leader_box(self):
        p = make_problem("1 + 4*y[0]*(1 - y[0]) + x[0]", "0",
                         dim_x=2, A=[[1.0, 1.0]], b=[1.0], box=(0.3, 0.3))
        sol = bp.solve_three_level(p)
        assert sol.y[0] == 0.3
        assert sol.leader_value == pytest.approx(1 + 4 * 0.3 * 0.7, abs=1e-9)

    def test_zero_dimensional_follower_set(self):
        # A = I leaves no free coordinate: the x grid is the one point of C
        p = make_problem("2 + x[0]", "(x[0] - 0.3)^2 + x[1]^2", dim_x=2,
                         A=[[1.0, 0.0], [0.0, 1.0]], b=[0.3, 0.7])
        desc = bp.exact_lower_set(p, [0.5])
        assert desc.kind == "single_point"
        np.testing.assert_array_equal(desc.points, [[0.3, 0.7]])
        sol = bp.solve_three_level(p)
        np.testing.assert_array_equal(sol.x, [0.3, 0.7])
        assert sol.method == "grid" and sol.leader_value == pytest.approx(2.3, abs=1e-12)

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
        grid, spacing = oracle._leader_grid(K, 1e-9, 10)  # the budget of a QB solve
        assert asked == [10] and grid.shape == (10, 1)
        assert spacing == pytest.approx(1.0 / 9)
        K2 = BoxSet(lower=[0.0, -1.0], upper=[1.0, 1.0])
        asked.clear()
        grid, _ = oracle._leader_grid(K2, 1e-9, 100)
        assert len(asked) == 2 and max(asked) <= 100 and len(grid) <= 100
        assert grid.shape == (math.prod(asked), 2)
        # a collapsed or thin axis keeps its 1-3 points; the other axis alone
        # shrinks to the budget (these boxes once got 94, 134 and 162 points)
        for upper in ([1.0, 0.0], [1.0, 1e-3], [1.0, 2e-3]):
            grid, _ = oracle._leader_grid(BoxSet(lower=[0.0, 0.0], upper=upper), 1e-3, 9)
            assert len(grid) <= 9, upper

    @pytest.mark.parametrize("lower,upper,step", [
        ([0.0], [1.0], 0.1),
        ([0.0, -1.0], [1.0, 2.0], 0.25),
        ([0.0, 0.3], [1.0, 0.3], 0.2),  # the second axis is collapsed
    ], ids=["1d", "2d", "collapsed_axis"])
    def test_leader_grid_is_one_array_in_product_order(self, lower, upper, step):
        grid, _ = oracle._leader_grid(BoxSet(lower=lower, upper=upper), step, 10 ** 7)
        axes = [np.linspace(lo, hi, round((hi - lo) / step) + 1)
                for lo, hi in zip(lower, upper)]
        ref = np.array(list(itertools.product(*axes)))
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
        assert grid.shape == (math.prod(map(len, axes)), len(lower))
        assert grid.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["FS", "QB"])
    def test_solution_is_not_a_view_of_the_leader_grid(self, monkeypatch, name):
        grids, leader_grid = [], oracle._leader_grid

        def spy(*args):
            grid, spacing = leader_grid(*args)
            grids.append(grid)
            return grid, spacing
        monkeypatch.setattr(oracle, "_leader_grid", spy)
        # at this step the best grid point is the optimum, so the polish keeps it
        sol = bp.solve_three_level(bp.registry_get(name), y_grid_step=0.1)
        assert sol.y[0] == 0.5 and len(grids) == 1
        assert not np.shares_memory(sol.y, grids[0])

    def test_subnormal_leader_step_coarsens_like_a_tiny_one(self):
        K = BoxSet(lower=[0.0], upper=[1.0])
        grid, spacing = oracle._leader_grid(K, 1e-320, 9)  # the budget of a QB solve
        ref, ref_spacing = oracle._leader_grid(K, 1e-9, 9)
        np.testing.assert_array_equal(grid, ref)
        assert len(grid) == 9 and spacing == ref_spacing == 0.125

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
    """The same problem with a follower that hides its expression, which
    forces the three-level oracle to compute the argmin set at every y."""
    h = dataclasses.replace(problem.follower_objective, expression=None)
    return dataclasses.replace(problem, follower_objective=h)


def _count_calls(monkeypatch, name):
    calls, fn = [], getattr(oracle, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(oracle, name, spy)
    return calls


SIMPLEX_3 = dict(dim_x=3, A=[[1.0, 1.0, 1.0]], b=[1.0])


class TestArgminSetOnce:
    @pytest.mark.parametrize("problem", [
        "QB", "FS",
        make_problem("2 + y[0]*(1 - y[0]) + x[0]*y[0] - x[2]", "(x[0] - x[1])^2",
                     name="quadratic", **SIMPLEX_3),
        make_problem("1 + (y[0] - 0.3)^2 + x[1]*y[0] + x[2]", "x[0]",
                     name="linear", **SIMPLEX_3),
    ], ids=["QB", "FS", "quadratic_simplex", "linear_simplex"])
    def test_matches_the_per_y_scan_bit_for_bit(self, problem):
        if isinstance(problem, str):
            problem = bp.registry_get(problem)
        once = bp.solve_three_level(problem)
        scan = bp.solve_three_level(_per_y(problem))
        for fld in dataclasses.fields(once):
            a, b = getattr(once, fld.name), getattr(scan, fld.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), fld.name
            else:
                assert a == b and type(a) is type(b), fld.name

    def test_qb_computes_one_argmin_set(self, monkeypatch, qb):
        lower_sets = _count_calls(monkeypatch, "exact_lower_set")
        selects = _count_calls(monkeypatch, "pessimistic_select")
        bp.solve_three_level(qb)
        assert len(lower_sets) == 1 and selects == []

    def test_follower_reading_y_keeps_the_per_y_scan(self, monkeypatch, qb):
        # argmin set x0 + x1 = y, where the leader is (1 + 4y(1 - y))(1 + y)
        p = dataclasses.replace(qb, follower_objective=field_from_expression(
            "(x[0] + x[1] - y[0])^2", 1, 4))
        lower_sets = _count_calls(monkeypatch, "exact_lower_set")
        selects = _count_calls(monkeypatch, "pessimistic_select")
        step = 0.01
        sol = bp.solve_three_level(p, y_grid_step=step, x_grid_step=step)
        assert len(selects) > 100 and len(lower_sets) == len(selects)
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
    _, _, piv = scipy_qr(A, pivoting=True)
    basic = sorted(piv[:r])
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


# oracle_to_json text of solve_three_level at its default steps, pinned
# before the x grid was built one row per coordinate
PINNED_REPORTS = {
    "QB": (lambda: bp.registry_get("QB"),
           '{"schema": "oracle-v1", "problem": "QB", "y_best": [0.5], "x_best": '
           '[0.957, 0.04299999999999993, 0.043000000000000003, 0.9570000000000001], '
           '"leader_value": 3.9999999999999996, "follower_value": 1.232595164407831e-32, '
           '"method": "grid", "resolution": 0.0001}'),
    "FS": (lambda: bp.registry_get("FS"),
           '{"schema": "oracle-v1", "problem": "FS", "y_best": [0.5], "x_best": [0.0, 1.0], '
           '"leader_value": 2.0, "follower_value": 0.0, "method": "face_enum", '
           '"resolution": 0.0001}'),
    "QB_band": (lambda: _qb_with("QB_band", "(x[0] + x[1] - 0.7)^2"),
                '{"schema": "oracle-v1", "problem": "QB_band", "y_best": [0.5], "x_best": '
                '[0.6579999999999999, 0.041999999999999926, 0.342, 0.9580000000000001], '
                '"leader_value": 3.3999999999999995, "follower_value": 1.232595164407831e-32, '
                '"method": "grid", "resolution": 0.0001}'),
    "dense_basis": (lambda: _qb_with("dense_basis", "(x[2] + x[3] - 0.5)^2",
                                     Polytope(A=DENSE_BASIS.A, b=DENSE_BASIS.b)),
                    '{"schema": "oracle-v1", "problem": "dense_basis", "y_best": [0.5], '
                    '"x_best": [0.21978018018018017, 0.06034054054054055, 0.401, '
                    '0.09909909909909911], "leader_value": 2.5602414414414416, '
                    '"follower_value": 9.820631442255063e-09, "method": "grid", '
                    '"resolution": 0.0001}'),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_oracle_report_text_is_pinned(name):
    make, text = PINNED_REPORTS[name]
    assert json.dumps(bp.oracle_to_json(bp.solve_three_level(make()))) == text


# SHA-256 of the --format json reports of the README's QB solve and of seed-7
# QB continuations of both signs, pinned before FS and QB were built from
# problem documents
PINNED_CLI_REPORTS = {
    "solve": (["solve", "--problem", "QB", "--epsilon", "0.1", "--seed", "7"], "QB_solve.json",
              "74de982f6fb3bf030f85dc197612ea2164a5612c04db6619ae0461361912340e"),
    "pessimistic": (["continuation", "--problem", "QB", "--seed", "7"], "QB_trace.json",
                    "080aecedcfba854258a1830230a97a2cef970e0b935bbc6e3087998ef52e1350"),
    "optimistic": (["continuation", "--problem", "QB", "--seed", "7", "--sign", "optimistic"],
                   "QB_trace.json",
                   "664984173532ea7e656dbd35ecdac17afb36de480b9b5c74c5410a5be76dd3eb"),
}


@pytest.mark.parametrize("name", PINNED_CLI_REPORTS)
def test_cli_report_bytes_are_pinned(tmp_path, capsys, name):
    argv, report, digest = PINNED_CLI_REPORTS[name]
    assert cli.main(argv + ["--format", "json", "--output", str(tmp_path)]) == 0
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
        doc = bp.oracle_to_json(sol)
        assert doc["schema"] == "oracle-v1"
        assert doc["problem"] == "FS"
        assert doc["leader_value"] == pytest.approx(2.0, abs=1e-3)
        assert "resolution" in doc
