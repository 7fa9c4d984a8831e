import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import cli, model
from bilevelpen.model import (LINEAR, QUADRATIC, BilevelProblem, DimensionGuardError,
                              EmptyFeasibleSetError, ProblemError,
                              UnboundedFeasibleSetError, field_from_expression,
                              require_finite)
from bilevelpen.model import (VALIDATION_SAMPLES, VALIDATION_SEED, _gradient_relative_error,
                              _worst_sample)
from bilevelpen.lower_solver import _feasible_points, enumerate_vertices
from bilevelpen.oracle import _grid_for


class TestRegistry:
    def test_fs_shape(self, fs):
        assert fs.dim_y == 1 and fs.dim_x == 2
        assert fs.follower_set.A.shape == (1, 2)

    def test_qb_shape(self, qb):
        assert qb.dim_y == 1 and qb.dim_x == 4
        assert qb.follower_set.A.shape == (2, 4)

    def test_unknown_name(self):
        with pytest.raises(bp.UnknownProblemError):
            bp.registry_get("nope")

    def test_names(self):
        assert set(bp.registry_names()) >= {"FS", "QB"}

    @pytest.mark.parametrize("change,message", [
        ({"leader_set": bp.BoxSet([0.0, 0.0], [1.0, 1.0])}, "leader dimension mismatch"),
        ({"follower_set": bp.Polytope([[1.0, 1.0, 1.0]], [1.0])}, "follower dimension mismatch"),
    ], ids=["leader", "follower"])
    def test_replaced_set_of_another_dimension_raises(self, fs, change, message):
        with pytest.raises(ProblemError, match=message):
            dataclasses.replace(fs, **change)

    def test_structure_detection(self, fs, qb):
        assert fs.leader_objective.structure == LINEAR
        assert fs.follower_objective.structure == LINEAR  # constant counts as linear
        assert qb.leader_objective.structure == LINEAR
        assert qb.follower_objective.structure == QUADRATIC
        assert qb.follower_objective.convex_in_x

    @pytest.mark.parametrize("name", ["FS", "QB"])
    def test_registered_document_round_trips(self, name):
        doc = {"FS": model.FS_DOC, "QB": model.QB_DOC}[name]
        assert bp.problem_to_dict(bp.registry_get(name)) == doc


# FS's polytope with the leader box K = [4, 5], on which 3 - y[0] < 0: the
# Hessians below are convex or concave on K, and the reverse on U(-1, 2)
ON_K45 = {"name": "K45", "dim_y": 1, "dim_x": 2, "A": [[1.0, 1.0]], "b": [1.0],
          "K_lower": [4.0], "K_upper": [5.0], "f": "1 + x[0]"}
CONVEX_ON_K = {**ON_K45, "h": "(y[0] - 3) * (x[0] - 0.25)^2"}
CONCAVE_ON_K = {**ON_K45, "h": "(3 - y[0]) * (x[0] - 0.25)^2"}
CONCAVE_LEADER_ON_K = {**ON_K45, "f": "5 + y[0] + (3 - y[0])*(x[0] - 0.3)^2", "h": "0"}
# concave only on the sliver y < 3 of K = [2.99, 5], which 5 draws from K miss
CONCAVE_ON_A_SLIVER = {**CONVEX_ON_K, "name": "sliver", "K_lower": [2.99]}


class TestConvexityOnLeaderBox:
    def test_follower_convex_on_k_is_accepted(self):
        assert bp.problem_from_dict(CONVEX_ON_K).follower_objective.convex_in_x

    def test_follower_concave_on_k_is_rejected(self):
        with pytest.raises(ProblemError, match="convex in x"):
            bp.problem_from_dict(CONCAVE_ON_K)

    def test_leader_concave_on_k_is_searched_as_nonconvex(self):
        # decided on U(-1, 2), f was once declared convex, and one Frank-Wolfe run
        # stopped at the vertex (0, 1), where f = 9.365; the least f is 8.765 at (1, 0)
        p = bp.problem_from_dict(CONCAVE_LEADER_ON_K)
        assert not p.leader_objective.convex_in_x
        sel = bp.select_response(p, [4.5], 0.01)
        np.testing.assert_allclose(sel.x, [1.0, 0.0], atol=1e-9)
        assert sel.leader_value == pytest.approx(8.765, abs=1e-9)

    def test_follower_concave_on_a_sliver_of_k_is_rejected(self, tmp_path, capsys):
        # the corners of K decide a Hessian affine in y: 2 (y - 3) < 0 at y = 2.99
        with pytest.raises(ProblemError, match="convex in x"):
            bp.problem_from_dict(CONCAVE_ON_A_SLIVER)
        (tmp_path / "doc.json").write_text(json.dumps(CONCAVE_ON_A_SLIVER))
        assert cli.main(["solve", "--problem", str(tmp_path / "doc.json"), "--epsilon", "0.01",
                         "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_corners_are_guarded(self):
        dim_y = model.CORNER_DIM_GUARD + 1
        doc = {**CONVEX_ON_K, "dim_y": dim_y, "K_lower": [4.0] * dim_y, "K_upper": [5.0] * dim_y}
        with pytest.raises(DimensionGuardError, match="corners"):
            bp.problem_from_dict(doc)

    def test_hand_built_problem_keeps_its_declaration(self):
        # field_from_expression knows no K; only problem_from_dict decides on it
        h = field_from_expression(CONCAVE_ON_K["h"], 1, 2)
        assert h.convex_in_x
        p = bp.problem_from_dict({**ON_K45, "h": "0"})
        assert BilevelProblem("hand", p.leader_objective, h, p.leader_set,
                              p.follower_set).follower_objective is h

    @pytest.mark.parametrize("doc,code,value", [
        (CONVEX_ON_K, 0, 1 + 0.49 / 2.01), (CONCAVE_ON_K, 1, None),
        (CONCAVE_LEADER_ON_K, 0, 9.02)])
    def test_solve_command(self, tmp_path, capsys, doc, code, value):
        # both values are at y = 5: x[0] = 0.49 / 2.01 minimizes 2 (x[0] - 0.25)^2
        # + 0.01 f^2, and the concave leader's least f on the segment is 6.47 + 0.51 y
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        assert cli.main(["solve", "--problem", str(tmp_path / "doc.json"), "--epsilon", "0.01",
                         "--format", "json", "--output", str(tmp_path)]) == code
        if value is None:
            assert capsys.readouterr().err.startswith(
                "error: follower objective must be declared convex in x")
        else:
            report = json.loads((tmp_path / "K45_solve.json").read_text())
            assert report["value"] == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("doc,calls", [
        (model.FS_DOC, []), (model.QB_DOC, [1]),
        # the benchmark's custom-select follower: the symbolic Hessian of a
        # square reads y only through a^0, which differentiation drops
        ({**model.QB_DOC, "h": "(1.3*x[0] + 0.7*x[1] - 1 - 0.2*y[0])^2"}, [1])])
    def test_hessian_free_of_y_is_tested_once(self, monkeypatch, doc, calls):
        made = []
        psd_at = model._psd_at
        monkeypatch.setattr(model, "_psd_at", lambda c, ys: made.append(len(ys)) or psd_at(c, ys))
        assert bp.problem_from_dict(doc).follower_objective.convex_in_x
        assert made == calls

    @pytest.mark.parametrize("Q,psd", [
        (np.diag([1.0, -0.5e-9]), True),     # ||Q|| <= 1: the absolute -1e-9 rule
        (np.diag([1.0, -2e-9]), False),
        (np.diag([100.0, -5e-8]), True),     # the tolerance scales with ||Q|| = 100
        (np.diag([100.0, -2e-7]), False),
        (-0.02 * np.outer([1.0, 1.0], [1.0, 1.0]), False),  # FS's optimistic -2*eps*aa'
        (np.array([[1.0, 2.0], [2.0, 1.0]]), False),        # eigenvalues 3 and -1
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),     # eigvalsh reads NaN as 0
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), False)])
    def test_is_psd_tolerance_is_relative_to_the_norm(self, Q, psd):
        assert model.is_psd(Q) == psd


class TestPolytope:
    def test_empty_raises(self):
        with pytest.raises(EmptyFeasibleSetError):
            bp.Polytope(A=[[1.0, 1.0]], b=[-1.0])

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedFeasibleSetError):
            bp.Polytope(A=[[1.0, -1.0]], b=[0.0])

    @pytest.mark.parametrize("A,b", [([[1.0, 1.0]], [np.nan]), ([[np.nan, 1.0]], [1.0]),
                                     ([[1.0, 1.0]], [np.inf]), ([[1.0, -np.inf]], [1.0])])
    def test_non_finite_data_raises_before_the_lp(self, monkeypatch, A, b):
        # a NaN b once gave NaN vertices, a NaN A an SVD error and an
        # infinite b simplex warnings and an empty set
        monkeypatch.setattr(model.simplex, "solve", lambda *a: pytest.fail("LP ran"))
        with pytest.raises(ProblemError, match="A and b must be finite"):
            bp.Polytope(A=A, b=b)

    def test_row_counts_differ(self):
        with pytest.raises(ProblemError, match="A and b row counts differ"):
            bp.Polytope([[1.0, 1.0]], [1.0, 2.0])

    def test_distinct_error_codes(self):
        assert issubclass(EmptyFeasibleSetError, ProblemError)
        assert issubclass(UnboundedFeasibleSetError, ProblemError)
        assert EmptyFeasibleSetError is not UnboundedFeasibleSetError

    def test_vertex_list_is_a_cache_only(self):
        # A given list could be incomplete, which would make the vertex
        # oracle inexact, so only enumerate_vertices fills the cache.
        with pytest.raises(TypeError):
            bp.Polytope(A=[[1.0, 1.0]], b=[1.0], cached_vertices=[[1.0, 0.0]])
        C = bp.Polytope(A=[[1.0, 1.0]], b=[1.0])
        assert C.cached_vertices is None
        V = bp.enumerate_vertices(C)
        assert C.cached_vertices is V
        np.testing.assert_array_equal(V, [[0.0, 1.0], [1.0, 0.0]])

    def test_contains(self, fs):
        assert fs.follower_set.contains([0.5, 0.5])
        assert not fs.follower_set.contains([0.5, 0.2])
        assert not fs.follower_set.contains([-0.1, 1.1])


class TestBoxSet:
    def test_invalid_bounds(self):
        with pytest.raises(ProblemError):
            bp.BoxSet(lower=[1.0], upper=[0.0])
        with pytest.raises(ProblemError):
            bp.BoxSet(lower=[0.0], upper=[np.inf])

    def test_bound_shapes_differ(self):
        with pytest.raises(ProblemError, match="box bound shapes differ"):
            bp.BoxSet([0.0], [1.0, 2.0])

    @pytest.mark.parametrize("y", [[], [0.5, 0.5], 0.5, [[0.5]]], ids=["empty", "long", "scalar",
                                                                       "nested"])
    def test_contains_only_points_of_its_shape(self, y):
        # comparisons broadcast, so [] and [0.5, 0.5] once passed as points of [0, 1]
        assert not bp.BoxSet([0.0], [1.0]).contains(y)
        assert bp.BoxSet([0.0], [1.0]).contains([0.5])

    def test_clip_and_midpoint(self):
        box = bp.BoxSet(lower=[0.0, -1.0], upper=[1.0, 1.0])
        np.testing.assert_allclose(box.clip([2.0, -3.0]), [1.0, -1.0])
        np.testing.assert_allclose(box.midpoint(), [0.5, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_contains_and_clip_keep_the_bits_of_the_plain_formulas(self, data):
        # contains and clip use bounds kept at construction; they must answer
        # as the formulas on lower - 1e-12, upper + 1e-12 and np.clip do: at a
        # drawn point, and with each coordinate in turn at, within and just
        # beyond 1e-12 of either bound, non-finite or a signed zero
        dim = data.draw(st.integers(1, 3))
        lo = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
        hi = lo + data.draw(st.lists(st.floats(0.0, 10.0), min_size=dim, max_size=dim))
        box = bp.BoxSet(lo, hi)
        assert type(box.cached_slack_bounds) is tuple
        assert all(type(pair) is tuple for pair in box.cached_slack_bounds)

        def near(b):
            edge = [b - 1e-12, b + 1e-12]
            return edge + [b, -b] + [np.nextafter(e, s) for e in edge for s in (-np.inf, np.inf)]
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
        drawn = np.array(data.draw(st.lists(st.floats(allow_nan=True), min_size=dim,
                                            max_size=dim)))
        points = [drawn] + [np.where(np.arange(dim) == i, v, drawn) for i in range(dim)
                            for v in near(lo[i]) + near(hi[i]) + special]
        for y in points:
            contains = bool((y >= box.lower - 1e-12).all() and (y <= box.upper + 1e-12).all())
            assert box.contains(y) is contains
            clipped = box.clip(y)
            assert clipped.tobytes() == np.clip(y, box.lower, box.upper).tobytes()
            assert np.array_equal(np.isnan(clipped), np.isnan(y))
            for wrong in (y[:-1], np.append(y, 0.5), y[None], y[0]):
                assert not box.contains(wrong)


class TestReadOnly:
    """Problems, their sets and every array cached on them are read-only, so
    no cache can go stale; dataclasses.replace varies a problem."""

    def test_fields_cannot_be_assigned(self):
        p = bp.registry_get("FS")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.follower_set = bp.Polytope(A=[[1.0, 1.0]], b=[2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.follower_set.A = np.array([[2.0, 1.0]])

    def test_arrays_cannot_be_written(self):
        p = bp.registry_get("QB")
        C, K = p.follower_set, p.leader_set
        grid = _grid_for(C, 0.05)
        for array in (C.A, C.b, K.lower, K.upper, enumerate_vertices(C), grid):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0
        np.testing.assert_array_equal(C.b, [1.0, 1.0])

    def test_callers_arrays_are_copied_and_stay_writable(self):
        A, b = np.array([[1.0, 1.0]]), np.array([1.0])
        lo, hi = np.array([0.0]), np.array([1.0])
        C, K = bp.Polytope(A=A, b=b), bp.BoxSet(lower=lo, upper=hi)
        for mine, owned in ((A, C.A), (b, C.b), (lo, K.lower), (hi, K.upper)):
            assert not np.shares_memory(mine, owned)
            assert mine.flags.writeable
        A[0, 0], b[0], lo[0], hi[0] = 5.0, 7.0, -1.0, 2.0
        np.testing.assert_array_equal(C.A, [[1.0, 1.0]])
        np.testing.assert_array_equal(C.b, [1.0])
        np.testing.assert_array_equal(K.lower, [0.0])
        np.testing.assert_array_equal(K.upper, [1.0])

    def test_stale_set_reproduction_raises(self):
        # a selection once kept the vertices of the old set, x = [0, 1], after
        # an in-place b = [2]
        p = bp.registry_get("FS")
        bp.select_response(p, [0.5], 0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.follower_set.b = np.array([2.0])
        np.testing.assert_array_equal(bp.select_response(p, [0.5], 0.01).x, [0.0, 1.0])

    def test_written_vertex_reproduction_raises(self):
        # a written vertex once made the selection return x = [1, 0] with
        # leader value 3, and the three-level oracle report 3 for a worst case of 2
        p = bp.registry_get("FS")
        with pytest.raises(ValueError, match="read-only"):
            enumerate_vertices(p.follower_set)[0, 0] = 9.0
        assert bp.select_response(p, [0.5], 0.01).leader_value == pytest.approx(2.0, abs=1e-9)
        assert bp.solve_three_level(p).leader_value == pytest.approx(2.0, abs=1e-9)

    def test_replaced_problem_starts_with_empty_caches(self):
        p = bp.registry_get("FS")
        bp.select_response(p, [0.5], 0.01)
        assert p.cached_selection is not None
        assert dataclasses.replace(p, name="FS2").cached_selection is None
        assert dataclasses.replace(p.follower_set).cached_vertices is None


class TestRequireFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300])
    @pytest.mark.parametrize("positive", [False, True])
    def test_rejects(self, value, positive):
        with pytest.raises(ValueError, match=f"tol must be .*, got {value}"):
            require_finite("tol", value, positive)

    def test_zero_is_nonnegative_but_not_positive(self):
        require_finite("tol", 0.0)
        require_finite("step", 1e-300, positive=True)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            require_finite("step", 0.0, positive=True)


class TestValidation:
    def test_registry_problems_pass(self, fs, qb):
        for problem in (fs, qb):
            report = bp.validate_problem(problem)
            assert report.all_passed, [c for c in report.checks if not c.passed]
            assert [c.name for c in report.checks] == [
                "positivity", "convexity_in_x", "gradient_consistency"]

    def test_unknown_check_name_raises_key_error(self, fs):
        with pytest.raises(KeyError):
            bp.validate_problem(fs)["nope"]

    def test_negative_leader_objective_fails_positivity(self, qb):
        # leader objective shifted below zero everywhere on K x C (f <= 6 there)
        bad_f = field_from_expression(
            "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1]) - 10", 1, 4)
        tampered = BilevelProblem("QB_neg", bad_f, qb.follower_objective,
                                  qb.leader_set, qb.follower_set)
        report = bp.validate_problem(tampered)
        check = report["positivity"]
        assert not check.passed
        assert check.witness is not None
        assert check.worst_value < 0

    def test_infinite_leader_objective_fails_positivity(self, fs):
        # 1/x[0] is +inf at the vertex (0, 1) of FS's segment
        bad_f = field_from_expression("1/x[0]", 1, 2)
        tampered = BilevelProblem("FS_inf", bad_f, fs.follower_objective,
                                  fs.leader_set, fs.follower_set)
        with np.errstate(divide="ignore", invalid="ignore"):
            check = bp.validate_problem(tampered)["positivity"]
        assert not check.passed
        assert check.worst_value == np.inf
        y, x = check.witness
        np.testing.assert_array_equal(x, [0.0, 1.0])

    def test_concave_follower_objective_fails_convexity(self, qb):
        bad_h = dataclasses.replace(field_from_expression("-((x[0] + x[1] - 1)^2)", 1, 4),
                                    convex_in_x=True)
        tampered = BilevelProblem("QB_conc", qb.leader_objective, bad_h,
                                  qb.leader_set, qb.follower_set)
        report = bp.validate_problem(tampered)
        check = report["convexity_in_x"]
        assert not check.passed
        assert check.worst_value > 1e-9

    def test_nan_follower_objective_fails_convexity(self, fs):
        # every midpoint gap is NaN; a NaN is never > 1e-9, so it once passed
        nan_h = bp.ScalarField(dim_y=1, dim_x=2, evaluate=lambda y, x: np.nan,
                               gradient_x=lambda y, x: np.zeros(2), convex_in_x=True)
        tampered = BilevelProblem("FS_nan_h", fs.leader_objective, nan_h,
                                  fs.leader_set, fs.follower_set)
        check = bp.validate_problem(tampered)["convexity_in_x"]
        assert not check.passed
        assert np.isnan(check.worst_value)
        y, mid = check.witness
        assert fs.leader_set.contains(y) and fs.follower_set.contains(mid)

    def test_nan_leader_gradient_fails_gradient_check(self, fs):
        f = fs.leader_objective
        nan_grad = bp.ScalarField(dim_y=1, dim_x=2, evaluate=f.evaluate,
                                  gradient_x=lambda y, x: np.full(2, np.nan))
        tampered = BilevelProblem("FS_nan_grad", nan_grad, fs.follower_objective,
                                  fs.leader_set, fs.follower_set)
        report = bp.validate_problem(tampered)
        check = report["gradient_consistency"]
        assert report["positivity"].passed
        assert not check.passed
        assert np.isnan(check.worst_value)
        y, x = check.witness
        assert fs.leader_set.contains(y) and fs.follower_set.contains(x)

    def test_declared_nonconvex_follower_rejected(self, qb):
        bad_h = field_from_expression("-((x[0] + x[1] - 1)^2)", 1, 4)
        assert not bad_h.convex_in_x
        with pytest.raises(ProblemError):
            BilevelProblem("bad", qb.leader_objective, bad_h,
                           qb.leader_set, qb.follower_set)


def _per_sample_validation(problem):
    """validate_problem written as per-sample loops: one scalar evaluate per
    positivity sample and three per convexity segment, whose end points a, b
    are drawn one at a time, a then b, segment by segment."""
    rng = np.random.default_rng(VALIDATION_SEED)
    f, h = problem.leader_objective, problem.follower_objective
    X = _feasible_points(enumerate_vertices(problem.follower_set), VALIDATION_SAMPLES, rng)
    Y = problem.leader_set.sample(rng, size=VALIDATION_SAMPLES)
    Xi = X[np.arange(VALIDATION_SAMPLES) % len(X)]
    positivity = _worst_sample("positivity", [f.evaluate(y, x) for y, x in zip(Y, Xi)],
                               Y, Xi, lambda v: v > 0.0, lowest=True)
    gaps, mids = [], []
    for y in Y:
        xa, xb = X[rng.integers(len(X))], X[rng.integers(len(X))]
        mids.append(0.5 * (xa + xb))
        gaps.append(h.evaluate(y, mids[-1]) - 0.5 * (h.evaluate(y, xa) + h.evaluate(y, xb)))
    convexity = _worst_sample("convexity_in_x", gaps, Y, np.array(mids),
                              lambda gap: gap <= 1e-9)
    pairs = np.repeat(np.arange(64), 2)
    errs = [_gradient_relative_error(fld, Y[i], Xi[i]) for i in range(64) for fld in (f, h)]
    gradients = _worst_sample("gradient_consistency", errs, Y[pairs], Xi[pairs],
                              lambda err: err <= 1e-5)
    return (positivity, convexity, gradients)


def _block_simplex(quadratic):
    """Two scaled simplices in R^5; h is minimized on a hyperplane section."""
    f = "1 + y[0] + 0.3*x[0] + 0.7*x[1] + 0.2*x[2] + 0.5*x[3] + 0.9*x[4]"
    if quadratic:
        f += " + 0.5*(x[1] - x[3])^2"
    return bp.problem_from_dict({
        "name": "blocks-quad" if quadratic else "blocks-lin", "dim_y": 1, "dim_x": 5,
        "A": [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]], "b": [0.8, 1.3],
        "K_lower": [0.0], "K_upper": [1.0], "f": f,
        "h": "(0.8*x[0] + 1.5*x[1] + x[2] + 0.6*x[3] + 1.9*x[4] - 1.7 - 0.2*y[0])^2"})


def _report_bytes(checks):
    return [(c.name, c.passed, np.float64(c.worst_value).tobytes(),
             [np.asarray(w, dtype=float).tobytes() for w in c.witness]) for c in checks]


class TestBatchedValidation:
    @pytest.mark.parametrize("make", [
        lambda: bp.registry_get("QB"), lambda: bp.registry_get("FS"),
        lambda: _block_simplex(False), lambda: _block_simplex(True)],
        ids=["QB", "FS", "blocks-lin", "blocks-quad"])
    def test_reports_match_per_sample_loops(self, make):
        problem = make()
        report = bp.validate_problem(problem)
        assert report.all_passed
        assert _report_bytes(report.checks) == _report_bytes(_per_sample_validation(problem))


# Expressions over x[0], x[1], y[0], y[1] with + * / and powers 2, 3 and 7 of
# bases that read x. All values are positive, so no cancellation magnifies
# the last-bit differences between the scalar evaluate and the array path.
_LEAVES = st.sampled_from(["x[0]", "x[1]", "y[0]", "y[1]", "0.5", "1.25", "3"])
_EXPRESSIONS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    st.tuples(inner, st.sampled_from("01"), st.sampled_from("237")).map(
        lambda t: f"({t[0]} + x[{t[1]}])^{t[2]}")), max_leaves=6)


class TestRowBatches:
    @settings(max_examples=60, deadline=None)
    @given(text=_EXPRESSIONS, n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    def test_rows_match_single_points(self, text, n, seed):
        fld = field_from_expression(text, dim_y=2, dim_x=2)
        rng = np.random.default_rng(seed)
        Y, X = rng.uniform(0.1, 2.0, size=(n, 2)), rng.uniform(0.1, 2.0, size=(n, 2))
        rows = fld.batch(Y, X)
        assert rows.shape == (n,)
        stacked = np.concatenate([fld.batch(Y[i], X[i:i + 1]) for i in range(n)])
        np.testing.assert_array_equal(rows, stacked)
        scalar = [fld.evaluate(y, x) for y, x in zip(Y, X)]
        np.testing.assert_allclose(rows, scalar, rtol=1e-12)

    def test_seventh_power_with_subtraction(self):
        fld = field_from_expression("(x[0]+x[1]*y[0])^7 - 2*x[0]^4", dim_y=1, dim_x=2)
        rng = np.random.default_rng(0)
        Y, X = rng.uniform(0.0, 1.0, size=(3000, 1)), rng.uniform(0.0, 1.0, size=(3000, 2))
        rows = fld.batch(Y, X)
        np.testing.assert_array_equal(
            rows, np.concatenate([fld.batch(y, x[None]) for y, x in zip(Y, X)]))
        np.testing.assert_allclose(rows, [fld.evaluate(y, x) for y, x in zip(Y, X)],
                                   rtol=1e-12)

    def test_constant_expression_fills_every_row(self):
        fld = field_from_expression("2 + y[0]", dim_y=1, dim_x=3)
        np.testing.assert_array_equal(fld.batch([[1.0], [2.0]], np.zeros((2, 3))), [3.0, 4.0])
        np.testing.assert_array_equal(fld.batch([1.0], np.zeros((2, 3))), [3.0, 3.0])

    def test_hand_built_field_gets_each_rows_y(self):
        seen = []

        def evaluate(y, x):
            seen.append(float(y[0]))
            return 10.0 * y[0] + x[0]
        fld = bp.ScalarField(dim_y=1, dim_x=1, evaluate=evaluate,
                             gradient_x=lambda y, x: np.ones(1))
        Y, X = np.array([[1.0], [2.0], [3.0]]), np.array([[0.5], [0.25], [0.125]])
        np.testing.assert_array_equal(fld.batch(Y, X), [10.5, 20.25, 30.125])
        assert seen == [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(fld.batch([1.0], X), [10.5, 10.25, 10.125])

    @pytest.mark.parametrize("y", [[0.5, 0.9], [], 0.5, [[0.5]]])
    @pytest.mark.parametrize("coefficients", [True, False], ids=["dense", "closures"])
    def test_section_at_a_leader_point_of_the_wrong_shape_rejected(self, y, coefficients):
        fld = field_from_expression("y[0] * x[0]", dim_y=1, dim_x=1)
        if not coefficients:
            fld = dataclasses.replace(fld, coefficients=None)
        with pytest.raises(ValueError, match=r"y must have shape \(dim_y,\) = \(1,\)"):
            fld.fix(y)
        assert fld.fix([0.5]).value(np.ones(1)) == 0.5


class TestClosedForms:
    def test_penalized_minimum_matches_analytic_value(self, qb):
        # minimum over C of h + eps*f^2 at y = 1/2, eps = 0.1: the analytic
        # optimum sits on the diagonal z1 + z2 = 0.6/1.4
        field = bp.penalized_field(qb, 0.1)
        sol = bp.frank_wolfe_minimize(field.fix([0.5]), qb.follower_set, tol=1e-10)
        sigma = 0.6 / 1.4
        w2 = 4.0
        analytic = (sigma - 1.0) ** 2 + 0.1 * w2 * (1.0 + sigma) ** 2
        assert sol.value == pytest.approx(analytic, abs=1e-6)

        # independent check: dense grid on the intrinsic box
        t = np.linspace(0.0, 1.0, 1001)
        Z1, Z2 = np.meshgrid(t, t)
        sig = Z1 + Z2
        grid_min = ((sig - 1.0) ** 2 + 0.1 * (2.0 * (1.0 + sig)) ** 2).min()
        assert sol.value == pytest.approx(grid_min, abs=1e-5)


class TestJsonDocuments:
    def test_round_trip_dict(self, qb):
        doc = bp.problem_to_dict(qb)
        again = bp.problem_from_dict(doc)
        assert again.name == qb.name
        assert again.leader_objective.expression == qb.leader_objective.expression
        np.testing.assert_array_equal(again.follower_set.A, qb.follower_set.A)

    def test_file_round_trip(self, tmp_path, fs):
        path = tmp_path / "fs.json"
        bp.save_problem(fs, path)
        again = bp.load_problem(path)
        assert again.dim_x == 2
        assert again.follower_objective.expression == "0"

    def test_missing_keys(self):
        with pytest.raises(ProblemError, match="missing keys"):
            bp.problem_from_dict({"name": "x"})

    def test_box_bounds_of_another_dimension_raise(self, fs):
        doc = {**bp.problem_to_dict(fs), "K_lower": [0.0, 0.0], "K_upper": [1.0, 1.0]}
        with pytest.raises(ProblemError, match="box bounds do not match dim_y"):
            bp.problem_from_dict(doc)

    @pytest.mark.parametrize("key,value", [
        ("h", None), ("f", 1), ("f", ["x[0]"]), ("dim_x", 2.7), ("dim_x", 2.0),
        ("dim_x", "2"), ("dim_x", True), ("dim_y", None), ("dim_y", False)])
    def test_mistyped_field_raises(self, fs, key, value):
        # None reached the tokenizer as a TypeError, and 2.7 was truncated to 2
        with pytest.raises(ProblemError, match=f"^{key} must be an"):
            bp.problem_from_dict({**bp.problem_to_dict(fs), key: value})

    @pytest.mark.parametrize("name", [
        "../escaped", None, "", ".", "..", "a/b", "a\\b", "/abs", 5])
    def test_name_is_a_file_name(self, fs, name):
        # reports are named after it: "../escaped" wrote outside --output and
        # null wrote None_solve.json
        with pytest.raises(ProblemError, match=r"^name must be a non-empty string with no /"):
            bp.problem_from_dict({**bp.problem_to_dict(fs), "name": name})

    @pytest.mark.parametrize("name", ["family3-2x3-quad", "tilted-segment", "dense_basis",
                                      "K45", "qb0", "a.b", "...", "x y"])
    def test_file_names_load(self, fs, name):
        assert bp.problem_from_dict({**bp.problem_to_dict(fs), "name": name}).name == name

    @pytest.mark.parametrize("change", [
        {"dim_y": 0, "K_lower": [], "K_upper": []}, {"dim_y": -1}, {"dim_x": 0},
        {"dim_x": -1}])
    def test_dimensions_are_at_least_one(self, fs, monkeypatch, change):
        # dim_y 0 ended in numpy's zero-size reduction error, and a negative
        # dim_x was caught only as an index out of range
        monkeypatch.setattr(model, "field_from_expression",
                            lambda *a, **k: pytest.fail("a field was built"))
        key = next(iter(change))
        with pytest.raises(ProblemError, match=f"^{key} must be an integer of at least 1"):
            bp.problem_from_dict({**bp.problem_to_dict(fs), **change})

    def test_numpy_integer_dimensions_load(self, fs):
        doc = {**bp.problem_to_dict(fs), "dim_y": np.int64(1), "dim_x": np.int32(2)}
        assert bp.problem_from_dict(doc).dim_x == 2

    @pytest.mark.parametrize("doc", [[], 5, None, "FS"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ProblemError, match="is a JSON object"):
            bp.problem_from_dict(doc)

    def test_unreadable_path_raises(self, tmp_path):
        with pytest.raises(ProblemError, match="cannot read problem document"):
            bp.load_problem(tmp_path)
        with pytest.raises(ProblemError, match="No such file"):
            bp.load_problem(tmp_path / "missing.json")

    def test_dimension_mismatch(self, qb):
        doc = bp.problem_to_dict(qb)
        doc["dim_x"] = 3
        with pytest.raises((ProblemError, Exception)):
            bp.problem_from_dict(doc)

    def test_callable_fields_not_serializable(self, fs):
        f = bp.ScalarField(dim_y=1, dim_x=2,
                           evaluate=lambda y, x: 1.0,
                           gradient_x=lambda y, x: np.zeros(2),
                           structure="general", convex_in_x=True)
        p = BilevelProblem("cb", f, fs.follower_objective,
                           fs.leader_set, fs.follower_set)
        with pytest.raises(ProblemError):
            bp.problem_to_dict(p)

    def test_resolve_problem(self, tmp_path, qb):
        assert bp.resolve_problem("QB").name == "QB"
        path = tmp_path / "qb.json"
        bp.save_problem(qb, path)
        assert bp.resolve_problem(str(path)).name == "QB"
        with pytest.raises(bp.UnknownProblemError):
            bp.resolve_problem("missing-thing")
