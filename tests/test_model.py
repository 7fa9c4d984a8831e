import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import cli, model
from bilevelpen.model import (LINEAR, QUADRATIC, BilevelProblem,
                              EmptyFeasibleSetError, ProblemError,
                              UnboundedFeasibleSetError, field_from_expression,
                              require_finite)
from bilevelpen.model import (VALIDATION_SAMPLES, VALIDATION_SEED, _gradient_relative_error,
                              _worst_sample)
from bilevelpen.lower_solver import _feasible_points, enumerate_vertices


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

    def test_user_registration(self):
        bp.registry_register("FS_alias", lambda: bp.registry_get("FS"))
        try:
            assert bp.registry_get("FS_alias").name == "FS"
            assert "FS_alias" in bp.registry_names()
        finally:
            from bilevelpen.model import _REGISTRY
            _REGISTRY.pop("FS_alias")


# FS's polytope with the leader box K = [4, 5], on which 3 - y[0] < 0: the
# Hessians below are convex or concave on K, and the reverse on U(-1, 2)
ON_K45 = {"name": "K45", "dim_y": 1, "dim_x": 2, "A": [[1.0, 1.0]], "b": [1.0],
          "K_lower": [4.0], "K_upper": [5.0], "f": "1 + x[0]"}
CONVEX_ON_K = {**ON_K45, "h": "(y[0] - 3) * (x[0] - 0.25)^2"}
CONCAVE_ON_K = {**ON_K45, "h": "(3 - y[0]) * (x[0] - 0.25)^2"}
CONCAVE_LEADER_ON_K = {**ON_K45, "f": "5 + y[0] + (3 - y[0])*(x[0] - 0.3)^2", "h": "0"}


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


class TestPolytope:
    def test_empty_raises(self):
        with pytest.raises(EmptyFeasibleSetError):
            bp.Polytope(A=[[1.0, 1.0]], b=[-1.0])

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedFeasibleSetError):
            bp.Polytope(A=[[1.0, -1.0]], b=[0.0])

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

    def test_clip_and_midpoint(self):
        box = bp.BoxSet(lower=[0.0, -1.0], upper=[1.0, 1.0])
        np.testing.assert_allclose(box.clip([2.0, -3.0]), [1.0, -1.0])
        np.testing.assert_allclose(box.midpoint(), [0.5, 0.0])


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
