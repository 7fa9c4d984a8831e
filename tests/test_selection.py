import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen.model import LINEAR, QB_DOC, BilevelProblem, ScalarField, field_from_expression
from bilevelpen.selection import OPTIMISTIC, PESSIMISTIC


def upper_value(problem, y, epsilon, sign=+1):
    """The single-valued upper objective: the leader value of the selection."""
    return bp.select_response(problem, y, epsilon, sign).leader_value


def qb_sigma(eps, y):
    """Analytic optimal diagonal level of the band problem (worst case)."""
    w = 1.0 + 4.0 * y * (1.0 - y)
    return (1.0 - eps * w * w) / (1.0 + eps * w * w)


class TestPenalizedField:
    def test_fs_value(self, fs):
        field = bp.penalized_field(fs, 0.5, sign=+1)
        # h = 0 and f = 2 at (y, x) = (0, (1, 0)): 0.5 * 4 = 2
        assert field.evaluate([0.0], [1.0, 0.0]) == pytest.approx(2.0)

    def test_qb_optimistic_value(self, qb):
        field = bp.penalized_field(qb, 0.1, sign=-1)
        # h = 1 and f = 6 at (y, x) = (1/2, (1,1,0,0)): 1 - 0.1 * 36 = -2.6
        assert field.evaluate([0.5], [1.0, 1.0, 0.0, 0.0]) == pytest.approx(-2.6)

    def test_rejects_zero_epsilon(self, qb):
        with pytest.raises(ValueError):
            bp.penalized_field(qb, 0.0)
        with pytest.raises(ValueError):
            bp.penalized_field(qb, -0.1)
        with pytest.raises(ValueError):
            bp.penalized_field(qb, 0.1, sign=2)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, qb, epsilon):
        with pytest.raises(ValueError, match="finite"):
            bp.penalized_field(qb, epsilon)

    def test_convexity_flags(self, qb):
        assert bp.penalized_field(qb, 0.1, sign=+1).convex_in_x
        assert not bp.penalized_field(qb, 0.1, sign=-1).convex_in_x
        assert bp.penalized_field(qb, 0.1, sign=+1).structure == "quadratic_in_x"

    def test_gradient_consistency(self, qb):
        field = bp.penalized_field(qb, 0.07, sign=-1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = rng.uniform(0, 1, size=1)
            x = rng.uniform(0.05, 0.95, size=4)
            g = field.gradient_x(y, x)
            for j in range(4):
                e = np.zeros(4)
                e[j] = 1e-6
                fd = (field.evaluate(y, x + e) - field.evaluate(y, x - e)) / 2e-6
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestSelectResponse:
    def test_qb_closed_form(self, qb):
        r = bp.select_response(qb, [0.5], 0.1)
        assert r.leader_value == pytest.approx(4.0 / 1.4, abs=1e-8)
        assert r.x[0] + r.x[1] == pytest.approx(3.0 / 7.0, abs=1e-8)
        assert r.fw_gap <= 1e-8

    def test_fs_selects_low_end(self, fs):
        for y in (0.0, 0.3, 0.8):
            r = bp.select_response(fs, [y], 0.01)
            np.testing.assert_allclose(r.x, [0.0, 1.0], atol=1e-10)
            assert r.leader_value == pytest.approx(1 + 4 * y * (1 - y), abs=1e-12)

    def test_fs_optimistic_selects_high_end(self, fs):
        r = bp.select_response(fs, [0.5], 0.01, OPTIMISTIC)
        np.testing.assert_allclose(r.x, [1.0, 0.0], atol=1e-10)
        assert r.leader_value == pytest.approx(3.0, abs=1e-12)

    def test_result_invariants(self, qb):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.uniform(0, 1, size=1)
            eps = float(rng.uniform(0.001, 0.3))
            r = bp.select_response(qb, y, eps)
            recomputed = r.follower_value + r.sign * r.epsilon * r.leader_value ** 2
            assert abs(r.penalized_value - recomputed) <= 1e-10
            assert qb.follower_set.contains(r.x, tol=1e-9)

    def test_preconditions(self, qb):
        with pytest.raises(ValueError):
            bp.select_response(qb, [1.5], 0.1)  # outside the leader box
        with pytest.raises(ValueError, match="outside the leader box"):
            bp.select_response(qb, [0.5, 0.9], 0.1)  # once the value at y = 0.5
        with pytest.raises(ValueError):
            bp.select_response(qb, [0.5], 0.0)
        with pytest.raises(ValueError):
            bp.select_response(qb, [0.5], 0.1, sign=0)

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, np.int64(1), 0, 2])
    def test_sign_is_the_int_plus_or_minus_one(self, qb, sign):
        # a set-up cached for sign 1 must not answer for True: (0.01, 1) == (0.01, True)
        bp.select_response(qb, [0.3], 0.01, PESSIMISTIC)
        with pytest.raises(ValueError, match="sign must be the int"):
            bp.select_response(qb, [0.3], 0.01, sign)
        with pytest.raises(ValueError, match="sign must be the int"):
            bp.penalized_field(qb, 0.01, sign)

    def test_deterministic_given_seed(self, qb):
        a = bp.select_response(qb, [0.37], 0.05)
        b = bp.select_response(bp.registry_get("QB"), [0.37], 0.05)
        assert pickle.dumps(a) == pickle.dumps(b)
        # 16 starts on QB's 4 vertices: 12 interior points drawn from the seed
        c = bp.constancy_check(qb, [0.37], 0.05, n_starts=16, seed=123)
        d = bp.constancy_check(bp.registry_get("QB"), [0.37], 0.05, n_starts=16, seed=123)
        assert pickle.dumps(c) == pickle.dumps(d)
        e = bp.constancy_check(qb, [0.37], 0.05, n_starts=16, seed=124)
        assert not all(np.array_equal(u[0], v[0]) for u, v in zip(c.witnesses, e.witnesses))


class TestSetupCache:
    """A selection keeps its set-up on the problem; none may be stale."""

    QB_FLAT = {**QB_DOC, "f": "2 + x[0] + x[1]"}

    def test_replaced_leader_matches_a_fresh_problem(self):
        p = bp.registry_get("QB")
        before = bp.select_response(p, [0.3], 0.01)
        flat = bp.problem_from_dict(self.QB_FLAT)
        fresh = bp.select_response(flat, [0.3], 0.01)
        assert fresh.leader_value != before.leader_value
        replaced = replace(p, leader_objective=flat.leader_objective)
        assert pickle.dumps(bp.select_response(replaced, [0.3], 0.01)) == pickle.dumps(fresh)
        with pytest.raises(FrozenInstanceError):  # replace() is the one way to vary a problem
            p.leader_objective = flat.leader_objective
        assert pickle.dumps(bp.select_response(p, [0.3], 0.01)) == pickle.dumps(before)

    def test_replaced_follower_set_is_selected_from(self):
        # the cache once kept the old set's vertices after an in-place change of C
        p = bp.registry_get("FS")
        assert bp.select_response(p, [0.5], 0.01).x.tolist() == [0.0, 1.0]
        wide = replace(p, follower_set=bp.Polytope([[1, 1]], [2.0]))
        sel = bp.select_response(wide, [0.5], 0.01)
        assert wide.follower_set.contains(sel.x)
        assert sel.x.tolist() == [0.0, 2.0]
        assert bp.select_response(p, [0.5], 0.01).x.tolist() == [0.0, 1.0]  # p keeps its set

    def test_each_epsilon_and_sign_match_a_fresh_problem(self):
        p = bp.registry_get("QB")
        for epsilon, sign in [(0.01, +1), (0.02, +1), (0.02, -1), (0.01, +1), (0.01, -1)]:
            for y in ([0.3], [0.5]):
                fresh = bp.select_response(bp.registry_get("QB"), y, epsilon, sign)
                assert pickle.dumps(bp.select_response(p, y, epsilon, sign)) == pickle.dumps(fresh)

    @pytest.mark.parametrize("name", ["QB", "FS"])
    def test_constancy_check_is_unchanged(self, name):
        p = bp.registry_get(name)
        for epsilon, sign in [(0.01, -1), (0.01, +1), (0.02, +1)]:
            bp.select_response(p, [0.3], epsilon, sign)
            fresh = bp.constancy_check(bp.registry_get(name), [0.3], 0.01, seed=1)
            assert pickle.dumps(bp.constancy_check(p, [0.3], 0.01, seed=1)) == pickle.dumps(fresh)


class TestUpperValue:
    def test_qb_values(self, qb):
        assert upper_value(qb, [0.5], 0.1) == pytest.approx(4.0 / 1.4, abs=1e-8)
        assert upper_value(qb, [0.0], 0.1) == pytest.approx(2.0 / 1.1, abs=1e-8)

    def test_fs_value_independent_of_epsilon(self, fs):
        for eps in (0.5, 0.1, 1e-4):
            assert upper_value(fs, [0.5], eps) == pytest.approx(2.0, abs=1e-12)


class TestConstancy:
    def test_qb_spread_tiny_on_nontrivial_argmin_segment(self, qb):
        report = bp.constancy_check(qb, [0.5], 0.1, n_starts=16)
        assert report.spread <= 1e-5
        assert report.kappa == pytest.approx(4.0 / 1.4, abs=1e-8)
        # the witnesses really do spread along the optimal diagonal
        firsts = sorted(w[0][0] for w in report.witnesses)
        assert firsts[-1] - firsts[0] > 0.1

    def test_fs_strict_minimizer(self, fs):
        report = bp.constancy_check(fs, [0.0], 0.1, n_starts=8)
        assert report.spread <= 1e-8

    def test_leader_objective_independent_of_x(self, fs):
        f = field_from_expression("2 + y[0]", dim_y=1, dim_x=2)
        h = field_from_expression("(x[0] - x[1])^2", dim_y=1, dim_x=2)
        p = BilevelProblem("const_leader", f, h, fs.leader_set, fs.follower_set)
        report = bp.constancy_check(p, [0.3], 0.1, n_starts=8)
        assert report.spread == 0.0

    def test_requires_enough_starts(self, qb):
        with pytest.raises(ValueError):
            bp.constancy_check(qb, [0.5], 0.1, n_starts=4)


class TestOrderProperties:
    def test_squared_leader_value_monotone_in_epsilon(self, qb, fs):
        # larger penalties push the squared leader value down, pointwise in y
        for problem in (qb, fs):
            for y in (0.2, 0.5, 0.8):
                eps_grid = [0.2, 0.1, 0.05, 0.01, 0.001]
                vals = [bp.select_response(problem, [y], e).leader_value ** 2
                        for e in eps_grid]
                for lo, hi in zip(vals, vals[1:]):
                    assert lo <= hi + 1e-8

    def test_optimistic_dominates_pessimistic(self, qb, fs):
        for problem in (qb, fs):
            for y in (0.1, 0.5, 0.9):
                for eps in (0.1, 0.01):
                    vp = upper_value(problem, [y], eps)
                    vo = upper_value(problem, [y], eps, OPTIMISTIC)
                    assert vo >= vp - 1e-8

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["QB", "FS"]), y=st.floats(0.0, 1.0),
           eps1=st.floats(1e-4, 0.3), r=st.floats(0.05, 0.99))
    def test_value_moves_toward_the_limit_as_eps_shrinks(self, qb, fs, name, y, eps1, r):
        # For eps2 < eps1 at a fixed y, adding the optimality inequalities of
        # both selections gives (eps1 - eps2)(f1^2 - f2^2) <= 0 for the
        # pessimistic sign: a warm continuation row starts no lower than the
        # row before it. The optimistic sign mirrors this.
        problem, eps2 = {"QB": qb, "FS": fs}[name], r * eps1
        for sign in (+1, -1):
            v1 = upper_value(problem, [y], eps1, sign)
            v2 = upper_value(problem, [y], eps2, sign)
            assert sign * (v2 - v1) >= -1e-9

    @pytest.mark.parametrize("name", ["QB", "FS"])
    @settings(max_examples=150, deadline=None)
    @given(y=st.floats(0.0, 1.0), eps=st.floats(1e-4, 0.3))
    def test_sandwich_around_the_worst_case_value(self, qb, fs, name, y, eps):
        # the pessimistic selection's leader value approaches the worst-case
        # value from below, the optimistic one stays above it
        problem = {"QB": qb, "FS": fs}[name]
        worst = bp.pessimistic_select(problem, [y], grid_step=1e-2).value
        assert upper_value(problem, [y], eps) <= worst + 1e-9
        assert worst + 1e-9 <= upper_value(problem, [y], eps, OPTIMISTIC) + 2e-9

    def test_selection_stable_along_converging_leader_sequence(self, qb):
        # responses along y_k -> y approach the minimal penalized value at y
        eps = 0.1
        y_target = 0.5
        field = bp.penalized_field(qb, eps)
        best_at_target = bp.select_response(qb, [y_target], eps).penalized_value
        errs = []
        for k in range(3, 12):
            y_k = y_target - 0.3 * 2.0 ** (-k)
            r = bp.select_response(qb, [y_k], eps)
            errs.append(abs(field.evaluate([y_target], r.x) - best_at_target))
        assert errs[-1] <= 1e-6
        assert errs[-1] <= errs[0] + 1e-12


def with_follower(problem, evaluate):
    """problem with a hand-built linear follower: evaluate, zero gradient."""
    h = ScalarField(dim_y=problem.dim_y, dim_x=problem.dim_x, evaluate=evaluate,
                    gradient_x=lambda y, x: np.zeros(problem.dim_x),
                    structure=LINEAR, convex_in_x=True)
    return replace(problem, name=problem.name + "-h", follower_objective=h)


class TestNonFiniteFollower:
    def test_nan_follower_is_never_certified(self, fs):
        p = with_follower(fs, lambda y, x: math.nan)
        sel = bp.select_response(p, [0.5], 0.1)
        assert math.isnan(sel.penalized_value)
        assert sel.fw_gap == math.inf
        assert sel.reliable is False
        assert bp.solve_penalized(p, 0.1).converged is False

    def test_nan_at_one_vertex_returns_the_finite_vertex(self, fs):
        p = with_follower(fs, lambda y, x: math.nan if x[0] == 1.0 else 0.0)
        sel = bp.select_response(p, [0.5], 0.1)
        np.testing.assert_array_equal(sel.x, [0.0, 1.0])
        assert sel.penalized_value == pytest.approx(0.4) and sel.reliable
        # a single run started at the NaN vertex leaves it for the finite one
        sol = bp.frank_wolfe_minimize(bp.penalized_field(p, 0.1).fix([0.5]), p.follower_set,
                                      start=[1.0, 0.0])
        np.testing.assert_array_equal(sol.x, [0.0, 1.0])
        assert sol.value == pytest.approx(0.4) and sol.fw_gap == 0.0
