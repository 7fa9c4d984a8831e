import math
import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import upper_solver
from bilevelpen.upper_solver import UpperConfig


class TestUpperConfig:
    def test_defaults_valid(self):
        assert asdict(UpperConfig()) == {"max_evals": 20000, "seed": 0}
        assert upper_solver.N_MULTISTARTS == 8
        assert upper_solver.SHRINK == 0.5

    def test_search_must_terminate(self):
        with pytest.raises(ValueError):
            UpperConfig(max_evals=0)


class TestPatternSearch:
    def test_smooth_unimodal(self):
        res = bp.pattern_search_maximize(lambda y: 1 + 4 * y[0] * (1 - y[0]),
                                         bp.BoxSet([0.0], [1.0]))
        assert res.converged
        assert abs(res.y[0] - 0.5) <= 1e-5
        assert abs(res.value - 2.0) <= 1e-9

    def test_constant_returns_start(self):
        res = bp.pattern_search_maximize(lambda y: 7.0, bp.BoxSet([0.0], [1.0]))
        assert res.converged
        np.testing.assert_allclose(res.y, [0.5])  # no start beats the first, the midpoint
        assert res.value == 7.0

    def test_nonsmooth_apex(self):
        res = bp.pattern_search_maximize(lambda y: -abs(y[0] - 0.3),
                                         bp.BoxSet([0.0], [1.0]))
        assert abs(res.y[0] - 0.3) <= 1e-5

    def test_budget_exhaustion_flagged(self):
        cfg = UpperConfig(max_evals=5)
        res = bp.pattern_search_maximize(lambda y: -(y[0] - 0.4) ** 2,
                                         bp.BoxSet([0.0], [1.0]), cfg)
        assert not res.converged
        assert res.evals <= 5
        assert res.y is not None
        # a climb on a constant costs 37 evaluations, so this budget runs out
        # between the first and the second start
        calls = []
        res = bp.pattern_search_maximize(lambda y: calls.append(y) or 7.0,
                                         bp.BoxSet([0.0], [1.0]), UpperConfig(max_evals=37))
        assert res.evals == len(calls) == 37 and not res.converged

    def test_budget_exhaustion_keeps_best_evaluated(self):
        for budget in range(2, 60):
            seen = []

            def fn(y):
                seen.append(-(y[0] - 0.4) ** 2 - (y[1] - 0.3) ** 2)
                return seen[-1]

            res = bp.pattern_search_maximize(fn, bp.BoxSet([0.0, 0.0], [1.0, 1.0]),
                                             UpperConfig(max_evals=budget))
            assert res.evals == len(seen), budget
            assert res.value == max(seen), budget

    def test_two_dimensional_box(self):
        res = bp.pattern_search_maximize(
            lambda y: -(y[0] - 0.25) ** 2 - (y[1] + 0.5) ** 2,
            bp.BoxSet([0.0, -1.0], [1.0, 1.0]))
        np.testing.assert_allclose(res.y, [0.25, -0.5], atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(center=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           injected=st.dictionaries(st.integers(0, 199),
                                    st.sampled_from([math.nan, math.inf, -math.inf]),
                                    max_size=60),
           budget=st.integers(1, 200))
    def test_best_is_the_earliest_highest_finite_evaluation(self, center, injected, budget):
        # rounding makes plateaus, so ties between evaluations are common
        ys, values = [], []

        def fn(y):
            value = injected.get(len(values), round(-abs(y[0] - center[0])
                                                    - abs(y[1] - center[1]), 2))
            ys.append(y.copy())
            values.append(value)
            return value

        box = bp.BoxSet([0.0, 0.0], [1.0, 1.0])
        try:
            res = bp.pattern_search_maximize(fn, box, UpperConfig(max_evals=budget))
        except bp.ProblemError:
            assert not any(math.isfinite(v) for v in values)
            return
        best = max(v for v in values if math.isfinite(v))
        first = next(i for i, v in enumerate(values) if v == best)
        assert res.value == best
        np.testing.assert_array_equal(res.y, ys[first])


def recorded_selections(monkeypatch):
    """The leader points of every selection solve_penalized makes, in order."""
    ys = []

    def record(problem, y, epsilon, sign):
        ys.append(np.array(y, dtype=float))
        return bp.select_response(problem, y, epsilon, sign)
    monkeypatch.setattr(upper_solver, "select_response", record)
    return ys


class TestWarmClimb:
    def test_first_selection_at_warm_start(self, fs, monkeypatch):
        # FS peaks at y = 0.5: the climb starts there and keeps it
        ys = recorded_selections(monkeypatch)
        sol = bp.solve_penalized(fs, 0.05, warm_start=[0.5])
        np.testing.assert_array_equal(ys[0], [0.5])
        np.testing.assert_array_equal(sol.y, [0.5])
        assert sol.value == 2.0 and sol.converged
        # one climb: two probes per poll at steps 1e-2 * 0.5^k down to MIN_STEP
        assert sol.evals == len(ys) <= 1 + 2 * 15

    def test_climbs_from_the_clipped_warm_start(self, fs, monkeypatch):
        ys = recorded_selections(monkeypatch)
        sol = bp.solve_penalized(fs, 0.05, warm_start=[1.7])
        np.testing.assert_array_equal(ys[0], [1.0])
        assert abs(sol.y[0] - 0.5) <= 1e-5
        assert sol.value == pytest.approx(2.0, abs=1e-9)

    def test_budget_exhaustion_flagged(self, fs):
        sol = bp.solve_penalized(fs, 0.05, cfg=UpperConfig(max_evals=3), warm_start=[0.3])
        assert not sol.converged
        assert sol.evals == 3
        assert sol.value > bp.select_response(fs, [0.3], 0.05).leader_value

    def test_ties_keep_the_earliest_evaluation(self, fs):
        # a leader objective flat in y: every evaluation ties with the first
        flat = replace(fs, leader_objective=bp.field_from_expression("2 + x[0]", 1, 2))
        cold = bp.solve_penalized(flat, 0.05)
        np.testing.assert_array_equal(cold.y, flat.leader_set.midpoint())
        warm = bp.solve_penalized(flat, 0.05, warm_start=[0.3])
        np.testing.assert_array_equal(warm.y, [0.3])
        assert cold.evals > 1 and warm.evals > 1
        for sol in (cold, warm):
            np.testing.assert_array_equal(sol.selection.y, sol.y)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("warm_start", [None, [0.3]])
    def test_selection_is_the_re_solve(self, qb, sign, warm_start):
        cfg = UpperConfig(seed=3)
        sol = bp.solve_penalized(qb, 0.02, sign=sign, cfg=cfg, warm_start=warm_start)
        again = bp.select_response(qb, sol.y, 0.02, sign)
        assert pickle.dumps(sol.selection) == pickle.dumps(again)
        assert sol.value == again.leader_value


class TestSolvePenalized:
    def test_qb_closed_form_large_eps(self, qb):
        sol = bp.solve_penalized(qb, 0.1)
        assert sol.converged
        assert abs(sol.y[0] - 0.5) <= 1e-4
        assert sol.value == pytest.approx(4.0 / 1.4, abs=1e-4)
        assert sol.value == sol.selection.leader_value

    def test_qb_closed_form_small_eps(self, qb):
        sol = bp.solve_penalized(qb, 0.01)
        assert sol.value == pytest.approx(4.0 / 1.04, abs=1e-4)

    def test_fs_epsilon_independent(self, fs):
        sol = bp.solve_penalized(fs, 0.05)
        assert abs(sol.y[0] - 0.5) <= 1e-5
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(sol.selection.x, [0.0, 1.0], atol=1e-9)

    def test_rejects_bad_epsilon(self, qb):
        with pytest.raises(ValueError):
            bp.solve_penalized(qb, 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, qb, epsilon):
        with pytest.raises(ValueError, match="finite"):
            bp.solve_penalized(qb, epsilon)

    def test_seed_determinism_bitwise(self, qb):
        cfg = UpperConfig(seed=42)
        a = bp.solve_penalized(qb, 0.05, cfg=cfg)
        b = bp.solve_penalized(bp.registry_get("QB"), 0.05, cfg=cfg)
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_budget_exhaustion_returns_best(self, qb):
        sol = bp.solve_penalized(qb, 0.1, cfg=UpperConfig(max_evals=6))
        assert not sol.converged
        assert sol.value > 0


class TestValueChain:
    def test_values_increase_as_penalty_shrinks(self, qb, fs):
        # for eps > eps', the solved value at eps is no larger (up to slack)
        slack = 2e-4
        for problem in (qb, fs):
            eps_grid = [0.2, 0.1, 0.05, 0.01]
            vals = [bp.solve_penalized(problem, e).value for e in eps_grid]
            for lo, hi in zip(vals, vals[1:]):
                assert lo <= hi + slack

    def test_bounded_by_oracle_value(self, qb, fs):
        slack = 2e-4
        for problem in (qb, fs):
            oracle = bp.solve_three_level(problem)
            for eps in (0.1, 0.01):
                sol = bp.solve_penalized(problem, eps)
                assert sol.value <= oracle.leader_value + slack

    def test_sandwich_at_oracle_leader_point(self, qb, fs):
        # value at the oracle's y never exceeds the solved maximum
        slack = 2e-4
        for problem in (qb, fs):
            oracle = bp.solve_three_level(problem)
            for eps in (0.1, 0.01):
                sol = bp.solve_penalized(problem, eps)
                at_star = bp.select_response(problem, oracle.y, eps).leader_value
                assert at_star <= sol.value + slack


# FS with a leader objective that is NaN at one leader point or at all of them
NAN_AT_MIDPOINT = "1 + 4*y[0]*(1 - y[0]) + x[0] + 0*(1/(y[0] - 0.5))"
NAN_EVERYWHERE = "1 + x[0] + 0*(1/(y[0] - y[0]))"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteLeader:
    def test_nan_at_the_first_probe_still_climbs(self, fs):
        # the box midpoint is the first probe; a NaN there used to stop the climb
        p = bp.problem_from_dict({**bp.problem_to_dict(fs), "f": NAN_AT_MIDPOINT})
        sol = bp.solve_penalized(p, 0.1)
        assert sol.converged
        assert abs(sol.y[0] - 0.5) <= 1e-5
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        assert sol.value == sol.selection.leader_value

    @pytest.mark.parametrize("warm_start", [None, [0.3]])
    def test_nan_everywhere_is_a_problem_error(self, fs, warm_start):
        p = bp.problem_from_dict({**bp.problem_to_dict(fs), "f": NAN_EVERYWHERE})
        with pytest.raises(bp.ProblemError, match="leader objective is not finite"):
            bp.solve_penalized(p, 0.1, warm_start=warm_start)
