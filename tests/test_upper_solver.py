import json
import math
import pickle
import warnings
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import cli, oracle, upper_solver
from bilevelpen.model import DimensionGuardError
from bilevelpen.upper_solver import UpperConfig


class TestUpperConfig:
    def test_defaults_valid(self):
        assert asdict(UpperConfig()) == {"max_evals": 20000, "seed": 0}
        assert upper_solver.N_MULTISTARTS == 8
        assert upper_solver.SHRINK == 0.5

    def test_search_must_terminate(self):
        with pytest.raises(ValueError):
            UpperConfig(max_evals=0)

    @pytest.mark.parametrize("field, value", [
        ("max_evals", 2.5), ("max_evals", True), ("max_evals", 0), ("max_evals", "20"),
        ("seed", -1), ("seed", 2.5), ("seed", True), ("seed", None)])
    def test_rejects_a_setting_that_is_not_an_integer_in_range(self, field, value):
        # 2.5 evaluations used to make a solve of 3, True acted as 1, and a
        # seed of -1 or 2.5 failed only inside a cold solve, in numpy
        with pytest.raises(ValueError, match=f"^{field} must be an integer of at least"):
            UpperConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = UpperConfig(max_evals=np.int64(5), seed=np.uint32(7))
        assert bp.pattern_search_maximize(lambda y: -abs(y[0] - 0.5), bp.BoxSet([0.0], [1.0]),
                                          cfg).evals == 5


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
        # a coarse climb on a constant costs 17 evaluations, so this budget
        # runs out in the third start
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

    @pytest.mark.parametrize("warm_start", [[0.5, 0.7], [], 0.5], ids=["long", "empty", "scalar"])
    def test_warm_start_of_another_shape_is_rejected(self, qb, warm_start):
        # [0.5, 0.7] once broadcast through the clip and returned y = [0.5, 0.7]
        with pytest.raises(ValueError, match="not a point of 1 leader coordinates"):
            bp.solve_penalized(qb, 0.1, warm_start=warm_start)

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

    @pytest.mark.parametrize("warm_start,probes,points", [(None, 218, 99), ([0.3], 69, 50)])
    def test_selects_each_leader_point_once(self, monkeypatch, warm_start, probes, points):
        # the compass poll probes the point it just left, and after a shrink both
        # neighbours again; a cold solve's climbs walk one mesh, and climbs that
        # meet probe the same points; each is selected once, and evals counts
        # every probe
        ys = recorded_selections(monkeypatch)
        sol = bp.solve_penalized(bp.registry_get("QB"), 0.01, warm_start=warm_start)
        assert len({y.tobytes() for y in ys}) == len(ys) == points
        assert sol.evals == probes

    def test_budget_exhaustion_returns_best(self, qb):
        sol = bp.solve_penalized(qb, 0.1, cfg=UpperConfig(max_evals=6))
        assert not sol.converged
        assert sol.value > 0


class TestColdSolve:
    @pytest.mark.parametrize("budget", [3, 20, 20000])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("name", ["QB", "FS"])
    def test_is_the_public_search_of_the_upper_value(self, name, sign, seed, budget):
        problem, cfg = bp.registry_get(name), UpperConfig(max_evals=budget, seed=seed)
        sol = bp.solve_penalized(problem, 0.01, sign, cfg)
        res = bp.pattern_search_maximize(
            lambda y: bp.select_response(problem, y, 0.01, sign).leader_value,
            problem.leader_set, cfg)
        assert (sol.y.tobytes(), sol.value, sol.evals) == (res.y.tobytes(), res.value, res.evals)


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


class TestNonFiniteFollower:
    @pytest.mark.parametrize("warm_start", [None, [0.005]])
    def test_nan_follower_probe_is_flagged(self, fs, warm_start):
        # h = (y/y) x[0] is NaN at y = 0 only: the solve once reported
        # converged True there and printed numpy's RuntimeWarnings
        p = bp.problem_from_dict({**bp.problem_to_dict(fs), "h": "(y[0]/y[0]) * x[0]"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = bp.solve_penalized(p, 0.1, warm_start=warm_start)
        assert sol.converged is False
        np.testing.assert_array_equal(sol.nonfinite_y, [0.0])
        assert math.isfinite(sol.value) and sol.selection.fw_gap <= 1e-8

    def test_finite_solve_has_no_nonfinite_probe(self, fs):
        sol = bp.solve_penalized(fs, 0.1)
        assert sol.converged and sol.nonfinite_y is None


# The cfg seeds of the benchmark's qb-trace ops at seeds 3 and 7: four draws
# of default_rng(seed).integers(2**31 - 1), one per op.
QB_TRACE_SEEDS = (1742692731, 183930185, 385346042, 508546690,
                  2029167940, 1342382291, 1469265225, 1926751965)


class TestSobolStarts:
    """_start_set draws scipy.stats.qmc.Sobol's scrambled points without
    scipy, as lattice indices: the points are the indices times 2**-30."""

    @pytest.mark.parametrize("d", range(1, len(upper_solver._SOBOL_M) + 1))
    def test_start_set_is_scipy_sobol_bit_for_bit(self, d):
        from scipy.stats import qmc
        for seed in (0, 1, 2, 42, 2 ** 31 - 2, *QB_TRACE_SEEDS):
            ours = upper_solver._start_set(d, seed)
            U = qmc.Sobol(d=d, scramble=True, seed=seed).random(upper_solver.N_MULTISTARTS)
            assert ours.shape == U.shape == (upper_solver.N_MULTISTARTS, d)
            assert ours[0].tolist() == [2 ** 29] * d  # the box midpoint
            assert (ours[1:] * 2.0 ** -30).tobytes() == U[:-1].tobytes(), seed

    def test_vendored_table_is_scipys(self):
        # unscrambled, point 2**j - 1 in Gray-code order is m_j * 2**-(j + 1)
        from scipy.stats import qmc
        P = qmc.Sobol(d=len(upper_solver._SOBOL_M), scramble=False).random(8)
        assert P[1].tolist() == [0.5] * len(upper_solver._SOBOL_M)
        assert list(zip((P[3] * 4).tolist(), (P[7] * 8).tolist())) == list(upper_solver._SOBOL_M)

    # a leader box one dimension past the vendored table, on FS's segment
    WIDE = {"name": "wide", "dim_y": len(upper_solver._SOBOL_M) + 1, "dim_x": 2,
            "A": [[1.0, 1.0]], "b": [1.0],
            "K_lower": [0.0] * (len(upper_solver._SOBOL_M) + 1),
            "K_upper": [1.0] * (len(upper_solver._SOBOL_M) + 1),
            "f": "1 + y[0] + x[0]", "h": "0"}

    def test_cold_solve_above_the_table_is_guarded(self, tmp_path, capsys):
        with pytest.raises(DimensionGuardError, match="Sobol starts guarded to 32"):
            bp.solve_penalized(bp.problem_from_dict(self.WIDE), 0.1)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.WIDE))
        capsys.readouterr()
        assert cli.main(["solve", "--problem", str(path), "--epsilon", "0.1",
                         "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Sobol starts guarded")

    def test_warm_solve_above_the_table_runs(self):
        d = self.WIDE["dim_y"]
        sol = bp.solve_penalized(bp.problem_from_dict(self.WIDE), 0.1,
                                 warm_start=np.full(d, 0.5))
        assert sol.converged and sol.y.shape == (d,) and sol.y[0] == 1.0


LATTICE = upper_solver._LATTICE  # the lattice strides in one span of the box


def whole_vector_climb(evaluate, K, best, steps, min_step, max_evals):
    """_compass_climb as a numpy climb of index vectors that skips a probe
    by comparing its whole clipped index vector with y's and builds every
    probe from its whole index vector, from best = (y, value) and y's
    nearest indices: the reference for the coordinate test."""
    span, evals = K.upper - K.lower, 0
    top, steps = np.where(span > 0, LATTICE, 0), np.array(steps)
    n = np.where(span > 0, np.round((best[0] - K.lower) / np.where(span > 0, span, 1.0) * LATTICE),
                 0).astype(int)
    best = (*best[:2], n)
    while np.max(steps) >= min_step * LATTICE:
        if evals >= max_evals:
            return best, steps.tolist(), evals, True
        cand = best
        for i in range(K.dim):
            for direction in (+1, -1):
                m = n.copy()
                m[i] += direction * steps[i]
                m = np.clip(m, 0, top)
                if (m == n).all():
                    continue
                if evals >= max_evals:
                    return cand, steps.tolist(), evals, True
                probe = np.minimum(K.lower + span * (m * 2.0 ** -30), K.upper)
                value = evaluate(probe)
                evals += 1
                if upper_solver._improves(value, cand[1]):
                    cand = (probe, value, m)
        if cand is best:
            steps = steps // 2
        n = cand[2]
        best = cand
    return best, steps.tolist(), evals, False


@st.composite
def climbs(draw):
    """A box of 1-3 dimensions (a span may be 0), a start at a corner, on a
    face or inside, strides of up to 4 spans and a rounded concave
    objective, so polls tie and skip probes."""
    dim = draw(st.integers(1, 3))
    bound = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-5.0, 5.0))
    lo = np.array(draw(st.lists(bound, min_size=dim, max_size=dim)))
    width = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0))
    K = bp.BoxSet(lo, lo + np.array(draw(st.lists(width, min_size=dim, max_size=dim))))
    where = st.sampled_from(["lower", "upper", "inside"])
    start = np.array([K.lower[j] if w == "lower" else K.upper[j] if w == "upper"
                      else K.lower[j] + draw(st.floats(0.0, 1.0)) * (K.upper[j] - K.lower[j])
                      for j, w in enumerate(draw(st.lists(where, min_size=dim, max_size=dim)))])
    fractions = draw(st.lists(st.sampled_from([0.3, 1.0, 1.5, 4.0]), min_size=dim, max_size=dim))
    target = K.lower + (K.upper - K.lower) * np.array(draw(st.lists(
        st.floats(-0.5, 1.5), min_size=dim, max_size=dim)))
    return (K, K.clip(start), [round(f * LATTICE) for f in fractions], target,
            draw(st.integers(1, 60)))


def both_climbs(K, start, steps, target, max_evals):
    """(probes, end, value, evals, exhausted) of _compass_climb and of
    whole_vector_climb from start, to a stride of 1e-3 of the span."""
    runs = []
    for climb in (upper_solver._compass_climb, whole_vector_climb):
        probes = []

        def evaluate(y):
            probes.append(y.tobytes())
            return round(-float(((y - target) ** 2).sum()), 2)
        end, _, evals, exhausted = climb(evaluate, K, (start, evaluate(start)), steps,
                                         1e-3, max_evals)
        runs.append((probes, end[0].tobytes(), end[1], evals, exhausted))
    return runs


class TestCoordinateSkip:
    @settings(max_examples=200, deadline=None)
    @given(climbs())
    def test_skips_exactly_the_probes_of_the_whole_vector_rule(self, case):
        ours, whole = both_climbs(*case)
        assert ours == whole

    @pytest.mark.parametrize("lower, upper, start", [
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),  # collapsed sides
        ([0.1, -0.3], [0.7, 1.9], [0.4, 0.8]),  # bounds and start not dyadic
        ([-1e-300, 0.3], [1e-300, 0.3], [0.0, 0.3]),  # a tiny side, a collapsed non-dyadic one
        ([-1e150, 0.1], [1e150, 0.7], [3.0, 0.5]),  # a side 2e150 wide, squared below overflow
    ], ids=["collapsed", "non_dyadic", "tiny", "wide"])
    @pytest.mark.parametrize("max_evals", [1, 2, 3, 5, 7, 200])
    def test_boxes_and_budgets_that_stop_mid_poll(self, lower, upper, start, max_evals):
        # a poll makes 2 or 4 probes here, so every odd budget stops mid-poll
        K = bp.BoxSet(lower, upper)
        ours, whole = both_climbs(K, np.array(start), [round(0.3 * LATTICE)] * K.dim,
                                  K.lower + (K.upper - K.lower) * 0.77, max_evals)
        assert ours == whole
        assert ours[3:] == ((max_evals, True) if max_evals < 200 else (ours[3], False))


def refine_every_start(value_fn, K, seed):
    """pattern_search_maximize as it was when every start climbed down to
    MIN_STEP, each climb split at COARSE_STEP: the reference for the
    coarse-then-refine rule. Returns the best value, the evaluations made
    and per start its (coarse end, fine end), each (y, value)."""
    stride, lattice = round(upper_solver.COLD_STEP * LATTICE), upper_solver._lattice(K)
    ends, evals = [], 0
    for y in upper_solver._mesh_starts(lattice, seed, stride):
        coarse, rest, used, _ = upper_solver._compass_climb(
            value_fn, K, (y, value_fn(y)), [stride] * K.dim, upper_solver.COARSE_STEP, math.inf)
        fine, _, more, _ = upper_solver._compass_climb(value_fn, K, coarse, rest,
                                                       upper_solver.MIN_STEP, math.inf)
        ends.append((coarse, fine))
        evals += 1 + used + more
    return max(fine[1] for _, fine in ends), evals, ends


@st.composite
def bump_leaders(draw):
    """A sum of 2-5 Gaussian bumps on the unit box of 1-2 dimensions, with
    heights a in [0.5, 1.5] and widths w in [0.05, 0.3], a Sobol seed, and
    M = sum(a / w^2), which bounds the norm of the leader's Hessian."""
    dim, n = draw(st.integers(1, 2)), draw(st.integers(2, 5))
    centers = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
                                     min_size=n, max_size=n)))
    heights = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    widths = np.array(draw(st.lists(st.floats(0.05, 0.3), min_size=n, max_size=n)))

    def leader(y):
        return float(heights @ np.exp(-((y - centers) ** 2).sum(axis=1) / (2 * widths ** 2)))
    return (leader, bp.BoxSet(np.zeros(dim), np.ones(dim)), draw(st.integers(0, 2 ** 31 - 2)),
            float((heights / widths ** 2).sum()))


class TestCoarseThenRefine:
    @settings(max_examples=40, deadline=None)
    @given(bump_leaders())
    def test_loses_at_most_what_the_meshes_miss(self, case):
        leader, K, seed, M = case
        res = bp.pattern_search_maximize(leader, K, UpperConfig(seed=seed))
        best, evals, _ = refine_every_start(leader, K, seed)
        # every evaluation made here is one the reference makes
        assert res.converged and res.value <= best and res.evals <= evals

        def missed(step):
            # a climb stopped below step last polled at 2 * step and found no
            # better neighbour: it ends within about 2 * step of its peak in
            # each coordinate, so at most this far below it
            return K.dim * M * (2 * step) ** 2 / 2
        # The reference wins only with a climb not refined here. Either the
        # last polls of its coarse end and of the best coarse end overlapped,
        # on the same peak, and both fine ends lie within missed(MIN_STEP) of
        # that peak;
        # or its coarse end lay more than COARSE_MARGIN below the best's, and
        # it gains at most missed(COARSE_STEP) below COARSE_STEP.
        bound = max(missed(upper_solver.COARSE_STEP) - upper_solver.COARSE_MARGIN,
                    missed(upper_solver.MIN_STEP))
        assert best - res.value <= bound

    @pytest.mark.parametrize("s", [393, 609])
    def test_ends_whose_last_polls_overlap_are_refined_once(self, monkeypatch, s):
        # two-dimensional five-bump leaders whose climbs to one peak stop
        # farther apart than the best end's last poll reaches, but with
        # overlapping last polls; tested against the best end's poll alone,
        # 393 refined two ends of that peak and 609 four
        rng = np.random.default_rng(s)
        dim = int(rng.integers(1, 3))
        centers, heights = rng.uniform(size=(5, dim)), rng.uniform(0.5, 1.5, 5)
        widths = rng.uniform(0.05, 0.3, 5)

        def leader(y):
            return float(heights @ np.exp(-((y - centers) ** 2).sum(axis=1) / (2 * widths ** 2)))
        refined, climb = [], upper_solver._compass_climb

        def recorded(evaluate, K, best, steps, min_step, *rest):
            if min_step == upper_solver.MIN_STEP:
                refined.append(best[0])
            return climb(evaluate, K, best, steps, min_step, *rest)
        monkeypatch.setattr(upper_solver, "_compass_climb", recorded)
        res = bp.pattern_search_maximize(leader, bp.BoxSet(np.zeros(dim), np.ones(dim)),
                                         UpperConfig(seed=s))
        assert dim == 2 and res.converged and len(refined) == 1

    def test_the_margin_decides_a_near_tie(self, monkeypatch):
        # a wide peak of height 1 at 0.2987 and a narrow one 1e-5 higher at
        # 0.7513, neither on the mesh of the coarse probes, the multiples of
        # 2**-9; the narrower the second peak, the lower its best coarse end
        def near_tie(width):
            return lambda y: max(math.exp(-(y[0] - 0.2987) ** 2 / 0.02),
                                 (1 + 1e-5) * math.exp(-(y[0] - 0.7513) ** 2 / (2 * width ** 2)))
        K = bp.BoxSet([0.0], [1.0])
        for width, inside in ((0.03, True), (0.01, False)):
            leader = near_tie(width)
            best, _, ends = refine_every_start(leader, K, 0)
            assert best > 1.0  # refining every start finds the narrow peak
            wide, narrow = (max(coarse[1] for coarse, _ in ends if (coarse[0][0] > 0.5) == side)
                            for side in (False, True))
            assert (wide - narrow <= upper_solver.COARSE_MARGIN) is inside
            res = bp.pattern_search_maximize(leader, K)
            if inside:  # refined too, the narrow peak wins as in the reference
                assert res.value == best
            else:  # the wide peak wins, 1e-5 lower
                assert 0.0 < best - res.value <= 1e-5 + 1e-9
        # refining the best end only, the narrow peak loses inside the margin too
        monkeypatch.setattr(upper_solver, "COARSE_MARGIN", 0.0)
        assert bp.pattern_search_maximize(near_tie(0.03), K).value < 1.0

    @pytest.mark.parametrize("case", ["QB", "near tie"])
    def test_a_refinement_that_runs_out_ends_the_search(self, monkeypatch, case):
        # QB at eps 0.01 makes 198 coarse evaluations, then refines one end
        # in 20; the near tie of the test above refines four ends. A budget
        # of 3 more than the coarse stage runs out in the first refinement.
        if case == "QB":
            qb = bp.registry_get("QB")

            def leader(y):
                return bp.select_response(qb, y, 0.01, bp.PESSIMISTIC).leader_value
            K, coarse, refinements = qb.leader_set, 198, 1
        else:
            def leader(y):
                return max(math.exp(-(y[0] - 0.2987) ** 2 / 0.02),
                           (1 + 1e-5) * math.exp(-(y[0] - 0.7513) ** 2 / (2 * 0.03 ** 2)))
            K, coarse, refinements = bp.BoxSet([0.0], [1.0]), 176, 4
        ys, values, runs, climb = [], [], [], upper_solver._compass_climb

        def evaluate(y):
            ys.append(y)
            values.append(leader(y))
            return values[-1]

        def recorded(evaluate, K, best, steps, min_step, *rest):
            out = climb(evaluate, K, best, steps, min_step, *rest)
            runs.append((min_step, len(values) - out[2], out[2], out[3]))
            return out
        monkeypatch.setattr(upper_solver, "_compass_climb", recorded)
        assert bp.pattern_search_maximize(evaluate, K).converged
        assert [c[1] for c in runs if c[0] == upper_solver.MIN_STEP][:1] == [coarse]
        assert sum(c[0] == upper_solver.MIN_STEP for c in runs) == refinements
        for seen in (ys, values, runs):
            seen.clear()
        res = bp.pattern_search_maximize(evaluate, K, UpperConfig(max_evals=coarse + 3))
        assert not res.converged and res.evals == len(values) == coarse + 3
        assert res.value == max(values) and res.y is ys[values.index(res.value)]
        # the one refinement is the exhausted one, and none runs after it
        assert [c[2:] for c in runs if c[0] == upper_solver.MIN_STEP] == [(3, True)]
        assert runs[-1][0] == upper_solver.MIN_STEP

    @settings(max_examples=100, deadline=None)
    @given(climbs())
    def test_a_climb_resumed_from_its_steps_makes_the_probes_of_one_climb(self, case):
        K, start, steps, target, max_evals = case

        def run(min_steps):
            probes = []

            def evaluate(y):
                probes.append(y.tobytes())
                return round(-float(((y - target) ** 2).sum()), 2)
            end, rest, evals = (start, evaluate(start)), steps, 0
            for min_step in min_steps:
                end, rest, used, exhausted = upper_solver._compass_climb(
                    evaluate, K, end, rest, min_step, max_evals - evals)
                evals += used
                if exhausted:
                    break
            return probes, end[0].tobytes(), end[1], rest, evals, exhausted
        assert run([1e-1, 1e-3]) == run([1e-3])


class TestMeshStarts:
    """A cold solve's starts are _start_set's on the mesh of a climb's last
    coarse poll, so every coarse probe of every climb lies on one lattice."""

    @pytest.mark.parametrize("lower,upper", [
        ([0.0], [1.0]), ([0.1], [0.7]), ([0.1, -0.3], [0.7, 1.9]), ([0.3, 0.0], [0.3, 1.0]),
        ([0.0], [1e-4]), ([-8e307], [8e307])],
        ids=["unit", "non_dyadic", "two_dims", "collapsed", "tiny", "wide"])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 2])
    def test_each_start_is_its_sobol_point_on_the_mesh(self, lower, upper, seed):
        # on every box the first strides 2**28 halve 7 times to 2**21, the
        # last at or above COARSE_STEP of the span
        K, mesh = bp.BoxSet(lower, upper), 2 ** 21
        lattice = upper_solver._lattice(K)
        starts = upper_solver._mesh_starts(lattice, seed, round(upper_solver.COLD_STEP * LATTICE))
        sobol = upper_solver._start_set(K.dim, seed)
        top = np.where(K.upper > K.lower, LATTICE, 0)  # a collapsed side has index 0 only
        indices = np.minimum(mesh * np.round(sobol / mesh), top).astype(int)
        assert [y.tobytes() for y in starts] == [
            np.minimum(K.lower + (K.upper - K.lower) * (n * 2.0 ** -30), K.upper).tobytes()
            for n in indices]
        assert all(K.contains(y) for y in starts)

    @pytest.mark.parametrize("bound", [1e300, 8e307])
    def test_a_very_wide_box_converges_in_a_few_hundred_evaluations(self, bound):
        # first steps of 0.25 * span once halved about 1,000 times down to
        # COARSE_STEP, and the search spent all 20,000 evaluations
        res = bp.pattern_search_maximize(lambda y: -abs(y[0] - 3.0), bp.BoxSet([-bound], [bound]))
        assert res.converged and res.evals < 300

    def test_climbs_meet_on_boxes_that_are_not_dyadic(self, monkeypatch):
        # QB at eps 0.01, both signs, cfg seeds 0-9 makes 2,078 selections on
        # [0, 1]; with probes formed as y + step in floating point, climbs that
        # met on [0.1, 0.7] and [-0.3, 1.9] probed other bits, and those boxes
        # made 2,925 and 3,788
        ys = recorded_selections(monkeypatch)
        counts = []
        for lower, upper in ((0.0, 1.0), (0.1, 0.7), (-0.3, 1.9)):
            problem = replace(bp.registry_get("QB"), leader_set=bp.BoxSet([lower], [upper]))
            ys.clear()
            for sign in (+1, -1):
                for seed in range(10):
                    bp.solve_penalized(problem, 0.01, sign, UpperConfig(seed=seed))
            counts.append(len(ys))
        assert all(abs(count - counts[0]) <= 0.01 * counts[0] for count in counts[1:]), counts

    def test_a_span_that_overflows_never_reaches_the_search(self):
        # its steps were inf and never shrank: the search spent its whole
        # budget and warned of overflow twice
        calls = []
        with pytest.raises(bp.ProblemError, match="box span"):
            bp.pattern_search_maximize(lambda y: calls.append(y) or -abs(float(y[0]) - 3.0),
                                       bp.BoxSet([-1e308], [1e308]))
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 7])
    def test_climbs_that_meet_share_their_selections(self, monkeypatch, seed):
        # on QB every coarse climb ends at y = 0.5, the first start: each later
        # climb reaches a point an earlier one probed, and the memo answers it
        ys = recorded_selections(monkeypatch)
        climbs, climb = [], upper_solver._compass_climb

        def recorded(evaluate, K, best, steps, min_step, *rest):
            probes = [best[0].tobytes()] if min_step == upper_solver.COARSE_STEP else []
            climbs.append(probes)

            def probe(y):
                probes.append(y.tobytes())
                return evaluate(y)
            return climb(probe, K, best, steps, min_step, *rest)
        monkeypatch.setattr(upper_solver, "_compass_climb", recorded)
        sol = bp.solve_penalized(bp.registry_get("QB"), 0.01, cfg=UpperConfig(seed=seed))
        coarse = climbs[:upper_solver.N_MULTISTARTS]
        assert all(any(p in set().union(*coarse[:j]) for p in probes)
                   for j, probes in enumerate(coarse) if j > 0)
        probes = [p for probes in climbs for p in probes]
        assert sol.evals == len(probes) > len(set(probes)) == len(ys)
        assert sorted(y.tobytes() for y in ys) == sorted(set(probes))


class TestWarmStep:
    @pytest.mark.parametrize("warm_start", [[math.inf], [-math.inf], [math.nan], [None]])
    def test_non_finite_warm_start_is_rejected_before_any_selection(self, qb, monkeypatch,
                                                                   warm_start):
        # [inf] was clipped to the box edge and returned y = 0.5, and [nan]
        # failed inside the selection as a leader point outside the box
        ys = recorded_selections(monkeypatch)
        with pytest.raises(ValueError, match="^warm_start must be finite"):
            bp.solve_penalized(qb, 0.1, warm_start=warm_start)
        assert ys == []

    @pytest.mark.parametrize("warm_step, match", [
        ([-1e-3], "must be finite and nonnegative"), ([math.nan], "must be finite and nonnegative"),
        ([math.inf], "must be finite and nonnegative"), ([1e-3, 1e-3], "not a point of 1"),
        (1e-3, "not a point of 1"), (["x"], "not a point of 1")])
    def test_warm_step_is_a_finite_nonnegative_step_per_coordinate(self, qb, monkeypatch,
                                                                   warm_step, match):
        ys = recorded_selections(monkeypatch)
        with pytest.raises(ValueError, match=f"^warm_step .*{match}"):
            bp.solve_penalized(qb, 0.1, warm_start=[0.3], warm_step=warm_step)
        assert ys == []

    def test_warm_step_needs_a_warm_start(self, qb, monkeypatch):
        ys = recorded_selections(monkeypatch)
        with pytest.raises(ValueError, match="^warm_step is a step of a warm climb"):
            bp.solve_penalized(qb, 0.1, warm_step=[1e-3])
        assert ys == []

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("name, warm_start", [("QB", [0.3]), ("FS", [0.5]), ("FS", [0.9])])
    def test_a_step_of_half_warm_step_or_more_is_the_plain_climb(self, name, warm_start, sign):
        problem = bp.registry_get(name)
        plain = bp.solve_penalized(problem, 0.02, sign, warm_start=warm_start)
        for factor in (1.0, 3.0):
            step = [factor * upper_solver.WARM_STEP * upper_solver.SHRINK]
            sol = bp.solve_penalized(problem, 0.02, sign, warm_start=warm_start, warm_step=step)
            assert pickle.dumps(sol) == pickle.dumps(plain)

    def test_a_still_point_costs_the_first_poll_and_the_floor(self, fs, monkeypatch):
        # FS peaks at y = 0.5: one poll at WARM_STEP, then a step of 0 is the
        # floor MIN_STEP, whose one poll halves it to below MIN_STEP
        ys = recorded_selections(monkeypatch)
        sol = bp.solve_penalized(fs, 0.05, warm_start=[0.5], warm_step=[0.0])
        np.testing.assert_array_equal(sol.y, [0.5])
        assert sol.evals == len(ys) == 1 + 2 + 2 and sol.converged
        assert sorted(abs(y[0] - 0.5) for y in ys)[-2:] == pytest.approx([1e-2, 1e-2])

    def test_a_climb_whose_fine_step_is_too_short_doubles_it_while_it_moves(self):
        # -|y - peak| from 0.5: the first poll at 1e-2 finds nothing better for
        # a peak 3e-3 away, and 1e-5 steps would walk there in 300 polls; a
        # peak 0.2 away is found by the first poll, and the climb is the plain one
        K = bp.BoxSet([0.0], [1.0])

        def climb(peak, fine):
            def evaluate(y):
                return -abs(y[0] - peak)
            start = (np.array([0.5]), evaluate([0.5]), [LATTICE // 2])
            return upper_solver._compass_climb(evaluate, K, start,
                                               [round(upper_solver.WARM_STEP * LATTICE)],
                                               upper_solver.MIN_STEP, 10 ** 4, fine)
        fine = [round(1e-5 * LATTICE)]
        end, _, evals, exhausted = climb(0.503, fine)
        assert not exhausted and abs(end[0][0] - 0.503) < 2 * upper_solver.MIN_STEP
        assert evals <= 60
        far, plain = climb(0.3, fine), climb(0.3, None)
        assert far[0][0].tobytes() == plain[0][0].tobytes() and far[2] == plain[2]

    @settings(max_examples=100, deadline=None)
    @given(climbs(), st.floats(1.0, 4.0))
    def test_a_fine_step_of_half_the_first_or_more_makes_the_probes_of_the_plain_climb(
            self, case, factor):
        K, start, steps, target, max_evals = case

        def run(fine):
            probes = []

            def evaluate(y):
                probes.append(y.tobytes())
                return round(-float(((y - target) ** 2).sum()), 2)
            end, rest, evals, exhausted = upper_solver._compass_climb(
                evaluate, K, (start, evaluate(start)), steps, 1e-3, max_evals, fine)
            return probes, end[0].tobytes(), end[1], rest, evals, exhausted
        assert run([int(s * upper_solver.SHRINK * factor) for s in steps]) == run(None)


@st.composite
def lattice_boxes(draw):
    """A box of 1-2 dimensions whose sides are each non-dyadic, tiny,
    collapsed or about 1e300 wide, a point of it and a target of it."""
    sides = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["plain", "tiny", "collapsed", "wide"]))
        if kind == "plain":
            lower = draw(st.floats(-5.0, 5.0))
            sides.append((lower, lower + draw(st.floats(1e-3, 3.0))))
        elif kind == "tiny":
            lower = draw(st.floats(-1e-300, 1e-300))
            sides.append((lower, lower + draw(st.floats(1e-305, 1e-300))))
        elif kind == "collapsed":
            sides.append((draw(st.floats(-5.0, 5.0)),) * 2)
        else:
            sides.append((-draw(st.floats(1e299, 1e300)), draw(st.floats(1e299, 1e300))))
    K = bp.BoxSet(*zip(*sides))

    def point():
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=K.dim, max_size=K.dim))
        return K.clip(K.lower + (K.upper - K.lower) * np.array(fractions))
    return K, point(), point()


def lattice_probes(K, probes):
    """The lattice index of every probe, each checked to be the point
    min(lower + span * (n * 2**-30), upper) of integer indices n, and each
    index checked to be probed at one set of bytes."""
    seen = {}
    for y in probes:
        n = []
        for v, lo, hi in zip(y.tolist(), K.lower.tolist(), K.upper.tolist()):
            span = hi - lo
            k = round((v - lo) / span * 2 ** 30) if span > 0 else 0
            assert v == min(lo + span * (k * 2.0 ** -30), hi), (v, lo, hi)
            n.append(k)
        assert seen.setdefault(tuple(n), y.tobytes()) == y.tobytes()
    return seen


class TestLattice:
    """Every probe of a cold solve, of a warm solve and of the oracle's
    polish is a point of the box's one integer lattice, on any box."""

    @settings(max_examples=40, deadline=None)
    @given(lattice_boxes(), st.integers(0, 2 ** 31 - 2),
           st.sampled_from([None, 0.0, 1e-3, 0.3]))
    def test_every_probe_is_a_lattice_point(self, case, seed, warm_fraction):
        K, start, target = case
        span = K.upper - K.lower
        scale = np.where(span > 0, span, 1.0)
        probes = []

        def leader(y):
            probes.append(y)
            return -float(np.abs((y - target) / scale).sum())
        # a cold solve: its starts and climbs
        bp.pattern_search_maximize(leader, K, UpperConfig(seed=seed))
        cold = lattice_probes(K, probes)
        assert len(cold) < len(probes)  # a poll probes the point it just left again
        # a warm solve from a point off the lattice: every probe after it,
        # selected once each
        probes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(upper_solver, "select_response", lambda problem, y, *_: SimpleNamespace(
                y=y, leader_value=leader(y), follower_value=0.0, fw_gap=0.0))
            warm_step = None if warm_fraction is None else span * warm_fraction
            sol = bp.solve_penalized(SimpleNamespace(leader_set=K), 0.1, warm_start=start,
                                     warm_step=warm_step)
        assert probes[0].tobytes() == start.tobytes() and len(probes) <= sol.evals
        warm = lattice_probes(K, probes[1:])
        # one index, one set of bytes, in the cold and the warm search alike
        assert all(cold[n] == warm[n] for n in cold.keys() & warm.keys())

    @settings(max_examples=20, deadline=None)
    @given(lattice_boxes())
    def test_the_oracles_polish_probes_the_lattice(self, case):
        K, _, target = case
        span = K.upper - K.lower
        terms = " + ".join(f"1/(1 + ((y[{j}] - ({t!r}))/{s!r})^2)"
                           for j, (t, s) in enumerate(zip(target.tolist(), span.tolist())) if s > 0)
        doc = {"name": "lattice", "dim_y": K.dim, "dim_x": 2, "A": [[1.0, 1.0]], "b": [1.0],
               "K_lower": K.lower.tolist(), "K_upper": K.upper.tolist(),
               "f": f"1 + x[0] + {terms or '0'}", "h": "0"}
        probes, climb = [], upper_solver._compass_climb

        def recorded(evaluate, *rest):
            return climb(lambda y: probes.append(y) or evaluate(y), *rest)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_compass_climb", recorded)
            bp.solve_three_level(bp.problem_from_dict(doc),
                                 y_grid_step=float(span.max()) / 4 or 1.0)
        assert probes or not span.any()  # only a box of one point polls nothing
        lattice_probes(K, probes)
