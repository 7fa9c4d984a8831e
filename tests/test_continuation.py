import csv
import dataclasses
import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import cli, continuation, upper_solver
from bilevelpen.model import QB_DOC, problem_from_dict
from bilevelpen.cli import trace_to_csv, trace_to_json
from bilevelpen.continuation import ContinuationTrace, EpsSchedule, TraceRow
from bilevelpen.upper_solver import UpperConfig


@pytest.fixture(scope="module")
def qb_trace():
    return bp.run_continuation(bp.registry_get("QB"), EpsSchedule(0.1, 0.5, 8))


@pytest.fixture(scope="module")
def fs_trace():
    return bp.run_continuation(bp.registry_get("FS"), EpsSchedule(0.1, 0.5, 8))


class TestEpsSchedule:
    def test_geometric_sequence(self):
        s = EpsSchedule(eps0=0.1, rho=0.5, k_max=4)
        np.testing.assert_allclose(s.epsilons(), [0.1, 0.05, 0.025, 0.0125])

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsSchedule(eps0=0.0)
        with pytest.raises(ValueError):
            EpsSchedule(rho=1.0)
        with pytest.raises(ValueError):
            EpsSchedule(k_max=0)

    @pytest.mark.parametrize("k_max", [True, 2.5, 0, "3", None])
    def test_k_max_is_an_integer_of_at_least_one(self, k_max):
        # True used to give a one-row trace and 2.5 a bare TypeError from range
        with pytest.raises(ValueError, match="^k_max must be an integer of at least 1"):
            EpsSchedule(k_max=k_max)
        assert EpsSchedule(k_max=np.int64(3)).epsilons() == [0.1, 0.05, 0.025]

    @pytest.mark.parametrize("rho", ["0.5", None, True, math.nan, math.inf, 0.0, -0.5])
    def test_rho_is_a_positive_finite_real(self, rho):
        # "0.5" used to raise a bare TypeError from <, where eps0 and k_max named themselves
        with pytest.raises(ValueError, match="^rho must be"):
            EpsSchedule(rho=rho)
        assert EpsSchedule(rho=np.float32(0.5), k_max=2).epsilons() == [0.1, 0.05]

    @pytest.mark.parametrize("eps0, rho, k_max", [(1e-300, 0.1, 30), (0.1, 0.5, 1100)])
    def test_rejects_a_schedule_that_underflows(self, eps0, rho, k_max):
        # these reach 0.0 at rows 24 and 1072; the trace raised only after solving them
        with pytest.raises(ValueError, match="positive and strictly decreasing"):
            EpsSchedule(eps0=eps0, rho=rho, k_max=k_max)

    def test_underflowing_continuation_exits_before_any_solve(self, tmp_path, capsys,
                                                              monkeypatch):
        solves = []
        monkeypatch.setattr(continuation, "solve_penalized",
                            lambda *args, **kwargs: solves.append(args))
        code = cli.main(["continuation", "--problem", "QB", "--eps0", "1e-300", "--rho", "0.1",
                         "--k", "30", "--output", str(tmp_path)])
        assert code == 1 and solves == []
        assert capsys.readouterr().err.startswith("error: schedule epsilons must be positive")

    @pytest.mark.parametrize("eps0", [math.nan, math.inf])
    def test_rejects_non_finite_eps0(self, eps0):
        with pytest.raises(ValueError, match="finite"):
            EpsSchedule(eps0=eps0)


class TestRunContinuation:
    def test_qb_values_match_closed_form(self, qb_trace):
        for row in qb_trace.rows:
            assert row.v == pytest.approx(4.0 / (1 + 4 * row.epsilon), abs=2e-4)
            assert row.converged

    def test_fs_values_constant(self, fs_trace):
        np.testing.assert_allclose(fs_trace.values, 2.0, atol=1e-9)

    def test_qb_optimistic_decreases_from_above(self):
        trace = bp.run_continuation(bp.registry_get("QB"),
                                    EpsSchedule(0.1, 0.5, 8), sign=-1)
        v = trace.values
        assert v[0] == pytest.approx(6.0, abs=1e-4)  # band clamp regime
        assert all(v[k + 1] <= v[k] + 2e-4 for k in range(len(v) - 1))
        assert np.all(v >= 4.0 - 2e-4)
        # interior regime: 4 / (1 - 4 eps) once eps w^2 <= 1/3
        for row in trace.rows[2:]:
            assert row.v == pytest.approx(4.0 / (1 - 4 * row.epsilon), abs=2e-4)

    def test_rows_feasible(self, qb_trace):
        qb = bp.registry_get("QB")
        for row in qb_trace.rows:
            assert qb.leader_set.contains(row.y)
            assert qb.follower_set.contains(row.x, tol=1e-9)

    def test_warm_start_reproducibility(self, qb_trace):
        again = bp.run_continuation(bp.registry_get("QB"), EpsSchedule(0.1, 0.5, 8))
        assert pickle.dumps(again) == pickle.dumps(qb_trace)


class TestValueEquality:
    # the dataclass == compared numpy fields with == and raised ValueError
    def test_equal_runs_compare_equal_and_a_changed_row_does_not(self):
        schedule = EpsSchedule(0.1, 0.5, 3)
        a = bp.run_continuation(bp.registry_get("QB"), schedule)
        b = bp.run_continuation(bp.registry_get("QB"), schedule)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert all(ra == rb for ra, rb in zip(a.rows, b.rows))
        row = b.rows[1]
        for change in ({"x": row.x + 1e-12}, {"y": row.y.reshape(1, 1)}, {"v": row.v + 1e-12},
                       {"x": row.x.astype(np.float32)}):
            changed = dataclasses.replace(b, rows=(b.rows[0], dataclasses.replace(row, **change),
                                                   b.rows[2]))
            assert a != changed and not a == changed and len({a, changed}) == 2, change
        assert a != dataclasses.replace(a, sign=-1) and a != a.rows[0]
        # arrays compare by their bytes: a zero's sign counts
        assert (dataclasses.replace(row, x=np.zeros(4)) != dataclasses.replace(row, x=-np.zeros(4)))

    def test_solutions_and_selections_compare_by_value(self):
        a = bp.solve_penalized(bp.registry_get("QB"), 0.01)
        b = bp.solve_penalized(bp.registry_get("QB"), 0.01)
        assert a == b and a.selection == b.selection and hash(a) == hash(b)
        moved = dataclasses.replace(b.selection, x=b.selection.x[::-1].copy())
        assert a.selection != moved and a != dataclasses.replace(b, selection=moved)
        nan = np.full(1, np.nan)
        assert (dataclasses.replace(a, nonfinite_y=nan)
                == dataclasses.replace(a, nonfinite_y=nan.copy()))


class TestWarmRows:
    def test_later_rows_are_one_short_climb(self, qb):
        trace = bp.run_continuation(qb, EpsSchedule(0.1, 0.5, 12))
        assert trace.rows[0].evals > 64  # the first row runs the multistart
        assert all(row.evals <= 64 for row in trace.rows[1:])

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("name", ["QB", "FS"])
    def test_rows_match_cold_solves(self, name, sign):
        problem, cfg = bp.registry_get(name), UpperConfig(seed=0)
        trace = bp.run_continuation(problem, EpsSchedule(0.1, 0.5, 6), sign=sign, cfg=cfg)
        for row in trace.rows:
            cold = bp.solve_penalized(problem, row.epsilon, sign=sign, cfg=cfg)
            assert abs(row.v - cold.value) <= 1e-12
            assert np.max(np.abs(row.y - cold.y)) <= upper_solver.MIN_STEP


    @pytest.mark.parametrize("sign", [+1, -1])
    def test_a_still_path_costs_the_first_poll_and_the_floor(self, qb, sign):
        # QB's path stands at y = 0.5: every warm row polls WARM_STEP away,
        # then goes on at its warm_step 0 floored at MIN_STEP, whose one poll
        # finds nothing either: 1 + 2 + 2
        trace = bp.run_continuation(qb, EpsSchedule(0.1, 0.5, 12), sign=sign,
                                    cfg=UpperConfig(seed=7))
        assert all(row.y.tolist() == [0.5] and row.converged for row in trace.rows)
        assert [row.evals for row in trace.rows[1:]] == [5] * 11

    def test_a_row_after_an_unconverged_row_reads_the_paths_step(self, qb, monkeypatch):
        # row 1 runs out of its budget of 100 at y = 0.5, where the path
        # stays: every later row gets the step of how far the path moved, 0,
        # converged or not, and makes the first poll and one at the floor
        steps, solve = [], continuation.solve_penalized

        def recorded(*args, warm_step, **kwargs):
            steps.append(warm_step)
            return solve(*args, warm_step=warm_step, **kwargs)
        monkeypatch.setattr(continuation, "solve_penalized", recorded)
        trace = bp.run_continuation(qb, EpsSchedule(0.1, 0.5, 5), cfg=UpperConfig(max_evals=100))
        assert [row.converged for row in trace.rows] == [False, True, True, True, True]
        assert steps[0] is None and [s.tolist() for s in steps[1:]] == [[0.0]] * 4
        assert [row.evals for row in trace.rows] == [100, 5, 5, 5, 5]

    def test_rows_after_a_nonfinite_follower_value_make_the_first_poll_and_the_floor(self):
        # h is NaN at y = 0 only, which row 1's search probes, so row 1 stays
        # unconverged; the path does not move, and rows 2 and 3 made 29
        # evaluations each when they halved from WARM_STEP after it
        problem = problem_from_dict({
            "name": "nan-follower", "dim_y": 1, "dim_x": 2, "A": [[1.0, 1.0]], "b": [1.0],
            "K_lower": [0.0], "K_upper": [1.0], "f": "1 + x[0]", "h": "(y[0]/y[0]) * x[0]"})
        trace = bp.run_continuation(problem, EpsSchedule(0.1, 0.5, 12))
        assert not trace.rows[0].converged
        assert trace.rows[0].nonfinite_y.tolist() == [0.0]
        assert [row.evals for row in trace.rows[1:]] == [5] * 11


@st.composite
def moving_paths(draw):
    """QB's polytope and leader with the follower (x0 + x1 - a - b y)^2, whose
    argmin band x0 + x1 = clip(a + b y, 0, 2) moves with y, so the leader
    points move along the path; a sign and a Sobol seed."""
    a, b = draw(st.floats(-0.5, 2.5)), draw(st.floats(-2.0, 2.0))
    problem = problem_from_dict({
        "name": "moving", "dim_y": 1, "dim_x": 4,
        "A": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], "b": [1.0, 1.0],
        "K_lower": [0.0], "K_upper": [1.0],
        "f": "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])",
        "h": f"(x[0] + x[1] - {a!r} - {b!r}*y[0])^2"})
    return problem, b, draw(st.sampled_from([+1, -1])), draw(st.integers(0, 2 ** 31 - 2))


class TestMovingPaths:
    @settings(max_examples=20, deadline=None)
    @given(moving_paths())
    def test_rows_match_the_plain_warm_climb(self, case):
        problem, b, sign, seed = case
        cfg = UpperConfig(seed=seed)
        trace = bp.run_continuation(problem, EpsSchedule(0.1, 0.5, 12), sign=sign, cfg=cfg)
        # Each row from 2 on against the plain warm climb (WARM_STEP halved
        # down to MIN_STEP) from the same previous y. Both climb one peak of
        # v = w(y)(1 + s) from one point and end where a last poll below
        # 2 * MIN_STEP found nothing better, so each lies within 2 * MIN_STEP
        # of the peak and at most 2 * L * MIN_STEP below it, L bounding |v'|:
        # |w'|(1 + s) <= 12, and w <= 2 times the slope of the selected
        # s = x0 + x1, which follows clip(a + b y, 0, 2) shifted by the
        # penalty, below 2(|b| + 1) for eps <= 0.05.
        lipschitz = 12 + 2 * 2 * (abs(b) + 1)
        plain_evals = 0
        for prev, row in zip(trace.rows, trace.rows[1:]):
            plain = bp.solve_penalized(problem, row.epsilon, sign, cfg, warm_start=prev.y)
            assert row.converged and plain.converged
            assert abs(row.v - plain.value) <= 2 * lipschitz * upper_solver.MIN_STEP
            plain_evals += plain.evals
        assert sum(row.evals for row in trace.rows[1:]) <= plain_evals
        # a pessimistic row starts at or above the row before it and only climbs
        assert sign < 0 or bp.check_monotone(trace).ok


# Two followers (x0 + x1 - a - b y)^2 on QB's polytope and leader, as in
# moving_paths, whose warm rows follow the peak at y = 0.5 while another,
# near y = 0.24, overtakes it as eps shrinks. A warm row climbs only the peak
# it follows, so it finds the other late or never. Strict: a change that
# makes these pass must drop the marker.
OVERTAKEN = {
    "pessimistic": "(x[0] + x[1] - 0.8780076486562112 + 1.7506016834004976*y[0])^2",
    "optimistic": "(x[0] + x[1] + 0.2277408631426343 - 0.32132954394740265*y[0])^2"}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="warm rows never look past the peak they follow")
class TestOvertakenPeak:
    def test_pessimistic_rows_read_at_least_the_cold_solve(self):
        # rows 2-5 read v = 2.0 at y = 0.5, where cold solves read
        # 2.2088, 2.3505, 2.4318 and 2.4755; row 6 jumps to 2.4982
        problem = problem_from_dict({**QB_DOC, "name": "moving", "h": OVERTAKEN["pessimistic"]})
        cfg = UpperConfig(seed=0)
        trace = bp.run_continuation(problem, EpsSchedule(0.1, 0.5, 12), bp.PESSIMISTIC, cfg)
        for row in trace.rows:
            cold = bp.solve_penalized(problem, row.epsilon, bp.PESSIMISTIC, cfg)
            assert row.v >= cold.value - 1e-6, row.epsilon

    def test_optimistic_trace_is_monotone(self):
        # the trace falls to 1.98978 at row 4 and rises to 2.0 at row 5
        problem = problem_from_dict({**QB_DOC, "name": "moving", "h": OVERTAKEN["optimistic"]})
        trace = bp.run_continuation(problem, EpsSchedule(0.1, 0.5, 12), bp.OPTIMISTIC,
                                    UpperConfig(seed=0))
        assert bp.check_monotone(trace).violations == ()


class TestTraceInvariants:
    def test_shuffled_rows_rejected(self, qb_trace):
        rows = list(qb_trace.rows)
        rows[0], rows[2] = rows[2], rows[0]
        with pytest.raises(ValueError, match="decreasing"):
            ContinuationTrace(problem="QB", sign=+1, rows=tuple(rows))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_epsilon_rejected(self, qb_trace, epsilon):
        # a NaN epsilon compared false with its neighbours and was accepted
        rows = list(qb_trace.rows)
        rows[-1] = dataclasses.replace(rows[-1], epsilon=epsilon)
        with pytest.raises(ValueError, match="^trace epsilon must be positive and finite"):
            ContinuationTrace(problem="QB", sign=+1, rows=tuple(rows))


    @pytest.mark.parametrize("sign", [0, 5, True, "x", 1.0, -1.0])
    def test_sign_other_than_the_int_plus_or_minus_one_is_rejected(self, qb_trace, sign):
        # any sign was accepted, and check_monotone read every sign >= 0 as
        # pessimistic: 0 and 5 passed as pessimistic, True as 1, and "x"
        # raised TypeError only when checked
        with pytest.raises(ValueError, match="^sign must be the int"):
            ContinuationTrace(problem="QB", sign=sign, rows=qb_trace.rows)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_plus_and_minus_one_are_accepted(self, qb_trace, sign):
        assert ContinuationTrace(problem="QB", sign=sign, rows=qb_trace.rows).sign == sign

    @pytest.mark.parametrize("field,value", [("sign", 5), ("rows", ()), ("problem", "FS"),
                                             ("seed", 1)])
    def test_fields_are_read_only(self, qb_trace, field, value):
        # a trace was mutable after its checks: sign = 5 on a pessimistic
        # trace read as optimistic in check_monotone, and reversed rows with
        # increasing epsilons passed it
        trace = ContinuationTrace(problem="QB", sign=-1, rows=qb_trace.rows)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, field, value)

    def test_a_list_of_rows_is_copied(self, qb_trace):
        rows = list(qb_trace.rows)
        trace = ContinuationTrace(problem="QB", sign=+1, rows=rows)
        rows.reverse()
        assert trace.rows == qb_trace.rows and isinstance(trace.rows, tuple)


class TestCheckMonotone:
    def test_qb_trace_ok(self, qb_trace):
        report = bp.check_monotone(qb_trace, slack=2e-4)
        assert report.ok
        assert report.violations == ()

    def test_perturbed_trace_flagged(self, qb_trace):
        rows = list(qb_trace.rows)
        bad = rows[3]
        rows[3] = TraceRow(epsilon=bad.epsilon, y=bad.y, x=bad.x,
                           v=bad.v - 0.2, h_value=bad.h_value,
                           fw_gap=bad.fw_gap, evals=bad.evals)
        trace = ContinuationTrace(problem="QB", sign=+1, rows=tuple(rows))
        report = bp.check_monotone(trace, slack=2e-4)
        assert not report.ok
        assert report.violations == (3,)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("k", [0, 3, 7])
    @pytest.mark.parametrize("v", [math.nan, math.inf])
    def test_non_finite_value_flagged(self, qb_trace, sign, k, v):
        # a NaN v compared false with its neighbours, and the report read ok
        rows = [dataclasses.replace(row, v=2.0) for row in qb_trace.rows]
        rows[k] = dataclasses.replace(rows[k], v=v)
        report = bp.check_monotone(ContinuationTrace(problem="QB", sign=sign, rows=tuple(rows)))
        assert not report.ok and k in report.violations

    @pytest.mark.parametrize("slack", [math.nan, -1e-4, math.inf])
    def test_rejects_bad_slack(self, qb_trace, slack):
        with pytest.raises(ValueError, match="slack"):
            bp.check_monotone(qb_trace, slack=slack)

    def test_empty_trace_rejected(self):
        trace = ContinuationTrace(problem="QB", sign=+1, rows=())
        with pytest.raises(ValueError):
            bp.check_monotone(trace)


class TestLimitEstimate:
    def test_qb_limit(self):
        trace = bp.run_continuation(bp.registry_get("QB"), EpsSchedule(0.1, 0.5, 12))
        est = bp.limit_estimate(trace)
        assert abs(est.v_limit - 4.0) <= 1e-3

    def test_fs_limit_exact(self, fs_trace):
        est = bp.limit_estimate(fs_trace)
        assert abs(est.v_limit - 2.0) <= 1e-9
        np.testing.assert_allclose(est.x_limit, [0.0, 1.0], atol=1e-9)

    def test_requires_three_rows(self, qb_trace):
        short = ContinuationTrace(problem="QB", sign=+1, rows=qb_trace.rows[:2])
        with pytest.raises(ValueError):
            bp.limit_estimate(short)


class TestExports:
    def test_csv_header_and_rows(self, qb_trace):
        text = trace_to_csv(qb_trace)
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert header == ["epsilon", "y0", "x0", "x1", "x2", "x3",
                          "v", "h_value", "fw_gap", "evals"]
        rows = list(reader)
        assert len(rows) == len(qb_trace)
        # numeric round trip through repr
        assert float(rows[0][0]) == qb_trace.rows[0].epsilon
        assert float(rows[0][6]) == qb_trace.rows[0].v
        # every cell is a number, and the y/x cells are the JSON report's values
        for row, doc_row in zip(rows, trace_to_json(qb_trace)["rows"]):
            cells = [float(c) for c in row]
            assert cells[1:6] == doc_row["y"] + doc_row["x"]

    def test_json_mirror(self, qb_trace):
        doc = trace_to_json(qb_trace)
        assert doc["schema"] == "trace-v1"
        assert doc["problem"] == "QB"
        assert len(doc["rows"]) == len(qb_trace)
        row = doc["rows"][0]
        assert set(row) == {"epsilon", "y", "x", "v", "h_value", "fw_gap",
                            "evals", "converged"}

    def test_numpy_integer_settings_round_trip_through_json(self):
        # a seed of np.int64(3) was stored as given, and json.dumps raised TypeError
        cfg = UpperConfig(max_evals=np.uint32(20000), seed=np.int64(3))
        trace = bp.run_continuation(bp.registry_get("FS"), EpsSchedule(k_max=2), cfg=cfg)
        doc = json.loads(json.dumps(trace_to_json(trace)))
        assert doc["seed"] == 3 and type(doc["seed"]) is int
        assert doc == trace_to_json(bp.run_continuation(bp.registry_get("FS"), EpsSchedule(k_max=2),
                                                        cfg=UpperConfig(seed=3)))


# trace_to_json text of 12-row QB traces at UpperConfig(seed=7), pinned before
# solve_penalized selected each leader point once and selections kept their set-up;
# the optimistic trace re-pinned when a section convex at y stopped at its first
# certified run: rows 1 and 7 moved x within the argmin face, row 1's h_value by
# one rounding (0.25 to 0.24999999999999978); both re-pinned when a cold solve
# refined only its best climb (row 1's evals 436 to 220); both re-pinned when a
# warm row went on at a step read from how far the path last moved (rows 3-12's
# evals 29 to 11; y never moves on QB); both re-pinned when a cold solve's
# starts were rounded to the mesh of its last coarse poll (row 1's evals 220 to 218);
# both re-pinned when a warm row whose first poll finds nothing went on at its
# step floored at MIN_STEP, and row 2 at a step of 0 (row 2's evals 29 to 5,
# rows 3-12's 11 to 5)
PINNED_TRACES = {
    +1: (
        '{"schema": "trace-v1", "problem": "QB", "sign": 1, "seed": 7, '
        '"rows": [{"epsilon": 0.1, "y": [0.5], "x": [0.2142857142857143, 0.2142857142857143, '
        '0.7857142857142857, 0.7857142857142857], "v": 2.8571428571428577, '
        '"h_value": 0.32653061224489793, "fw_gap": 0.0, "evals": 218, "converged": true},'
        ' {"epsilon": 0.05, "y": [0.5], "x": [0.33333333333333337, 0.33333333333333337, '
        '0.6666666666666666, 0.6666666666666666], "v": 3.333333333333334, '
        '"h_value": 0.11111111111111106, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.025, "y": [0.5], "x": [0.40909090909090906, 0.40909090909090906, '
        '0.5909090909090909, 0.5909090909090909], "v": 3.6363636363636367, '
        '"h_value": 0.03305785123966944, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.0125, "y": [0.5], "x": [0.45238095238095233, 0.45238095238095233, '
        '0.5476190476190477, 0.5476190476190477], "v": 3.8095238095238093, '
        '"h_value": 0.009070294784580518, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.00625, "y": [0.5], "x": [0.475609756097561, 0.475609756097561, '
        '0.524390243902439, 0.524390243902439], "v": 3.902439024390244, '
        '"h_value": 0.0023795359904818496, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.003125, "y": [0.5], "x": [0.4876543209876544, 0.4876543209876544, '
        '0.5123456790123456, 0.5123456790123456], "v": 3.950617283950617, '
        '"h_value": 0.0006096631611034848, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.0015625, "y": [0.5], "x": [0.4937888198757764, 0.4937888198757764, '
        '0.5062111801242236, 0.5062111801242236], "v": 3.975155279503106, '
        '"h_value": 0.0001543150341422019, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.00078125, "y": [0.5], "x": [0.49688473520249216, 0.49688473520249216, '
        '0.5031152647975079, 0.5031152647975079], "v": 3.9875389408099684, '
        '"h_value": 3.8819499034366357e-05, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.000390625, "y": [0.5], "x": [0.49843993759750393, 0.49843993759750393, '
        '0.5015600624024961, 0.5015600624024961], "v": 3.9937597503900157, '
        '"h_value": 9.73517879872718e-06, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.0001953125, "y": [0.5], "x": [0.49921935987509763, '
        '0.49921935987509763, 0.5007806401249024, 0.5007806401249024], '
        '"v": 3.9968774395003903, "h_value": 2.4375960184303223e-06, "fw_gap": 0.0, '
        '"evals": 5, "converged": true},'
        ' {"epsilon": 9.765625e-05, "y": [0.5], "x": [0.4996095275283092, 0.4996095275283092, '
        '0.5003904724716908, 0.5003904724716908], "v": 3.998438110113237, '
        '"h_value": 6.098750045932048e-07, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 4.8828125e-05, "y": [0.5], "x": [0.4998047256395235, 0.4998047256395235, '
        '0.5001952743604765, 0.5001952743604765], "v": 3.999218902558094, '
        '"h_value": 1.5252830343803212e-07, "fw_gap": 0.0, "evals": 5, "converged": true}]}'),
    -1: (
        '{"schema": "trace-v1", "problem": "QB", "sign": -1, "seed": 7, '
        '"rows": [{"epsilon": 0.1, "y": [0.5], "x": [1.0, 1.0, 0.0, 0.0], "v": 6.0, '
        '"h_value": 1.0, "fw_gap": 0.0, "evals": 218, "converged": true},'
        ' {"epsilon": 0.05, "y": [0.5], "x": [0.7499999999999999, 0.7499999999999999, '
        '0.2500000000000001, 0.2500000000000001], "v": 5.0, "h_value": 0.24999999999999978, '
        '"fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.025, "y": [0.5], "x": [0.6111111111111112, 0.6111111111111112, '
        '0.38888888888888884, 0.38888888888888884], "v": 4.444444444444445, '
        '"h_value": 0.04938271604938276, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.0125, "y": [0.5], "x": [0.5526315789473685, 0.5526315789473685, '
        '0.4473684210526315, 0.4473684210526315], "v": 4.210526315789474, '
        '"h_value": 0.011080332409972322, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.00625, "y": [0.5], "x": [0.5256410256410257, 0.5256410256410257, '
        '0.47435897435897434, 0.47435897435897434], "v": 4.102564102564102, '
        '"h_value": 0.0026298487836949416, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.003125, "y": [0.5], "x": [0.5126582278481012, 0.5126582278481012, '
        '0.4873417721518988, 0.4873417721518988], "v": 4.050632911392405, '
        '"h_value": 0.0006409229290177811, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.0015625, "y": [0.5], "x": [0.5062893081761006, 0.5062893081761006, '
        '0.4937106918238994, 0.4937106918238994], "v": 4.0251572327044025, '
        '"h_value": 0.0001582215893358648, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.00078125, "y": [0.5], "x": [0.5031347962382445, 0.5031347962382445, '
        '0.49686520376175547, 0.49686520376175547], "v": 4.012539184952978, '
        '"h_value": 3.9307789821248234e-05, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.000390625, "y": [0.5], "x": [0.501564945226917, 0.501564945226917, '
        '0.49843505477308303, 0.49843505477308303], "v": 4.006259780907667, '
        '"h_value": 9.796214253000821e-06, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 0.0001953125, "y": [0.5], "x": [0.5007818608287724, 0.5007818608287724, '
        '0.4992181391712276, 0.4992181391712276], "v": 4.00312744331509, '
        '"h_value": 2.4452254222747013e-06, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 9.765625e-05, "y": [0.5], "x": [0.5003907776475186, 0.5003907776475186, '
        '0.4996092223524814, 0.4996092223524814], "v": 4.001563110590075, '
        '"h_value": 6.108286792006945e-07, "fw_gap": 0.0, "evals": 5, "converged": true},'
        ' {"epsilon": 4.8828125e-05, "y": [0.5], "x": [0.5001953506544248, 0.5001953506544248, '
        '0.4998046493455752, 0.4998046493455752], "v": 4.000781402617699, '
        '"h_value": 1.5264751273675173e-07, "fw_gap": 0.0, "evals": 5, "converged": true}]}'),
}


@pytest.mark.parametrize("sign", [+1, -1])
def test_trace_text_is_pinned(sign):
    trace = bp.run_continuation(bp.registry_get("QB"), EpsSchedule(), sign=sign,
                                cfg=UpperConfig(seed=7))
    assert json.dumps(trace_to_json(trace)) == PINNED_TRACES[sign]
