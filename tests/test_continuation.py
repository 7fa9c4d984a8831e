import csv
import io
import math
import pickle

import numpy as np
import pytest

import bilevelpen as bp
from bilevelpen import upper_solver
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


class TestTraceInvariants:
    def test_shuffled_rows_rejected(self, qb_trace):
        rows = list(qb_trace.rows)
        rows[0], rows[2] = rows[2], rows[0]
        with pytest.raises(ValueError, match="decreasing"):
            ContinuationTrace(problem="QB", sign=+1, rows=tuple(rows))


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
        text = bp.trace_to_csv(qb_trace)
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
        for row, doc_row in zip(rows, bp.trace_to_json(qb_trace)["rows"]):
            cells = [float(c) for c in row]
            assert cells[1:6] == doc_row["y"] + doc_row["x"]

    def test_json_mirror(self, qb_trace):
        doc = bp.trace_to_json(qb_trace)
        assert doc["schema"] == "trace-v1"
        assert doc["problem"] == "QB"
        assert len(doc["rows"]) == len(qb_trace)
        row = doc["rows"][0]
        assert set(row) == {"epsilon", "y", "x", "v", "h_value", "fw_gap",
                            "evals", "converged"}
