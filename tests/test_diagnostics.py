import math

import numpy as np
import pytest

import bilevelpen as bp
from bilevelpen import diagnostics
from bilevelpen.cli import certificate_to_json, gaps_to_csv, ratefit_to_json
from bilevelpen.diagnostics import (EXACT_SELECTION, INCONCLUSIVE, LINEAR_RATE,
                                    SQRT_RATE)
from bilevelpen.model import Polytope, field_from_expression


@pytest.fixture(scope="module")
def fs_oracle(fs):
    return bp.solve_three_level(fs)


@pytest.fixture(scope="module")
def qb_oracle(qb):
    return bp.solve_three_level(qb)


class TestCertificate:
    def test_fs_valid_with_no_counterexamples(self, fs, fs_oracle):
        cert = bp.build_certificate(fs, fs_oracle, tol=1e-6)
        assert cert.valid
        assert cert.n_counterexamples == 0
        assert cert.level_sum == pytest.approx(2.0, abs=1e-3)

    def test_fs_membership_only_at_low_end(self, fs, fs_oracle):
        cert = bp.build_certificate(fs, fs_oracle, tol=1e-6)
        assert cert.membership(np.array([0.0, 1.0]))
        assert not cert.membership(np.array([1.0, 0.0]))
        assert not cert.membership(np.array([0.5, 0.5]))
        assert not cert.membership(np.array([2.0, -1.0]))  # outside C

    def test_qb_sum_description_strictly_larger(self, qb, qb_oracle):
        # On this instance the sum-sublevel description is a strict superset
        # of the equality description: any point with z1 + z2 < 1 satisfies
        # h + f <= level_sum while violating h <= follower_level. The
        # certificate detects this and flags itself invalid.
        cert = bp.build_certificate(qb, qb_oracle, tol=1e-6)
        assert not cert.valid
        assert cert.n_counterexamples > 0
        x, h, f, in_bounds, in_sum, in_eq = cert.counterexamples[0]
        assert in_sum and not in_bounds and not in_eq
        # each x owns its data: a view would keep the whole 1000-point sample
        assert all(cx.base is None for cx, *_ in cert.counterexamples)
        # direct witness: the origin corner of the band problem
        corner = np.array([0.0, 0.0, 1.0, 1.0])
        assert cert.membership(corner)  # h + f = 3 <= 4
        hval = qb.follower_objective.evaluate(qb_oracle.y, corner)
        assert hval > cert.follower_level + cert.tol

    def test_membership_holds_at_oracle_point(self, qb, fs, qb_oracle, fs_oracle):
        for problem, oracle in ((qb, qb_oracle), (fs, fs_oracle)):
            cert = bp.build_certificate(problem, oracle, tol=1e-6)
            assert cert.membership(oracle.x)
            assert cert.level_sum == cert.follower_level + cert.leader_level

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_bad_tol_rejected(self, fs, fs_oracle, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            bp.build_certificate(fs, fs_oracle, tol=tol)

    def test_problem_mismatch(self, fs, qb_oracle):
        with pytest.raises(ValueError):
            bp.build_certificate(fs, qb_oracle)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_seed_that_is_not_an_integer_in_range_is_rejected(self, fs, fs_oracle, monkeypatch,
                                                              seed):
        # seed=True ran as seed 1 and seed=2.5 failed inside numpy; now the
        # seed is checked before any sample is drawn
        monkeypatch.setattr(diagnostics, "_feasible_points", lambda *args: pytest.fail("drawn"))
        with pytest.raises(ValueError, match="^seed must be an integer of at least 0"):
            bp.build_certificate(fs, fs_oracle, seed=seed)

    def test_numpy_integer_seed_is_the_int_seed(self, qb, qb_oracle):
        ours = bp.build_certificate(qb, qb_oracle, seed=np.int64(3))
        ref = bp.build_certificate(qb, qb_oracle, seed=3)
        assert ours.n_counterexamples == ref.n_counterexamples > 0
        for a, b in zip(ours.counterexamples, ref.counterexamples):
            assert a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:]


class TestStrongSlope:
    def test_linear_field_exact(self, fs):
        field = field_from_expression("2*x[0] + x[1]", dim_y=1, dim_x=2)
        est = bp.strong_slope_lower_bound(field, [0.0], fs.follower_set)
        assert est.validity == "exact_linear"
        assert est.slope_lower == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert est.hoffman_constant * est.slope_lower == pytest.approx(1.0)

    def test_zero_field_unavailable(self, fs):
        est = bp.strong_slope_lower_bound(fs.follower_objective, [0.3],
                                          fs.follower_set)
        assert est.validity == "unavailable"
        assert est.slope_lower == 0.0
        assert math.isinf(est.hoffman_constant)

    def test_qb_quadratic_vanishing_gradient(self, qb):
        # the gradient vanishes on the optimal band, so no positive lower
        # bound exists and the linear-rate certificate is unavailable
        est = bp.strong_slope_lower_bound(qb.follower_objective, [0.5],
                                          qb.follower_set)
        assert est.validity == "unavailable"
        assert est.slope_lower < 1e-4

    def test_one_point_polytope_unavailable(self):
        # the null space of A is empty, so no probe leaves the one minimizer
        field = field_from_expression("(x[0] - 0.3)^2 + (x[1] - 0.7)^2", dim_y=1, dim_x=2)
        est = bp.strong_slope_lower_bound(field, [0.0], Polytope(np.eye(2), [0.3, 0.7]))
        assert (est.slope_lower, est.validity) == (0.0, "unavailable")

    def test_every_candidate_minimal_unavailable(self, fs):
        # h vanishes on all of FS's segment, so every candidate is dropped
        field = field_from_expression("(x[0] + x[1] - 1)^2", dim_y=1, dim_x=2)
        est = bp.strong_slope_lower_bound(field, [0.0], fs.follower_set)
        assert (est.slope_lower, est.validity) == (0.0, "unavailable")

    def test_kinked_field_keeps_positive_slope(self, qb):
        # |linear| has constant gradient norm away from its kink
        field = bp.ScalarField(
            dim_y=1, dim_x=4,
            evaluate=lambda y, x: abs(x[0] - 0.3),
            gradient_x=lambda y, x: np.array([np.sign(x[0] - 0.3), 0.0, 0.0, 0.0]),
            structure="general", convex_in_x=True,
            evaluate_batch=lambda y, X: np.abs(X[:, 0] - 0.3),
        )
        est = bp.strong_slope_lower_bound(field, [0.0], qb.follower_set)
        assert est.validity == "sampled"
        assert est.slope_lower == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("y", [[0.5, 0.9], []])
    def test_leader_point_of_the_wrong_length_rejected(self, qb, y):
        # QB's leader reads only y[0]: [0.5, 0.9] once gave the slope at y = 0.5
        # and [] a bare IndexError
        with pytest.raises(ValueError, match=r"dim_y"):
            bp.strong_slope_lower_bound(qb.leader_objective, y, qb.follower_set)

    def test_linear_slope_independent_of_polytope(self):
        field = field_from_expression("2*x[0] + x[1]", dim_y=1, dim_x=2)
        small = Polytope(A=[[1.0, 1.0]], b=[1.0])
        big = Polytope(A=[[1.0, 1.0]], b=[10.0])
        a = bp.strong_slope_lower_bound(field, [0.0], small)
        b = bp.strong_slope_lower_bound(field, [0.0], big)
        assert a.slope_lower == b.slope_lower


class TestFitRate:
    def synthetic(self, s, c=3.0, n=12):
        eps = 0.1 * (0.5 ** np.arange(n))
        return [(e, c * e ** s) for e in eps]

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_recovers_power_law_exponent(self, s):
        fit = bp.fit_rate(self.synthetic(s))
        assert fit.slope == pytest.approx(s, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_classification_tiers(self):
        assert bp.fit_rate(self.synthetic(1.0)).classification == LINEAR_RATE
        assert bp.fit_rate(self.synthetic(0.5)).classification == SQRT_RATE
        assert bp.fit_rate(self.synthetic(0.9)).classification == LINEAR_RATE
        assert bp.fit_rate(self.synthetic(0.2)).classification == INCONCLUSIVE

    def test_exact_selection_when_gaps_vanish(self):
        eps = 0.1 * (0.5 ** np.arange(8))
        fit = bp.fit_rate([(e, 0.0) for e in eps])
        assert fit.classification == EXACT_SELECTION
        assert fit.n_points == 0

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            bp.fit_rate([(0.1, 0.1), (0.01, 0.01), (0.001, 0.001)])

    def test_needs_two_decades(self):
        with pytest.raises(ValueError):
            bp.fit_rate([(0.1, 0.1), (0.08, 0.08), (0.05, 0.05), (0.04, 0.04)])

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -0.1])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            bp.fit_rate(self.synthetic(1.0), tau=tau)

    def test_nan_gaps_rejected(self):
        # all-NaN gaps once classified as exact_selection
        eps = 0.1 * (0.5 ** np.arange(8))
        with pytest.raises(ValueError, match=r"gap of pair 0 \(0.1, nan\) must be finite"):
            bp.fit_rate([(e, math.nan) for e in eps])

    def test_nan_epsilon_rejected(self):
        # a NaN epsilon once ended in LinAlgError: SVD did not converge
        gaps = self.synthetic(1.0)
        gaps[3] = (math.nan, gaps[3][1])
        with pytest.raises(ValueError, match=r"epsilon of pair 3 \(nan, .*\) must be "
                                             "positive and finite"):
            bp.fit_rate(gaps)

    def test_infinite_gap_rejected(self):
        # an infinite gap once returned inconclusive with slope NaN
        gaps = self.synthetic(1.0)
        gaps[5] = (gaps[5][0], math.inf)
        with pytest.raises(ValueError, match=r"gap of pair 5 \(.*, inf\) must be finite"):
            bp.fit_rate(gaps)

    def test_negative_gaps_count_as_zero(self):
        eps = 0.1 * (0.5 ** np.arange(8))
        assert bp.fit_rate([(e, -1e-3) for e in eps]).classification == EXACT_SELECTION
        gaps = self.synthetic(1.0) + [(1e-6, -0.5)]
        assert bp.fit_rate(gaps).n_points == len(gaps) - 1

    def test_tau_controls_thresholds(self):
        fit = bp.fit_rate(self.synthetic(0.8), tau=0.05)
        assert fit.classification == SQRT_RATE
        fit = bp.fit_rate(self.synthetic(0.8), tau=0.25)
        assert fit.classification == LINEAR_RATE


class TestReports:
    def test_ratefit_json(self):
        fit = bp.fit_rate([(0.1 * 0.5 ** k, 2 * (0.1 * 0.5 ** k)) for k in range(8)])
        doc = ratefit_to_json(fit, problem="QB")
        assert doc["schema"] == "ratefit-v1"
        assert doc["classification"] == LINEAR_RATE
        assert doc["problem"] == "QB"

    def test_certificate_json(self, fs, fs_oracle):
        cert = bp.build_certificate(fs, fs_oracle)
        doc = certificate_to_json(cert)
        assert doc["schema"] == "certificate-v2"
        assert doc["valid"] is True
        assert doc["n_counterexamples"] == 0
        assert doc["min_sum"] == pytest.approx(doc["level_sum"], abs=1e-9)
        np.testing.assert_allclose(doc["min_sum_x"], fs_oracle.x, atol=1e-9)

    def test_gaps_csv(self):
        text = gaps_to_csv([(0.1, 1.0), (0.05, 0.5)])
        lines = text.strip().splitlines()
        assert lines[0] == "epsilon,gap"
        assert len(lines) == 3
