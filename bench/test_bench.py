"""Tests of the benchmark itself: seeded inputs, generated documents, checkers.

Run with ``python3 -m pytest bench -q`` from the root of the repository.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from bilevelpen import model, selection  # noqa: E402


def _points_of_c(op, rng, count):
    """Random points of C: each block's coordinates rescaled to sum to b_B."""
    X = rng.uniform(0.0, 1.0, size=(count, op.A.shape[1]))
    return X * ((op.b / (X @ op.A.T)) @ op.A)


def _fingerprint(workload):
    out = []
    for op in workload.ops:
        if isinstance(op, w.GeneratedSelection):
            out.append((json.dumps(op.doc), op.y, op.epsilon))
        elif isinstance(op, w.OracleOp):
            out.append((json.dumps(op.doc), op.expected))
        else:
            out.append(op)
    return out


@pytest.mark.parametrize("cls", list(w.WORKLOADS.values()))
def test_inputs_depend_only_on_the_seed(cls, tmp_path):
    first = _fingerprint(cls(7, str(tmp_path)))
    assert first == _fingerprint(cls(7, str(tmp_path)))
    assert first != _fingerprint(cls(8, str(tmp_path)))


@pytest.mark.parametrize("seed", range(3))
def test_custom_documents_validate_and_match_their_numpy_copies(seed):
    rng = np.random.default_rng(seed)
    for op in w.CustomSelect(seed, None).ops:
        problem = model.problem_from_dict(op.doc)
        assert model.validate_problem(problem).all_passed, op.doc["name"]
        pen = selection.penalized_field(problem, op.epsilon)
        for x in _points_of_c(op, rng, 5):
            assert problem.follower_set.contains(x)
            assert abs(pen.evaluate([op.y], x) - op.penalized(x)) <= 1e-12 * (1 + op.penalized(x))
            assert np.allclose(pen.gradient_x([op.y], x), op.penalized_grad(x), atol=1e-12)


def test_trace_checker_rejects_a_value_off_by_1e_3():
    eps = [0.1 * 0.5 ** k for k in range(12)]
    for sign in (1, -1):
        good = [w.qb_limit(e, sign) for e in eps]
        assert not w.check_trace(sign, eps, good, [True] * 12, True).failed
        bad = list(good)
        bad[5] += 1e-3
        assert w.check_trace(sign, eps, bad, [True] * 12, True).wrong
        assert w.check_trace(sign, eps, good, [True] * 12, False).wrong
        unconverged = w.check_trace(sign, eps, good, [True] * 11 + [False], True)
        assert unconverged.failed and not unconverged.wrong


def test_oracle_checker_rejects_wrong_value_and_exit_code():
    assert not w.check_oracle(0, 3.462, 3.462).failed
    assert w.check_oracle(0, 3.462 + 1e-3, 3.462).wrong
    for code in (1, 2):
        verdict = w.check_oracle(code, None, 3.462)
        assert verdict.failed and not verdict.wrong


def test_selection_checker_rejects_perturbed_answers():
    op = w.CustomSelect(0, None).ops[0]
    x = op.A.T @ (op.b / op.A.sum(axis=1))       # block barycentre, a point of C
    value = op.penalized(x)
    assert not w.check_selection(op, x, value, value, reliable=True).failed
    assert w.check_selection(op, x, value + 1e-3, value, reliable=True).wrong
    assert w.check_selection(op, x, value, value - 1e-3, reliable=True).wrong
    outside = x.copy()
    outside[0] += 1e-3
    assert w.check_selection(op, outside, op.penalized(outside), value, reliable=False).wrong
    unreliable = w.check_selection(op, x, value, value, reliable=False)
    assert unreliable.failed and not unreliable.wrong


def test_selection_reference_is_the_minimum_over_C():
    op = w.CustomSelect(0, None).ops[0]
    ref = op.reference()
    for x in _points_of_c(op, np.random.default_rng(0), 200):
        assert ref <= op.penalized(x) + 1e-12


def test_tracer_counts_and_restores_every_wrapped_name():
    from bilevelpen import cli, continuation, lower_solver, oracle, upper_solver
    modules = (model, selection, lower_solver, upper_solver, continuation, oracle, cli)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problem = model.registry_get("FS")
        result = selection.select_response(problem, [0.5], 0.01)
    finally:
        tracer.uninstall()
    assert {(m.__name__, k): v for m in modules for k, v in vars(m).items()} == before
    metrics = tracing.layer_metrics(tracer, ops=1)
    assert set(metrics) == {n for n, *_ in spec.PER_LAYER} - {"failed_frac", "trace.op_s_p50"}
    assert metrics["selection.calls"] == 1
    assert metrics["selection.starts"] == result.n_starts
    assert metrics["expressions.eval_calls"] > 0 and metrics["lower_solver.lmo_calls"] > 0
    assert metrics["model.build_s"] > 0 and metrics["simplex.solve_calls"] > 0


def test_op_seconds_drop_the_kernel_and_rescale_to_the_reference():
    sampler = hostspeed.Sampler()
    sampler.samples = [0.003, 0.002, 0.002]     # one before the op, two during it
    kernel_s = 0.004
    mean = (0.003 + 0.002 + 0.002) / 3
    expected = (1.0 - kernel_s) * hostspeed.REFERENCE_S / mean
    assert sampler.op_seconds(1.0, mark=1) == pytest.approx(expected, rel=1e-12)


def test_sampler_samples_while_armed_and_not_after():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        for _ in range(2000):       # at most about 2 s of CPU
            if sampler.mark() >= mark + 3:
                break
            hostspeed.kernel()
    finally:
        sampler.stop()
    count = sampler.mark()
    assert count >= mark + 3
    for _ in range(200):
        hostspeed.kernel()
    assert sampler.mark() == count and all(s > 0 for s in sampler.samples)


def test_benchmark_json_is_generated_from_spec():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert config == spec.config()
    assert all(len(x["why"]) <= 200 for x in config["workloads"])
    assert any(m["name"] == "setup_s" for m in config["end_to_end"])
