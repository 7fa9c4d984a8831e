"""What the benchmark measures: workloads, metrics, bounds and their rationale.

BENCHMARK.json is generated from this module (``python3 bench/run.py
--write-config``), so the two cannot disagree.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 20

# name -> why it exists (one line each, at most 200 characters).
WORKLOADS = {
    "qb-trace": "the paper's main loop: 12-row continuations on QB, both signs; "
                "time goes to selection, Frank-Wolfe, compass search and warm starts",
    "oracle-cli": "the certification path users run: `bilevelpen oracle` on fresh QB/FS "
                  "variants plus a certificate; grid oracle and CLI, no selection or continuation",
    "custom-select": "a user's JSON problem: build, validate and one pessimistic selection "
                     "on block-simplex polytopes; vertex enumeration and Frank-Wolfe stalls",
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("op_s_p50", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, what it should move). Values are per completed op
# unless the unit says per call; a layer a workload does not use reads 0.
PER_LAYER = [
    ("expressions.eval_calls", "count/op", "lower",
     "op_s_p50 on qb-trace and custom-select"),
    ("expressions.grad_calls", "count/op", "lower",
     "op_s_p50 on qb-trace and custom-select"),
    ("expressions.batch_points", "count/op", "lower", "op_s_p50 on oracle-cli"),
    ("expressions.eval_us", "us", "lower", "op_s_p50 on qb-trace and custom-select"),
    ("expressions.grad_us", "us", "lower", "op_s_p50 on qb-trace and custom-select"),
    ("expressions.self_s", "s/op", "lower",
     "op_s_p50 on qb-trace and custom-select; batch part only on oracle-cli"),
    ("model.build_s", "s/op", "lower",
     "op_s_p50 on custom-select and oracle-cli; setup_s on qb-trace"),
    ("model.validate_s", "s/op", "lower", "op_s_p50 on custom-select"),
    ("simplex.solve_calls", "count/op", "lower",
     "op_s_p50 on custom-select and oracle-cli; setup_s on qb-trace"),
    ("simplex.solve_s", "s/op", "lower",
     "op_s_p50 on custom-select and oracle-cli; setup_s on qb-trace"),
    ("lower_solver.enumerate_s", "s/op", "lower", "op_s_p50 on custom-select"),
    ("lower_solver.vertices", "count/op", "lower", "op_s_p50 on custom-select"),
    ("lower_solver.lp_calls", "count/op", "lower", "op_s_p50 on oracle-cli"),
    ("lower_solver.lmo_calls", "count/op", "lower",
     "op_s_p50 and failed_frac on custom-select; op_s_p50 on qb-trace"),
    ("lower_solver.lmo_calls_per_select", "count", "lower",
     "op_s_p50 and failed_frac on custom-select; op_s_p50 on qb-trace"),
    ("lower_solver.self_s", "s/op", "lower", "op_s_p50 on custom-select and qb-trace"),
    ("selection.calls", "count/op", "lower", "op_s_p50 on qb-trace; none on oracle-cli"),
    ("selection.call_us_p50", "us", "lower",
     "op_s_p50 on qb-trace and custom-select; none on oracle-cli"),
    ("selection.self_s", "s/op", "lower",
     "op_s_p50 on qb-trace and custom-select; none on oracle-cli"),
    ("selection.starts", "count/op", "lower", "op_s_p50 on qb-trace and custom-select"),
    ("selection.unreliable_frac", "frac", "lower", "failed_frac on custom-select"),
    ("upper_solver.calls", "count/op", "lower", "op_s_p50 on qb-trace only"),
    ("upper_solver.upper_evals", "count/op", "lower", "op_s_p50 on qb-trace only"),
    ("upper_solver.self_s", "s/op", "lower", "op_s_p50 on qb-trace only"),
    ("continuation.rows", "count/op", "lower", "op_s_p50 on qb-trace only"),
    ("continuation.evals_first_row", "count", "lower", "op_s_p50 on qb-trace only"),
    ("continuation.evals_later_row_mean", "count", "lower", "op_s_p50 on qb-trace only"),
    ("continuation.warm_ratio", "frac", "lower", "op_s_p50 on qb-trace only"),
    ("oracle.three_level_s", "s/op", "lower", "op_s_p50 and peak_rss_mb on oracle-cli"),
    ("oracle.pessimistic_select_calls", "count/op", "lower", "op_s_p50 on oracle-cli"),
    ("oracle.pessimistic_select_us", "us", "lower", "op_s_p50 on oracle-cli"),
    ("oracle.lower_set_first_s", "s", "lower", "op_s_p50 and peak_rss_mb on oracle-cli"),
    ("oracle.grid_points", "count/op", "lower", "op_s_p50 and peak_rss_mb on oracle-cli"),
    ("oracle.self_s", "s/op", "lower", "op_s_p50 on oracle-cli"),
    ("diagnostics.certificate_s", "s/op", "lower", "op_s_p50 on oracle-cli"),
    ("diagnostics.cert_invalid", "count/op", "lower", "none: QB's invalid certificate is documented"),
    ("cli.self_s", "s/op", "lower", "op_s_p50 on oracle-cli"),
    ("failed_frac", "frac", "lower", "the share of ops that failed; read with every metric"),
    ("trace.op_s_p50", "s", "lower", "none: op_s_p50 under tracing, for the tracing overhead"),
]


def config():
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
