"""Command-line front end and the report format.

Subcommands: solve | continuation | oracle | rates | list. main is the one
path from argv to a report: it checks every float flag (finite and
nonnegative; positive for a penalty level or grid step) and --output
(without creating it), loads the problem once, then runs the command.
Every report format lives here: the schemas, the *_to_json builders and
the CSV rule. A report is written whole or not at all, and --output is
created, parents included, only when one is. Exit codes: 0 success, 2 the
run completed but something is flagged (unconverged rows, among them a
solve that probed a non-finite follower value, which stderr names;
monotonicity violations; invalid certificate), 1 configuration or input
errors.
"""

import argparse
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from .continuation import EpsSchedule, check_monotone, limit_estimate, run_continuation
from .diagnostics import build_certificate, fit_rate
from .model import UnknownProblemError, registry_names, require_finite, resolve_problem
from .oracle import gap_table, solve_three_level
from .selection import OPTIMISTIC, PESSIMISTIC
from .upper_solver import UpperConfig, solve_penalized

SOLVE_SCHEMA = "solve-v1"
TRACE_SCHEMA = "trace-v1"
ORACLE_SCHEMA = "oracle-v1"
RATEFIT_SCHEMA = "ratefit-v1"
CERTIFICATE_SCHEMA = "certificate-v2"
RATES_SCHEMA = "rates-v1"
SIGNS = {"pessimistic": PESSIMISTIC, "optimistic": OPTIMISTIC}
POSITIVE_FLAGS = ("epsilon", "eps0", "ygrid", "xgrid")  # the rest may be 0


class CliError(Exception):
    """Configuration error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _check_output(path):
    """Raise CliError unless reports could be written under path: its nearest
    part that exists must be a writable directory. Creates nothing."""
    if not path:
        raise CliError("output directory must not be empty")
    parent = path
    while parent and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    parent = parent or os.curdir  # a relative path starts in the working directory
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise CliError(f"cannot create output directory {path!r}: "
                       f"{parent!r} is not a writable directory")


def _write_report(args, doc, stem, csv_text, csv_stem=None):
    """Write the JSON report and/or its CSV to --output, as --format asks.
    Every target is checked before any file is written, so a target that
    cannot be written creates and changes no file."""
    files = {}
    if args.format in ("json", "both"):
        files[os.path.join(args.output, stem + ".json")] = json.dumps(doc, indent=2) + "\n"
    if args.format in ("csv", "both"):
        files[os.path.join(args.output, (csv_stem or stem) + ".csv")] = csv_text
    for path in files:
        if os.path.isdir(path) or os.path.exists(path) and not os.access(path, os.W_OK):
            code = errno.EISDIR if os.path.isdir(path) else errno.EACCES
            raise CliError(f"cannot write {path!r}: {os.strerror(code)}")
    for path, text in files.items():
        try:
            os.makedirs(args.output, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {path!r}: {exc.strerror or exc}") from None


# -- report format -----------------------------------------------------------

def _csv_table(rows, keys):
    """CSV text of report rows (dicts) over keys: a list value under key k
    fills the columns k0, k1, ..., and every cell is str() of its JSON value."""
    def cells(row):
        for k in keys:
            v = row[k]
            if isinstance(v, list):
                yield from ((f"{k}{i}", c) for i, c in enumerate(v))
            else:
                yield k, v
    table = [dict(cells(row)) for row in rows]
    lines = [list(table[0]) if table else keys] + [map(str, t.values()) for t in table]
    return "".join(",".join(line) + "\n" for line in lines)


def _solve_report(problem, epsilon, sign, seed, sol):
    sel = sol.selection
    return {
        "schema": SOLVE_SCHEMA,
        "problem": problem.name,
        "epsilon": epsilon,
        "sign": sign,
        "seed": seed,
        "y": list(map(float, sol.y)),
        "x": list(map(float, sel.x)),
        "value": sol.value,
        "h_value": sel.follower_value,
        "fw_gap": sel.fw_gap,
        "evals": sol.evals,
        "converged": sol.converged,
    }


def trace_to_json(trace):
    return {
        "schema": TRACE_SCHEMA,
        "problem": trace.problem,
        "sign": trace.sign,
        "seed": trace.seed,
        "rows": [
            {
                "epsilon": r.epsilon,
                "y": list(map(float, r.y)),
                "x": list(map(float, r.x)),
                "v": r.v,
                "h_value": r.h_value,
                "fw_gap": r.fw_gap,
                "evals": r.evals,
                "converged": r.converged,
            }
            for r in trace.rows
        ],
    }


def trace_to_csv(trace):
    """The rows of trace_to_json as CSV, without the converged column."""
    return _csv_table(trace_to_json(trace)["rows"],
                      ["epsilon", "y", "x", "v", "h_value", "fw_gap", "evals"])


def oracle_to_json(oracle):
    return {
        "schema": ORACLE_SCHEMA,
        "problem": oracle.problem,
        "y_best": list(map(float, oracle.y)),
        "x_best": list(map(float, oracle.x)),
        "leader_value": oracle.leader_value,
        "follower_value": oracle.follower_value,
        "method": oracle.method,
        "resolution": oracle.resolution,
    }


def ratefit_to_json(fit, problem):
    return {
        "schema": RATEFIT_SCHEMA,
        "slope": None if math.isinf(fit.slope) else fit.slope,
        "intercept": None if math.isnan(fit.intercept) else fit.intercept,
        "r_squared": fit.r_squared,
        "classification": fit.classification,
        "tau": fit.tau,
        "n_points": fit.n_points,
        "problem": problem,
    }


def certificate_to_json(cert):
    return {
        "schema": CERTIFICATE_SCHEMA,
        "problem": cert.problem,
        "follower_level": cert.follower_level,
        "leader_level": cert.leader_level,
        "level_sum": cert.level_sum,
        "tol": cert.tol,
        "valid": cert.valid,
        "n_samples": cert.n_samples,
        "n_counterexamples": cert.n_counterexamples,
        "min_sum": cert.min_sum,
        "min_sum_x": list(map(float, cert.min_sum_x)),
    }


def gaps_to_csv(gaps):
    return _csv_table([{"epsilon": float(e), "gap": float(g)} for e, g in gaps],
                      ["epsilon", "gap"])


def cmd_solve(problem, args):
    sign = SIGNS[args.sign]
    sol = solve_penalized(problem, args.epsilon, sign=sign, cfg=UpperConfig(seed=args.seed))
    report = _solve_report(problem, args.epsilon, sign, args.seed, sol)
    _write_report(args, report, f"{problem.name}_solve", _csv_table(
        [report], ["y", "x", "epsilon", "sign", "seed", "value", "h_value", "fw_gap",
                   "evals", "converged"]))
    print(f"{problem.name}: value {sol.value:.9g} at y {np.asarray(sol.y)} "
          f"(epsilon {args.epsilon:g}, converged {sol.converged})")
    _report_nonfinite(f"epsilon {args.epsilon:g}", sol.nonfinite_y)
    return 0 if sol.converged else 2


def _report_nonfinite(where, y):
    """One stderr line naming y, the first leader point a solve probed where
    the follower value is not finite; nothing if y is None."""
    if y is not None:
        print(f"{where}: follower objective is not finite at the probed leader point "
              f"y = {list(map(float, y))}", file=sys.stderr)


def _run_trace(problem, args, sign):
    schedule = EpsSchedule(eps0=args.eps0, rho=args.rho, k_max=args.k)
    cfg = UpperConfig(seed=args.seed)
    return run_continuation(problem, schedule, sign=sign, cfg=cfg)


def cmd_continuation(problem, args):
    if args.limit and args.k < 3:
        raise CliError("need k >= 3 for limit estimate")
    trace = _run_trace(problem, args, SIGNS[args.sign])
    doc = trace_to_json(trace)
    report = check_monotone(trace, slack=args.slack)
    doc["monotone_ok"] = report.ok
    doc["monotone_violations"] = list(report.violations)
    if args.limit:
        est = limit_estimate(trace)
        doc["limit"] = {"y": list(map(float, est.y_limit)),
                        "x": list(map(float, est.x_limit)),
                        "v": est.v_limit}
    _write_report(args, doc, f"{problem.name}_trace", trace_to_csv(trace))
    for row in trace.rows:
        print(f"epsilon {row.epsilon:.6g}  v {row.v:.9g}  converged {row.converged}")
        _report_nonfinite(f"epsilon {row.epsilon:.6g}", row.nonfinite_y)
    if not report.ok:
        print(f"monotonicity violated at rows {list(report.violations)}",
              file=sys.stderr)
        return 2
    if not all(r.converged for r in trace.rows):
        return 2
    return 0


def cmd_oracle(problem, args):
    sol = solve_three_level(problem, y_grid_step=args.ygrid, tol=args.tol,
                            x_grid_step=args.xgrid)
    doc = oracle_to_json(sol)
    _write_report(args, doc, f"{problem.name}_oracle", _csv_table(
        [doc], ["y_best", "x_best", "leader_value", "follower_value", "method", "resolution"]))
    print(f"{problem.name}: leader value {sol.leader_value:.9g} at y "
          f"{np.asarray(sol.y)} (method {sol.method}, resolution {sol.resolution:g})")
    return 0


def cmd_rates(problem, args):
    trace = _run_trace(problem, args, PESSIMISTIC)  # as the oracle
    oracle_sol = solve_three_level(problem, y_grid_step=args.ygrid,
                                   x_grid_step=args.xgrid)
    gaps = gap_table(oracle_sol, trace)
    fit = fit_rate(gaps, tau=args.tau)
    cert = build_certificate(problem, oracle_sol, tol=args.cert_tol, seed=args.seed)
    combined = {
        "schema": RATES_SCHEMA,
        "problem": problem.name,
        "seed": args.seed,
        "oracle": oracle_to_json(oracle_sol),
        "trace": trace_to_json(trace),
        "gaps": [[e, g] for e, g in gaps],
        "ratefit": ratefit_to_json(fit, problem.name),
        "certificate": certificate_to_json(cert),
    }
    _write_report(args, combined, f"{problem.name}_rates", gaps_to_csv(gaps),
                  f"{problem.name}_gaps")
    slope = "exact" if fit.classification == "exact_selection" else f"{fit.slope:.4f}"
    excess = cert.min_sum - cert.level_sum
    rel = "=" if abs(excess) <= 2 * cert.tol else ("<" if excess < 0 else ">")
    print(f"{problem.name}: slope {slope}, classification {fit.classification}, "
          f"certificate valid {cert.valid} (min of h + f {cert.min_sum:.6g} {rel} "
          f"level sum {cert.level_sum:.6g})")
    soft = (not cert.valid) or any(not r.converged for r in trace.rows)
    return 2 if soft else 0


def cmd_list():
    for name in registry_names():
        print(name)
    return 0


@functools.cache  # built once per process, however often main runs
def build_parser():
    parser = _Parser(prog="bilevelpen",
                     description="pessimistic bilevel solver and certification tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True,
                       help="built-in problem name or path to a problem JSON file")
        p.add_argument("--output", default=".")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")

    p = sub.add_parser("solve", help="solve the penalized problem at one epsilon")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sign", choices=SIGNS, default="pessimistic")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continuation", help="drive epsilon to zero and record a trace")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--sign", choices=SIGNS, default="pessimistic")
    p.add_argument("--slack", type=float, default=2e-4)
    p.add_argument("--limit", action="store_true",
                   help="extrapolate the limit value from the trace tail")
    p.set_defaults(func=cmd_continuation)

    p = sub.add_parser("oracle", help="brute-force the three-level optimum")
    add_common(p)
    p.add_argument("--ygrid", type=float, default=1e-3)
    p.add_argument("--xgrid", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rates", help="pessimistic continuation + oracle + rate fit + certificate")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.4641588833612779)  # 0.1 ** (1/3)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ygrid", type=float, default=1e-3)
    p.add_argument("--xgrid", type=float, default=1e-3)
    p.add_argument("--tau", type=float, default=0.15)
    p.add_argument("--cert-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_rates)

    sub.add_parser("list", help="list the built-in problems")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list":
            return cmd_list()
        for name, value in vars(args).items():
            if isinstance(value, float):  # a float flag, named as the user typed it
                require_finite(name.replace("_", "-"), value, positive=name in POSITIVE_FLAGS)
        _check_output(args.output)
        return args.func(resolve_problem(args.problem), args)
    # ProblemError and ExpressionError are ValueErrors; str() of a KeyError
    # (UnknownProblemError) quotes its message
    except (CliError, UnknownProblemError, ValueError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


def entry():  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
