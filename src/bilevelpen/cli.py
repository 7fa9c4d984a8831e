"""Command-line front end.

Subcommands: solve | continuation | oracle | rates | list. Exit codes
distinguish misconfiguration from solver difficulty: 0 success, 2 the
run completed but something is flagged (unconverged rows, monotonicity
violations, invalid certificate), 1 configuration or input errors.
"""

import argparse
import json
import os
import sys

import numpy as np

from .continuation import (EpsSchedule, check_monotone, limit_estimate,
                           run_continuation, trace_to_csv, trace_to_json)
from .diagnostics import (build_certificate, certificate_to_json, fit_rate,
                          gaps_to_csv, ratefit_to_json)
from .model import (UnknownProblemError, _csv_table, registry_names, require_finite,
                    resolve_problem)
from .oracle import gap_table, oracle_to_json, solve_three_level
from .upper_solver import UpperConfig, solve_penalized

SOLVE_SCHEMA = "solve-v1"


class CliError(Exception):
    """Configuration error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _sign_code(name):
    return +1 if name == "pessimistic" else -1


def _ensure_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path!r}: {exc.strerror or exc}") from None
    if not os.access(path, os.W_OK):
        raise CliError(f"output directory {path!r} is not writable")
    return path


def _write_text(text, outdir, stem, ext):
    path = os.path.join(outdir, stem + ext)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_report(args, outdir, doc, stem, csv_text, csv_stem=None):
    """Write the JSON report and/or its CSV, as --format asks."""
    if args.format in ("json", "both"):
        _write_text(json.dumps(doc, indent=2) + "\n", outdir, stem, ".json")
    if args.format in ("csv", "both"):
        _write_text(csv_text, outdir, csv_stem or stem, ".csv")


def _check_flags(args, *names):
    """Reject a NaN, infinite or negative flag (a zero grid step too) before
    any solve, naming the flag; the library checks it again under its own name."""
    for name in names:
        require_finite(name, getattr(args, name.replace("-", "_")),
                       positive=name in ("ygrid", "xgrid"))


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


def cmd_solve(args):
    outdir = _ensure_outdir(args.output)
    problem = resolve_problem(args.problem)
    cfg = UpperConfig(seed=args.seed)
    sol = solve_penalized(problem, args.epsilon, sign=_sign_code(args.sign), cfg=cfg)
    report = _solve_report(problem, args.epsilon, _sign_code(args.sign), args.seed, sol)
    _write_report(args, outdir, report, f"{problem.name}_solve", _csv_table(
        [report], ["y", "x", "epsilon", "sign", "seed", "value", "h_value", "fw_gap",
                   "evals", "converged"]))
    print(f"{problem.name}: value {sol.value:.9g} at y {np.asarray(sol.y)} "
          f"(epsilon {args.epsilon:g}, converged {sol.converged})")
    return 0 if sol.converged else 2


def _run_trace(problem, args, sign):
    schedule = EpsSchedule(eps0=args.eps0, rho=args.rho, k_max=args.k)
    cfg = UpperConfig(seed=args.seed)
    return run_continuation(problem, schedule, sign=sign, cfg=cfg)


def cmd_continuation(args):
    outdir = _ensure_outdir(args.output)
    problem = resolve_problem(args.problem)
    if args.limit and args.k < 3:
        raise CliError("need k >= 3 for limit estimate")
    trace = _run_trace(problem, args, _sign_code(args.sign))
    doc = trace_to_json(trace)
    report = check_monotone(trace, slack=args.slack)
    doc["monotone_ok"] = report.ok
    doc["monotone_violations"] = list(report.violations)
    if args.limit:
        est = limit_estimate(trace)
        doc["limit"] = {"y": list(map(float, est.y_limit)),
                        "x": list(map(float, est.x_limit)),
                        "v": est.v_limit}
    _write_report(args, outdir, doc, f"{problem.name}_trace", trace_to_csv(trace))
    for row in trace.rows:
        print(f"epsilon {row.epsilon:.6g}  v {row.v:.9g}  converged {row.converged}")
    if not report.ok:
        print(f"monotonicity violated at rows {list(report.violations)}",
              file=sys.stderr)
        return 2
    if not all(r.converged for r in trace.rows):
        return 2
    return 0


def cmd_oracle(args):
    _check_flags(args, "ygrid", "xgrid", "tol")
    outdir = _ensure_outdir(args.output)
    problem = resolve_problem(args.problem)
    sol = solve_three_level(problem, y_grid_step=args.ygrid, tol=args.tol,
                            x_grid_step=args.xgrid)
    doc = oracle_to_json(sol)
    _write_report(args, outdir, doc, f"{problem.name}_oracle", _csv_table(
        [doc], ["y_best", "x_best", "leader_value", "follower_value", "method", "resolution"]))
    print(f"{problem.name}: leader value {sol.leader_value:.9g} at y "
          f"{np.asarray(sol.y)} (method {sol.method}, resolution {sol.resolution:g})")
    return 0


def cmd_rates(args):
    _check_flags(args, "tau", "cert-tol", "ygrid", "xgrid")
    outdir = _ensure_outdir(args.output)
    problem = resolve_problem(args.problem)
    trace = _run_trace(problem, args, +1)  # pessimistic, as the oracle
    oracle_sol = solve_three_level(problem, y_grid_step=args.ygrid,
                                   x_grid_step=args.xgrid)
    gaps = gap_table(oracle_sol, trace)
    fit = fit_rate(gaps, tau=args.tau)
    cert = build_certificate(problem, oracle_sol, tol=args.cert_tol, seed=args.seed)
    combined = {
        "schema": "rates-v1",
        "problem": problem.name,
        "seed": args.seed,
        "oracle": oracle_to_json(oracle_sol),
        "trace": trace_to_json(trace),
        "gaps": [[e, g] for e, g in gaps],
        "ratefit": ratefit_to_json(fit, problem=problem.name),
        "certificate": certificate_to_json(cert),
    }
    _write_report(args, outdir, combined, f"{problem.name}_rates", gaps_to_csv(gaps),
                  f"{problem.name}_gaps")
    slope = "exact" if fit.classification == "exact_selection" else f"{fit.slope:.4f}"
    excess = cert.min_sum - cert.level_sum
    rel = "=" if abs(excess) <= 2 * cert.tol else ("<" if excess < 0 else ">")
    print(f"{problem.name}: slope {slope}, classification {fit.classification}, "
          f"certificate valid {cert.valid} (min of h + f {cert.min_sum:.6g} {rel} "
          f"level sum {cert.level_sum:.6g})")
    soft = (not cert.valid) or any(not r.converged for r in trace.rows)
    return 2 if soft else 0


def cmd_list(args):
    for name in registry_names():
        print(name)
    return 0


def build_parser():
    parser = _Parser(prog="bilevelpen",
                     description="pessimistic bilevel solver and certification tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True,
                       help="registry name or path to a problem JSON file")
        p.add_argument("--output", default=".")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")

    p = sub.add_parser("solve", help="solve the penalized problem at one epsilon")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sign", choices=("pessimistic", "optimistic"),
                   default="pessimistic")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continuation", help="drive epsilon to zero and record a trace")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--sign", choices=("pessimistic", "optimistic"),
                   default="pessimistic")
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

    p = sub.add_parser("list", help="list registered problems")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # ProblemError and ExpressionError are ValueErrors; str() of a KeyError
    # (UnknownProblemError) quotes its message
    except (CliError, UnknownProblemError, ValueError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


def entry():  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
