"""Run the bilevelpen benchmark from the root of a checkout.

One run of one workload (the last line of stdout is the JSON result):

    python3 bench/run.py --workload qb-trace --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 installs the tracer and
reports the per-layer metrics instead, writing its spans under .bench_runs/.

Every workload, untraced then traced, each in its own process; prints every
metric with its unit and sample count, and the tracing overhead:

    python3 bench/run.py [--seed 1] [--seconds 25] [--baseline bench/baseline.json]

Write BENCHMARK.json from spec.py:

    python3 bench/run.py --write-config

Op times and ops_per_s are CPU seconds rescaled to a reference host speed
(see hostspeed.py), and setup_s is CPU seconds, not wall seconds: on a shared
virtual machine the wall clock also counts the time the host gives the vCPU
to other guests, and both clocks count the stretches in which the host runs
the vCPU slower. BLAS runs one thread, so CPU seconds are the seconds a
single-threaded run takes. The timed loop still stops on the wall clock.

The library is imported from src/ of the checkout and nowhere else; without
it the run fails before printing a result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

# Before numpy is first imported: one BLAS thread, or CPU seconds would count
# a second thread's share (and its spin-waits) too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
HARD_CAP_S = 120     # stop mid-pass past this, so a run ends well within 180 s
SETUP_PROBES = 2     # extra processes that repeat the set-up, for a median of 3

sys.path.insert(0, str(BENCH))
import spec  # noqa: E402  (stdlib only)


def import_library():
    package = SRC / "bilevelpen"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no bilevelpen sources at {package}")
    sys.path.insert(0, str(SRC))
    import bilevelpen
    if Path(bilevelpen.__file__).resolve().parent != package:
        sys.exit(f"error: bilevelpen imported from {bilevelpen.__file__}, not {package}")


def set_up(args, workdir):
    """Import the library and generate the inputs; returns (workload, seconds, tracer)."""
    t0 = thread_time()
    import_library()
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    return workload, thread_time() - t0, tracer


def probe_setup(args):
    """Repeat the set-up in fresh processes; each prints its own seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def timed_loop(workload, seconds, tracer):
    """Whole passes over the op list until `seconds` of wall time have elapsed.

    Returns each op's seconds at the reference speed, the results, the
    sampler and the loop's wall seconds.
    """
    import hostspeed
    ops = workload.ops
    times, results = [], []
    sampler = hostspeed.Sampler()
    start = perf_counter()
    sampler.start()
    try:
        while True:
            op = ops[len(times) % len(ops)]
            if tracer is not None:
                tracer.new_op()
            mark = sampler.mark()
            t0 = thread_time()
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed op; the run goes on
                traceback.print_exc(file=sys.stderr)
                result = exc
            times.append(sampler.op_seconds(thread_time() - t0, mark))
            results.append(result)
            elapsed = perf_counter() - start
            if (len(times) % len(ops) == 0 and elapsed >= seconds) or elapsed >= HARD_CAP_S:
                return times, results, sampler, elapsed
    finally:
        sampler.stop()


def check_all(workload, times, results):
    """Check every op; print each distinct op's times and what failed."""
    failed, correct = 0, True
    for k, op in enumerate(workload.ops):
        runs = range(k, len(results), len(workload.ops))
        notes = set()
        for i in runs:
            if isinstance(results[i], Exception):
                failed += 1
                notes.add(f"raised {results[i]!r}")
                continue
            verdict = workload.check(op, results[i])
            failed += verdict.failed
            correct = correct and not verdict.wrong
            if verdict.failed:
                notes.add(("WRONG: " if verdict.wrong else "failed: ")
                          + ("; ".join(verdict.problems) or "not certified by the library"))
        if runs:
            print(f"  {op.label}: " + " ".join(f"{times[i]:.3f}" for i in runs) + " s"
                  + "".join(f"; {note}" for note in sorted(notes)))
    return failed, correct


def run_one(args):
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload, own_setup_s, tracer = set_up(args, workdir)
        if args.setup_probe:
            print(repr(own_setup_s))
            return 0
        times, results, sampler, elapsed = timed_loop(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        failed, correct = check_all(workload, times, results)
        attempted = len(times)
        kernel_ms = 1e3 * statistics.median(sampler.samples)
        print(f"{args.workload}: {attempted} ops ({len(workload.ops)} per pass) in "
              f"{elapsed:.2f} s wall, {sum(times):.2f} s at the reference speed, "
              f"{failed} failed; host kernel {kernel_ms:.3f} ms median over "
              f"{len(sampler.samples)} samples")
        if tracer is None:
            setup = [own_setup_s] + probe_setup(args)
            metrics = {"op_s_p50": statistics.median(times),
                       "ops_per_s": attempted / sum(times),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": peak_rss_mb}
        else:
            import tracing
            metrics = tracing.layer_metrics(tracer, attempted)
            metrics["failed_frac"] = failed / attempted
            metrics["trace.op_s_p50"] = statistics.median(times)
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans)
            print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment(seed):
    import numpy
    import scipy
    import_library()
    import workloads
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "ops_per_pass": {name: len(cls(seed, str(RUNS)).ops)
                         for name, cls in workloads.WORKLOADS.items()},
    }


def run_all(args):
    """Each workload untraced, then traced, in child processes; print everything."""
    moves = {n: m for n, _, _, m in spec.PER_LAYER}
    results = {}
    for name in spec.WORKLOADS:
        runs, logs = {}, {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"error: {name} --trace {trace} exited with {proc.returncode}")
            *logs[trace], last = proc.stdout.rstrip().splitlines()
            runs[trace] = json.loads(last)
        untraced, traced = runs[0], runs[1]
        overhead = (traced["metrics"]["trace.op_s_p50"]["value"]
                    / untraced["metrics"]["op_s_p50"]["value"] - 1.0)
        print(f"\n== {name}: {untraced['attempted']} ops untraced, "
              f"{traced['attempted']} traced; failed {untraced['failed']}"
              f"/{untraced['attempted']}; correct {untraced['correct'] and traced['correct']}")
        for label, run in (("end-to-end", untraced), ("per-layer", traced)):
            for metric, m in run["metrics"].items():
                note = f"  [{moves[metric]}]" if metric in moves else ""
                print(f"  {label:10} {metric:36} {m['value']:14.6g} {m['unit']:9}"
                      f" n={run['attempted']}{note}")
        print(f"  tracing overhead on op_s_p50: {100 * overhead:+.1f}%")
        results[name] = {"untraced": untraced, "traced": traced,
                         "tracing_overhead": overhead, "log": logs[0]}
    if args.baseline:
        doc = {"environment": environment(args.seed), "run_seconds": args.seconds,
               "results": results}
        Path(args.baseline).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline", help="with all workloads: write results here")
    parser.add_argument("--write-config", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.config(), indent=2) + "\n")
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
