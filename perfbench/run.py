"""Run one workload of the mrfdet benchmark and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, measured with no probes installed;
with --trace 1 they are the per-layer ones of three traced rounds,
alternated with three untraced rounds of the same commands. The line
before it is the run's provenance. Exit status is nonzero, with no result, when the program or
the benchmark's inputs cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import bootstrap

WORK_DIR = bootstrap.ROOT / ".perfbench_work"
TRACE_PAIRS = 3         # untraced/traced round pairs of a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep running whole rounds until this much command time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def measure(harness, env, seconds):
    """Whole rounds until `seconds` of command time; checks run between rounds."""
    results, problems, spent = [], [], 0.0
    while True:
        round_results = harness.run_round(env)
        spent += sum(r.wall_s for r in round_results)
        results += round_results
        problems += harness.check_results(round_results, env)
        if spent >= seconds:
            return results, problems


def measure_traced(harness, tracing, env, run_id, setup_dir):
    """Alternate untraced and traced rounds; spans accumulate over the traced ones."""
    tracer = tracing.Tracer(run_id)
    with tracing.installed(tracer), tracer.span("bench.setup"):
        harness.set_up(env.workload, env.seed, setup_dir)
    results, problems, untraced, traced = [], [], [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(harness.run_round(env))
        with tracing.installed(tracer):
            traced.append(harness.run_round(env, tracer))
        results += untraced[-1] + traced[-1]
        problems += harness.check_results(untraced[-1] + traced[-1], env)
    metrics = tracing.per_layer_metrics(tracer, untraced, traced)
    return results, problems, metrics, tracer


def main(argv=None):
    args = parse_args(argv)
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir):
    try:
        bootstrap.prepare()
        import harness
        import tracing
        if args.workload not in harness.WORKLOADS:
            raise ValueError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(harness.WORKLOADS)}")
        workload = harness.WORKLOADS[args.workload]
        setup_times = []
        for _ in range(harness.SETUP_REPEATS):
            t0 = time.perf_counter()
            env = harness.set_up(workload, args.seed, run_dir / "inputs")
            setup_times.append(time.perf_counter() - t0)
        harness.warm_up(env)
    except (bootstrap.SetupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    prov = harness.provenance(env)
    if args.trace:
        run_id = f"{workload.name}-seed{args.seed}-{time.time_ns()}"
        results, problems, metrics, tracer = measure_traced(
            harness, tracing, env, run_id, run_dir / "traced_setup")
        trace_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"provenance": prov, "absent": sorted(tracer.absent)})
        if tracer.absent:
            print("absent (function missing or changed shape): "
                  + ", ".join(sorted(tracer.absent)))
        print(f"spans written to {trace_path}")
    else:
        results, problems = measure(harness, env, args.seconds)
        try:
            metrics = harness.end_to_end_metrics(results, env, setup_times)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    for r in results:
        if not r.ok:
            print(f"failed: mrfdet {' '.join(r.argv)}\n{r.stderr.strip()}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
