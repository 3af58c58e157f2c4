"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement happens in fresh
worker processes (perfbench/worker.py) with BLAS pinned to one thread.
`--trace 0` reports the end-to-end metrics: set-up time (median of several
fresh processes), the median wall time of each of the workload's two `boxgas`
subcommands over the passes that fit in `--seconds`, and the peak RSS of the
workload process.  `--trace 1` repeats the untraced passes, then runs one
traced pass and reports per-layer metrics and the tracing overhead.
Diagnostics and a detail file under .perfbench-out/ come first; the last line
of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5  # measured set-up processes per run, after one warm-up
DEADLINE_S = 170.0  # whole run, inside the 180 s allowance


def _env():
    env = dict(os.environ)
    for var in wl.THREAD_VARS:
        env[var] = "1"
    # set-up is timed with cached bytecode, which the warm-up probe writes
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, deadline):
    """Run worker.py to completion; the child is killed at the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return proc.stdout


def measure(workload, seed, seconds, trace, deadline):
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
    try:
        _worker(["run", "--workload", workload.name, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", str(trace),
                 "--result", result_path], deadline)
        with open(result_path, encoding="utf-8") as handle:
            worker = json.load(handle)
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)
    setup_times = []
    if not trace:
        # the warm-up pays byte-compilation and a cold file cache once
        for i in range(SETUP_PROBES + 1):
            out = _worker(["setup", "--workload", workload.name], deadline)
            if i:
                setup_times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return worker, setup_times


def main(argv=None):
    parser = argparse.ArgumentParser(description="boxgas benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "boxgas", "cli.py")):
        sys.exit(f"no boxgas sources under {ROOT}/src; run from a checkout")
    workload = wl.WORKLOADS[args.workload]
    try:
        worker, setup_times = measure(workload, wl.cli_seed(args.seed),
                                      args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark run failed: {exc}")

    problems = list(worker["failures"])
    if args.trace:
        problems += worker["trace"]["problems"]
        values = metrics.per_layer(worker)
    else:
        values = metrics.end_to_end(workload, worker, setup_times)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    first, second = workload.commands
    passes = len(worker["pass_s"])
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "cli_seed": worker["cli_seed"],
        "commands": {"command1_s": first, "command2_s": second},
        "passes": passes,
        "command_s": worker["command_s"],
        "setup_s": setup_times,
        "fail_rate": worker["failed"] / worker["attempted"],
        "problems": problems,
        "properties": worker["properties"],
        "environment": worker["environment"],
        "metrics": values,
    }
    if args.trace:
        trace = worker["trace"]
        untraced = statistics.median(worker["pass_s"])
        detail["trace"] = {
            "traced_wall_s": trace["wall_s"],
            "untraced_pass_median_s": untraced,
            "overhead_s": trace["wall_s"] - untraced,
            "self_s_total": trace["self_s_total"],
            "untraced_remainder_s": trace["untraced_remainder_s"],
            "patched_attributes": trace["patched_attributes"],
            "spans": trace["spans"],
        }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ROOT, ".perfbench-out", name), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)

    print(f"workload {workload.name}: {first} then {second}, {passes} pass(es), "
          f"cli seed {worker['cli_seed']}, fail_rate {detail['fail_rate']:g}")
    print("properties " + json.dumps(worker["properties"], sort_keys=True))
    print("environment " + json.dumps(worker["environment"], sort_keys=True))
    if args.trace:
        t = detail["trace"]
        print(f"tracing overhead: traced pass {t['traced_wall_s']:.3f} s vs untraced "
              f"median {t['untraced_pass_median_s']:.3f} s; span self times "
              f"{t['self_s_total']:.3f} s + remainder {t['untraced_remainder_s']:.3f} s")
    print(json.dumps({
        "correct": not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": values,
    }))


if __name__ == "__main__":
    main()
