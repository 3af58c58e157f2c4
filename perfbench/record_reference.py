"""Record the reference report values the benchmark checks every call against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's subcommands once at one BLAS thread (seeded commands
once per CLI seed) and writes the `values` named in workloads.REFERENCE_KEYS
to perfbench/reference.json.  Record at a commit whose outputs are trusted;
the benchmark then fails any call that moves these values by more than the
worker's relative tolerance.
"""
from __future__ import annotations

import json
import os
import sys

import worker
import workloads as wl


def record(workload, out_dir):
    entry = {}
    for seed in range(wl.CLI_SEEDS):
        commands = [c for c in workload.commands
                    if seed == 0 or c in wl.SEEDED_COMMANDS]
        runner = worker.Runner(workload, seed, {}, out_dir)
        for command in commands:
            runner.call(command)
            report = runner.reports.get(command)
            if report is None or report.get("passed") is not True:
                raise SystemExit(f"{workload.name} {command} (seed {seed}) did not "
                                 f"pass: {runner.failures}")
            values = {k: report["values"][k] for k in wl.REFERENCE_KEYS[command]
                      if k in report["values"]}
            entry.setdefault(command, {})[wl.seed_key(command, seed)] = values
            print(f"{workload.name} {command} seed {seed}: {values}", flush=True)
    return entry


def main(argv):
    worker.pin_threads()
    sys.path.insert(0, worker.SRC)
    worker.check_boxgas_source()
    names = argv or [*wl.WORKLOADS, wl.SELFTEST.name]
    reference = {}
    if os.path.exists(worker.REFERENCE_PATH):
        reference = worker.load_reference()
    out_dir = os.path.join(worker.ROOT, ".perfbench-out", "record")
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        reference[name] = record(wl.find(name), out_dir)
    with open(worker.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
