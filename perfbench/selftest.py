"""Self-test of the harness on the bundled reference config (dim 10).

    python3 perfbench/selftest.py

Checks that (1) BENCHMARK.json and metrics.py name the same metrics with the
same units, and a real run prints every one of them; (2) a perturbed
reference value fails the call and is counted; (3) the traced pass leaves
every patched `boxgas` attribute as it found it.  Exits 1 on the first
failed check.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time

import metrics
import run
import worker
import workloads as wl


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_metric_names():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for key, declared in (("end_to_end", metrics.END_TO_END),
                          ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        check(listed == list(declared), f"BENCHMARK.json {key} matches metrics.py")
    check([w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")

    deadline = time.monotonic() + run.DEADLINE_S
    for trace, declared in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        result, setup_times = run.measure(wl.SELFTEST, 0, 0.0, trace, deadline)
        check(not result["failures"], f"trace {trace} run of the reference config "
              f"passes its reference check ({result['failures']})")
        got = (metrics.per_layer(result) if trace
               else metrics.end_to_end(wl.SELFTEST, result, setup_times))
        check({k: v["unit"] for k, v in got.items()}
              == {name: unit for name, unit, _ in declared},
              f"trace {trace} run reports every metric with its unit")
        if trace:
            check(not result["trace"]["problems"],
                  f"span accounting closes ({result['trace']['problems']})")


def boxgas_attributes():
    """Every attribute of every boxgas module and of the classes they define."""
    snapshot = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "boxgas" or name.startswith("boxgas.")):
            continue
        for attr, value in vars(mod).items():
            snapshot[f"{name}.{attr}"] = value
            if isinstance(value, type) and value.__module__ == name:
                for k, v in vars(value).items():
                    snapshot[f"{name}.{attr}.{k}"] = v
    return snapshot


def check_in_process(reference):
    out_dir = os.path.join(worker.ROOT, ".perfbench-out", f"selftest-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        _check_in_process(reference, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _check_in_process(reference, out_dir):
    perturbed = copy.deepcopy(reference)
    evolve = perturbed[wl.SELFTEST.name]["evolve"]["*"]
    evolve["entropy_final"] *= 1.0 + 1e-6
    runner = worker.Runner(wl.SELFTEST, 0, perturbed, out_dir)
    runner.call("evolve")
    check(runner.attempted == 1 and runner.failed == 1
          and "entropy_final" in runner.failures[0],
          "a perturbed reference value fails the call and counts toward fail_rate")

    runner = worker.Runner(wl.SELFTEST, 0, reference, out_dir)
    before = boxgas_attributes()
    trace = worker.traced_pass(runner)
    after = boxgas_attributes()
    check(runner.failed == 0, "traced pass passes its reference check")
    patched = set(trace["patched_attributes"])
    by_name = {"boxgas.kinetics.maxent_fit", "boxgas.cli.integrate",
               "boxgas.generator.ladder_ops", "boxgas.fieldmodel.one_body_operator",
               "boxgas.generator.Lprime.images"}
    check(by_name <= patched, f"traced pass patched {len(patched)} attributes, "
          f"including {sorted(by_name)}")
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) is not after.get(k))
    check(not changed, f"traced pass restores every boxgas attribute {changed}")
    spans = trace["spans"]
    check(spans["gibbs.maxent_fit"]["calls"] > 0 and spans["kinetics.integrate"]["calls"] == 1,
          "calls through imported names (kinetics.maxent_fit, cli.integrate) were traced")


def main():
    worker.pin_threads()
    sys.path.insert(0, worker.SRC)
    worker.check_boxgas_source()
    reference = worker.load_reference()
    check_metric_names()
    check_in_process(reference)
    print("selftest passed")


if __name__ == "__main__":
    main()
