"""One workload process, started fresh by run.py for every measurement.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S \
        --trace 0|1 --result FILE

`setup` times what every CLI call pays before its payload: importing
`boxgas.cli`, loading the config, building the basis and modes, and the
interaction tensor.  `run` calls the workload's `boxgas` subcommands in this
process, exactly as `boxgas <command> --set ...` would, until `--seconds` have
passed (at least one pass), checks every report against the recorded
reference, and with `--trace 1` adds one traced pass.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time

import tracer as tr
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Reference comparison: |actual - ref| <= RTOL |ref| + ATOL.  RTOL matches
# the 1e-8 bounds of the CLI's own checks; ATOL only matters for values at
# round-off level (a fitted mu of 3e-14 whose exact value is 0).
RTOL = 1e-8
ATOL = 1e-12
# Allowed gap between the span accounting and the traced wall time.
ACCOUNTING_TOL = 1e-6


def pin_threads():
    for var in wl.THREAD_VARS:
        os.environ[var] = "1"


def check_boxgas_source():
    """Fail unless `boxgas` was imported from this checkout's src/."""
    import boxgas

    where = os.path.dirname(os.path.abspath(boxgas.__file__))
    if where != os.path.join(SRC, "boxgas"):
        raise SystemExit(f"boxgas imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# set-up probe


def build_system(workload):
    """Config, geometry, modes and basis, as every CLI payload builds them."""
    from boxgas.config import load_config
    from boxgas.fieldmodel import BoxGeometry, modes_from_numbers
    from boxgas.fock import Statistics, build_basis

    config = None if workload.config is None else os.path.join(ROOT, workload.config)
    cfg = load_config(config, workload.overrides)
    geom = BoxGeometry(tuple(float(x) for x in cfg["geometry"]["lengths"]))
    modes = modes_from_numbers(geom, [tuple(t) for t in cfg["modes"]["numbers"]])
    statistics = Statistics(cfg["basis"]["statistics"])
    basis = build_basis(len(modes), cfg["basis"]["n_max"], statistics)
    return cfg, geom, modes, statistics, basis


def setup_probe(workload):
    start = time.perf_counter()
    import boxgas.cli  # noqa: F401  (the import is part of what is timed)
    from boxgas.fieldmodel import (Contact, Gaussian, SoftLennardJones,
                                   contact_tensor, potential_tensor)

    cfg, geom, modes, _, _ = build_system(workload)
    pcfg = cfg["potential"]
    if pcfg["kind"] == "contact":
        contact_tensor(modes, Contact(pcfg["strength"]), geom)
    elif pcfg["kind"] != "none":
        potential = (Gaussian(pcfg["strength"], pcfg["range"])
                     if pcfg["kind"] == "gaussian"
                     else SoftLennardJones(pcfg["strength"], pcfg["range"], pcfg["core"]))
        potential_tensor(modes, potential, geom, order=pcfg["order"])
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# reference comparison


def _deviations(key, actual, expected):
    """(key, deviation) for every element outside the tolerance."""
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [(key, f"shape {actual!r} != {expected!r}")]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += _deviations(f"{key}[{i}]", a, e)
        return out
    if isinstance(expected, (bool, int, str)):
        return [] if actual == expected else [(key, f"{actual!r} != {expected!r}")]
    if not isinstance(actual, (int, float)) or isinstance(actual, bool) \
            or not math.isfinite(actual):
        return [(key, f"{actual!r} is not a finite number")]
    dev = abs(actual - expected)
    if dev > RTOL * abs(expected) + ATOL:
        rel = dev / abs(expected) if expected != 0.0 else math.inf
        return [(key, f"|{actual!r} - {expected!r}| = {dev:.3e} (relative {rel:.3e})")]
    return []


def check_report(report, expected):
    """Problems with one report.json against its recorded reference values."""
    if expected is None:
        return ["no reference recorded for this command and seed"]
    problems = []
    if report.get("passed") is not True:
        problems.append(f"report passed={report.get('passed')!r}: "
                        f"{report.get('error', 'a CLI check failed')}")
    values = report.get("values", {})
    for key, ref in sorted(expected.items()):
        if key not in values:
            problems.append(f"{key}: missing from report")
            continue
        problems += [f"{k}: {d}" for k, d in _deviations(key, values[key], ref)]
    return problems


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# command passes


class Runner:
    """Calls `boxgas <command>` in-process and checks each report."""

    def __init__(self, workload, seed, reference, out_dir):
        from boxgas.cli import main

        self.main = main
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reports = {}

    def call(self, command, tracer=None):
        """Run one subcommand; returns its wall time in seconds."""
        args = wl.cli_args(self.workload, command, ROOT, self.out_dir, self.seed)
        report_path = os.path.join(self.out_dir, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        code, error = 0, None
        start = time.perf_counter()
        try:
            if tracer is None:
                self.main.main(args=args, standalone_mode=False)
            else:
                tracer.call(tr.ROOT_SPAN, self.main.main, args=args,
                            standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is a failed call, not a harness error
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = []
        if error is not None:
            problems.append(f"raised {error}")
        elif code != 0:
            problems.append(f"exit code {code}")
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
            self.reports[command] = report
            if error is None and code == 0:
                expected = (self.reference.get(self.workload.name, {})
                            .get(command, {})
                            .get(wl.seed_key(command, self.seed)))
                problems += check_report(report, expected)
        elif error is None:
            problems.append("no report.json written")
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{self.workload.name} {command} "
                                 f"(seed {self.seed}): {problem}")
        return elapsed


def calls_of_pass(workload):
    """The subcommands of one pass, in order, each repeated as the workload says."""
    return [c for c, n in zip(workload.commands, workload.repeats) for _ in range(n)]


def run_passes(runner, seconds):
    """A warm-up pass, then whole passes until `seconds` have passed since the
    start; at least one.  The warm-up calls each command once and pays
    first-touch costs (heap growth, lazy imports); its calls are checked but
    not timed."""
    times = {c: [] for c in runner.workload.commands}
    passes = []
    start = time.perf_counter()
    for command in runner.workload.commands:
        runner.call(command)
    while True:
        t0 = time.perf_counter()
        for command in calls_of_pass(runner.workload):
            times[command].append(runner.call(command))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return times, passes


def traced_pass(runner):
    """One pass with every target wrapped; returns the span record."""
    import tracemalloc

    tracer = tr.Tracer()
    tracer.install()
    patched = tracer.patched_attributes()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for command in calls_of_pass(runner.workload):
            runner.call(command, tracer=tracer)
        wall = time.perf_counter() - start
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    problems = [f"{name} still wrapped" for name in tr.leftover_wrappers()]
    self_total = sum(st["s"] for st in tracer.stats.values())
    remainder = wall - tracer.root_s
    accounted = self_total + remainder
    if abs(accounted - wall) > ACCOUNTING_TOL * max(wall, 1.0):
        problems.append(f"span self times + remainder = {accounted:.9f} s, "
                        f"traced wall = {wall:.9f} s")
    negative = sorted(n for n, st in tracer.stats.items() if st["s"] < -ACCOUNTING_TOL)
    if negative:
        problems.append(f"negative self time in {negative}")
    return {
        "wall_s": wall,
        "self_s_total": self_total,
        "untraced_remainder_s": remainder,
        "patched_attributes": sorted(
            f"{o.__module__}.{o.__name__}.{a}" if isinstance(o, type)
            else f"{o.__name__}.{a}" for o, a, _ in patched),
        "spans": tracer.stats,
        "counters": tracer.counters,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# recorded facts


def workload_properties(workload, reports):
    import numpy as np
    from boxgas.scattering import pair_basis, pair_energies

    cfg, _, modes, statistics, basis = build_system(workload)
    pairs = pair_basis(len(modes), statistics)
    props = {
        "dim": basis.dim,
        "sector_sizes": np.bincount(basis.totals()).tolist(),
        "n_modes": len(modes),
        "n_pairs": len(pairs),
        "distinct_pair_energies": int(np.unique(pair_energies(modes, pairs)).size),
        "n_cells": int(np.prod(cfg["grid"]["cells"])),
    }
    if "evolve" in workload.commands:
        props["rk4_steps_nominal"] = cfg["evolve"]["steps"]
        props["rk4_steps_accepted"] = (reports.get("evolve", {})
                                       .get("values", {}).get("n_steps"))
    return props


def environment():
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "threads": {v: os.environ.get(v) for v in wl.THREAD_VARS},
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run(args):
    workload = wl.find(args.workload)
    reference = load_reference()
    out_dir = os.path.join(ROOT, ".perfbench-out", f"work-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, reference, out_dir)
        times, passes = run_passes(runner, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        trace = traced_pass(runner) if args.trace else None
        result = {
            "workload": workload.name,
            "cli_seed": args.seed,
            "command_s": times,
            "pass_s": passes,
            "peak_rss_mb": peak_rss_mb,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "trace": trace,
            "properties": workload_properties(workload, runner.reports),
            "environment": environment(),
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", default=None)
    args = parser.parse_args(argv)
    pin_threads()
    sys.path.insert(0, SRC)
    if args.mode == "setup":
        seconds = setup_probe(wl.find(args.workload))
        check_boxgas_source()
        print(json.dumps({"setup_s": seconds}))
        return
    check_boxgas_source()
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
