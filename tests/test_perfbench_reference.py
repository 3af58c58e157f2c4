"""Every benchmark workload's commands still match their recorded references.

`perfbench/run.py` checks each report.json against `perfbench/reference.json`
only when the benchmark runs.  This test calls each workload's two commands
in process through the `Runner` of `perfbench/worker.py`, once per command and
once per CLI seed of the seeded ones (all eight for `generator-check`), and
checks every report with the worker's own `check_report`.  A reference key
that moves then fails the suite before the benchmark runs.  Nothing under
`perfbench/` is written: the reports go to a temporary directory.  The worker
also calls `boxgas` directly, outside the CLI, in its set-up probe and in the
workload facts it records; both run here for every workload, so a `boxgas`
name that the worker imports cannot go without failing the suite.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_worker():
    """perfbench/worker.py as a module; it imports `tracer` and `workloads` by
    name.  No bytecode is written under perfbench/."""
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return module


WORKER = load_worker()
WORKLOADS = WORKER.wl.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_match_the_references(name, tmp_path):
    workload, wl = WORKLOADS[name], WORKER.wl
    reference = WORKER.load_reference()
    calls, failures = 0, []
    for command in workload.commands:
        for seed in range(wl.CLI_SEEDS) if command in wl.SEEDED_COMMANDS else (0,):
            runner = WORKER.Runner(workload, seed, reference, str(tmp_path))
            runner.call(command)
            calls += runner.attempted
            failures += runner.failures
    assert calls == sum(wl.CLI_SEEDS if c in wl.SEEDED_COMMANDS else 1 for c in workload.commands)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_worker_calls_into_boxgas_run_on_every_workload(name):
    workload = WORKLOADS[name]
    assert WORKER.setup_probe(workload) > 0.0
    props = WORKER.workload_properties(workload, {})
    assert props["dim"] > 0 and props["n_modes"] > 0
    assert 0 < props["distinct_pair_energies"] <= props["n_pairs"]
