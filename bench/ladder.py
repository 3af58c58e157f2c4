"""Size ladder: wall time and peak RSS of `boxgas` CLI calls at growing basis dims.

    python3 bench/ladder.py --out BENCH_<n>.json

Each 1D rung runs its commands (`build`, `generator-check` and `evolve`, and
`maxent` and `micro-demo` at (6, 4) and (8, 4); `generator-check`, `evolve`
and `micro-demo` at (10, 4); `generator-check` and `evolve` at (12, 4);
`generator-check` alone at (14, 4), dim 3060; or `evolve` alone) on the
default config with 1D modes 1..n, the given n_max, 2 cells and
`evolve.steps=4`.  Each 3D rung runs on the box of
the `pair3d` benchmark workload (lengths 1.0, 1.07, 1.13, Gaussian of
strength 0.8 and range 0.25, Bose n_max 2) with its n lowest modes: `build`
on one cell, where the whole-box interaction tensor is a large share of the
call at 40 modes, `tmatrix` on one cell, where the on-shell pair T matrix
and its n^2(n+1)^2/4-row table are, `generator-check` on one cell, where the
generator's energy residual, its sampled positivity and the negative-time
witness are, `evolve` on two cells [2, 1, 1] with `evolve.steps=4`, where
the generator images of the moment kernels and the closure's fits are, or
`maxent` on eight cells [2, 2, 2], where the eight per-cell pair tensors
and the max-ent fit over the 16 cell constraints are.  `boxgas --version`
after the rungs records the start-up floor that every call includes
(`startup`: the interpreter, numpy and the package imports, no payload).
Every call is a fresh `python -m boxgas.cli` process with the BLAS and
OpenMP thread variables pinned to 1, importing `boxgas` from `src/` of this
checkout (as does this script, for the 3D mode list); its wall time and the
peak RSS the kernel reports for that process (`os.wait4`) are recorded.
Each command runs REPEATS times in a row: `wall_s` and `peak_rss_mb` are the
medians, and `wall_s_runs` and `peak_rss_mb_runs` keep every reading, since
single readings of either move by 10% or more on a shared VM.
This is a plain script, not a test and not a benchmark gate.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from boxgas.fieldmodel import BoxGeometry, box_modes  # noqa: E402
from boxgas.fock import Statistics, basis_dimension  # noqa: E402

COMMANDS = ("build", "generator-check", "evolve")
RUNGS = (((6, 3), COMMANDS), ((6, 4), COMMANDS + ("maxent", "micro-demo")),
         ((8, 4), COMMANDS + ("maxent", "micro-demo")),
         ((10, 4), ("generator-check", "evolve", "micro-demo")),
         ((12, 4), ("generator-check", "evolve")),
         ((14, 4), ("generator-check",)), ((20, 4), ("evolve",)))  # Bose
PAIR3D_LENGTHS = (1.0, 1.07, 1.13)
PAIR3D_SETS = ["geometry.lengths=" + json.dumps(PAIR3D_LENGTHS).replace(" ", ""),
               "potential.kind=gaussian", "potential.strength=0.8", "potential.range=0.25",
               "basis.n_max=2", "basis.statistics=bose"]
# the cells of each 3D command; two cells keep the default fields, eight
# repeat them
ONE_CELL = ["grid.cells=[1,1,1]", "fields.beta=[0.22]", "fields.mu=[0.0]"]
EIGHT_CELLS = ["grid.cells=[2,2,2]", "fields.beta=" + json.dumps([0.22, 0.18] * 4).replace(" ", ""),
               "fields.mu=" + json.dumps([0.0] * 8).replace(" ", "")]
PAIR3D_CELLS = {"build": ONE_CELL, "tmatrix": ONE_CELL, "generator-check": ONE_CELL,
                "evolve": ["grid.cells=[2,1,1]", "evolve.steps=4"], "maxent": EIGHT_CELLS}
PAIR3D_RUNGS = ((20, "build"), (40, "build"), (20, "tmatrix"), (40, "tmatrix"),
                (60, "tmatrix"), (20, "generator-check"), (30, "generator-check"),
                (40, "generator-check"), (20, "evolve"), (30, "evolve"), (40, "evolve"),
                (50, "evolve"), (60, "evolve"), (20, "maxent"), (40, "maxent"))  # lowest modes
REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def overrides(modes: int, n_max: int) -> list[str]:
    numbers = "[" + ",".join(f"[{k}]" for k in range(1, modes + 1)) + "]"
    return [f"modes.numbers={numbers}", f"basis.n_max={n_max}", "grid.cells=[2]",
            "evolve.steps=4"]


def pair3d_overrides(modes: int, command: str) -> list[str]:
    numbers = [list(m.numbers) for m in box_modes(BoxGeometry(PAIR3D_LENGTHS), modes)]
    return (PAIR3D_SETS + PAIR3D_CELLS[command]
            + ["modes.numbers=" + json.dumps(numbers).replace(" ", "")])


def timed_process(args: list[str], env: dict, err) -> dict:
    """Exit code, wall time and peak RSS of one `python -m boxgas.cli` process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "boxgas.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return {"exit_code": os.waitstatus_to_exitcode(status), "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1)}


def run_call(command: str, sets: list[str], env: dict) -> dict:
    """One fresh process: its exit code, report verdict, wall time and peak RSS."""
    with tempfile.TemporaryDirectory() as out:
        args = [command, "--out", out, "--quiet"]
        for item in sets:
            args += ["--set", item]
        with open(Path(out) / "stderr.txt", "w+b") as err:
            timed = timed_process(args, env, err)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        report = Path(out) / "report.json"
        timed["passed"] = json.loads(report.read_text())["passed"] if report.exists() else None
    if timed["exit_code"] != 0:
        timed["stderr_tail"] = stderr.strip().splitlines()[-3:]
    return timed


def repeated(call, *args) -> dict:
    """`call(*args)` REPEATS times: the first call's outcome, the median wall
    time and peak RSS, and every reading."""
    runs = [call(*args) for _ in range(REPEATS)]
    row = {key: value for key, value in runs[0].items() if key not in ("wall_s", "peak_rss_mb")}
    for key in ("wall_s", "peak_rss_mb"):
        readings = [run[key] for run in runs]
        row[key] = statistics.median(readings)
        row[key + "_runs"] = readings
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    plan = [("1d", modes, n_max, commands, overrides(modes, n_max))
            for (modes, n_max), commands in RUNGS]
    plan += [("pair3d", modes, 2, (command,), pair3d_overrides(modes, command))
             for modes, command in PAIR3D_RUNGS]
    rungs = []
    for box, modes, n_max, commands, sets in plan:
        dim = basis_dimension(modes, n_max, Statistics.BOSE)
        calls = [{"command": c, **repeated(run_call, c, sets, env)} for c in commands]
        rungs.append({"box": box, "modes": modes, "n_max": n_max, "dim": dim, "calls": calls})
        for call in calls:
            print(f"{box:6s} modes {modes} n_max {n_max} dim {dim:5d} "
                  f"{call['command']:16s} {call['wall_s']:8.2f} s "
                  f"{call['peak_rss_mb']:8.1f} MB exit {call['exit_code']}", flush=True)
    # last, so that the bytecode is compiled as it is for every rung but the first
    startup = repeated(timed_process, ["--version"], env, subprocess.DEVNULL)
    print(f"start-up (boxgas --version) {startup['wall_s']:8.2f} s "
          f"{startup['peak_rss_mb']:8.1f} MB exit {startup['exit_code']}", flush=True)
    result = {
        "config": {"1d": "defaults, Bose, 1D modes 1..n, grid.cells=[2], evolve.steps=4",
                   "pair3d": "defaults with " + " ".join(PAIR3D_SETS)
                             + ", the n lowest modes of the box, and per command "
                             + "; ".join(f"{c}: {' '.join(sets)}"
                                         for c, sets in PAIR3D_CELLS.items())},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "threads": {var: env[var] for var in THREAD_VARS},
        },
        "repeats": REPEATS,
        "startup": startup,
        "rungs": rungs,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
