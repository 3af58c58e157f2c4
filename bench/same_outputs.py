"""Same outputs: every subcommand's files and exit code, against a git ref.

    python3 bench/same_outputs.py --against REF

Runs the seven `boxgas` subcommands on ten configs, once in a `git archive`
copy of REF and once in this working tree (uncommitted edits included), and
compares the two runs: the exit code of every call and the bytes of every
file it writes (`report.json` and its tables).  Every call is a fresh
`python -m boxgas.cli` process that imports `boxgas` from the `src/` of its
own tree, with the BLAS and OpenMP thread variables pinned to 1, since the
determinism contract holds for one thread count.  Prints each difference and
exits 0 only when there is none.

The configs are the defaults, the three bundled YAML files, the
`relax_dense`, `relax_cells` and `pair3d` benchmark workloads, Fermi on four
1D modes, and the six lowest modes of the `pair3d` box on two cells with a
Gaussian and with a soft Lennard-Jones potential.  A refactor that claims
to move no output bit is checked with this script.  It is a plain script,
not a test.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("modes", "build", "tmatrix", "generator-check", "maxent", "evolve",
               "micro-demo")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BOX3D = ["geometry.lengths=[1.0,1.07,1.13]", "basis.n_max=2", "basis.statistics=bose"]
# the six lowest Dirichlet modes of the box above, in order of energy
SIX_MODES = "modes.numbers=[[1,1,1],[1,1,2],[1,2,1],[2,1,1],[1,2,2],[2,1,2]]"
# name -> (bundled YAML file or None, --set overrides)
CONFIGS = {
    "defaults": (None, []),
    "free_gas": ("free_gas.yaml", []),
    "maxent_roundtrip": ("maxent_roundtrip.yaml", []),
    "two_cell_relaxation": ("two_cell_relaxation.yaml", []),
    "relax_dense": (None, ["modes.numbers=[[1],[2],[3],[4],[5],[6]]", "basis.n_max=3",
                           "evolve.steps=4"]),
    "relax_cells": (None, ["modes.numbers=[[1],[2],[3],[4],[5]]", "basis.n_max=4",
                           "evolve.steps=20"]),
    "pair3d": (None, BOX3D + [
        "potential.kind=gaussian", "potential.strength=0.8", "potential.range=0.25",
        "potential.order=8", "grid.cells=[1,1,1]", "fields.beta=[0.22]", "fields.mu=[0.0]",
        "modes.numbers=[[1,1,1],[2,1,1],[1,2,1],[1,1,2],[2,2,1],[2,1,2],[1,2,2],"
        "[3,1,1],[1,3,1],[1,1,3],[2,2,2],[1,2,3]]"]),
    "fermi": (None, ["basis.statistics=fermi", "modes.numbers=[[1],[2],[3],[4]]",
                     "basis.n_max=3", "potential.kind=gaussian", "potential.strength=1.0",
                     "potential.range=0.25", "generator.delta=5.0"]),
    "box3d_gaussian": (None, BOX3D + [
        SIX_MODES, "grid.cells=[2,1,1]", "potential.kind=gaussian",
        "potential.strength=0.8", "potential.range=0.25"]),
    "box3d_soft_lj": (None, BOX3D + [
        SIX_MODES, "grid.cells=[2,1,1]", "potential.kind=soft-lennard-jones",
        "potential.strength=0.5", "potential.range=0.3", "potential.core=0.1",
        "potential.order=4"]),
}


def archive_copy(ref: str, dest: Path) -> None:
    """The committed files of `ref`, unpacked into `dest`."""
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                       ref + "^{commit}"], stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit(f"{ref} names no commit of this repository")
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", ref],
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            archive.extractall(dest, filter="data")
    if proc.returncode != 0:
        sys.exit(f"git archive {ref} failed")


def run_tree(tree: Path, out: Path) -> dict:
    """Exit code of every (config, subcommand) call in `tree`; the files
    each call writes go to out/<config>/<subcommand>."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    codes = {}
    for name, (yaml_file, sets) in CONFIGS.items():
        for command in SUBCOMMANDS:
            target = out / name / command
            target.mkdir(parents=True)
            args = [sys.executable, "-m", "boxgas.cli", command, "--out", str(target), "--quiet"]
            if yaml_file is not None:
                args += ["--config", str(tree / "configs" / yaml_file)]
            for item in sets:
                args += ["--set", item]
            codes[name, command] = subprocess.run(args, env=env, cwd=tree,
                                                  stdout=subprocess.DEVNULL,
                                                  stderr=subprocess.DEVNULL).returncode
    return codes


def differences(ref_codes: dict, ref_out: Path, codes: dict, out: Path) -> list[str]:
    found = []
    for name, command in ref_codes:
        if ref_codes[name, command] != codes[name, command]:
            found.append(f"{name} {command}: exit code {ref_codes[name, command]} "
                         f"against {codes[name, command]}")
        left, right = ref_out / name / command, out / name / command
        listed = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
        for file in listed:
            if not (left / file).exists() or not (right / file).exists():
                found.append(f"{name} {command}: {file} written by one tree only")
            elif not filecmp.cmp(left / file, right / file, shallow=False):
                found.append(f"{name} {command}: {file} differs")
    return found


def main_cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REF",
                        help="git ref whose committed files are the reference")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        ref_tree = scratch / "ref"
        archive_copy(args.against, ref_tree)
        ref_codes = run_tree(ref_tree, scratch / "ref-out")
        codes = run_tree(ROOT, scratch / "out")
        found = differences(ref_codes, scratch / "ref-out", codes, scratch / "out")
    for line in found:
        print(line)
    calls = len(codes)
    print(f"{calls - len({line.split(':')[0] for line in found})} of {calls} calls "
          f"match {args.against}: same exit code, same files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main_cli())
