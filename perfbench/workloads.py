"""Workload definitions: a config (bundled defaults plus ``--set`` overrides)
and the sequence of ``boxgas`` subcommands run on it.

This module imports nothing heavy, so the set-up probe can load it before it
starts its clock.
"""
from __future__ import annotations

from dataclasses import dataclass

# The CLI seed drives positivity sampling and the negative-tau witness of
# `generator-check`; the benchmark seed is folded onto this many CLI seeds,
# each with its own recorded reference values.
CLI_SEEDS = 8

# Subcommands whose report depends on the CLI seed.
SEEDED_COMMANDS = frozenset({"generator-check"})

# BLAS / OpenMP thread variables pinned to 1 in every workload process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# report.json `values` compared against the recorded reference of each command.
REFERENCE_KEYS = {
    "build": ("dimension", "ground_energy", "top_energy", "lowest_levels"),
    "tmatrix": ("n_pairs", "t_norm", "v_norm", "born_ratio"),
    "generator-check": ("energy_residual", "energy_streaming", "witness_q",
                        "collision_time"),
    "maxent": ("beta_fit", "mu_fit", "target_energy", "target_mass"),
    "evolve": ("n_steps", "collision_time", "contrast_final", "entropy_final",
               "energy_total_final"),
}

# The 12 lowest Dirichlet modes of the slightly anisotropic box: (1,1,1), the
# single and double excitations, and (1,2,3).
_PAIR3D_MODES = ("[[1,1,1],[2,1,1],[1,2,1],[1,1,2],[2,2,1],[2,1,2],[1,2,2],"
                 "[3,1,1],[1,3,1],[1,1,3],[2,2,2],[1,2,3]]")


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    commands: tuple[str, str]
    why: str
    config: str | None = None  # YAML file relative to the checkout root
    # Calls of each command per pass.  A command far shorter than the other
    # repeats, so that its median over a run rests on more samples than the
    # few passes that fit.
    repeats: tuple[int, int] = (1, 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "relax_dense",
            ("modes.numbers=[[1],[2],[3],[4],[5],[6]]", "basis.n_max=3",
             "evolve.steps=4"),
            ("evolve", "generator-check"),
            "6 modes, dim 84: time sits in the dense generator (Lprime, images, "
            "Gram-solve apply) and fock einsums",
        ),
        Workload(
            "relax_cells",
            ("modes.numbers=[[1],[2],[3],[4],[5]]", "basis.n_max=4",
             "evolve.steps=20"),
            ("maxent", "evolve"),
            "dim 126, 20 RK4 steps: ~100 warm-started maxent fits load "
            "gibbs/kinetics while generator stays small",
            repeats=(2, 1),
        ),
        Workload(
            "pair3d",
            ("geometry.lengths=[1.0,1.07,1.13]", "potential.kind=gaussian",
             "potential.strength=0.8", "potential.range=0.25",
             "potential.order=8", "basis.n_max=2", "basis.statistics=bose",
             "grid.cells=[1,1,1]", "fields.beta=[0.22]", "fields.mu=[0.0]",
             "modes.numbers=" + _PAIR3D_MODES),
            ("tmatrix", "build"),
            "12 near-degenerate 3D modes, 78 pairs: scattering T solves and "
            "fock two-body assembly; never reaches generator or gibbs",
        ),
    )
}

# Harness self-test only: the bundled reference scenario (3 modes, dim 10).
SELFTEST = Workload(
    "selftest", (), ("evolve", "generator-check"),
    "bundled reference config, dim 10, for the harness self-test",
    config="configs/two_cell_relaxation.yaml",
)


def find(name: str) -> Workload:
    if name == SELFTEST.name:
        return SELFTEST
    return WORKLOADS[name]


def cli_seed(seed: int) -> int:
    return seed % CLI_SEEDS


def cli_args(workload: Workload, command: str, root: str, out_dir: str,
             seed: int) -> list[str]:
    """Arguments of one `boxgas <command>` call, as a user types them."""
    args = [command, "--out", out_dir, "--quiet", "--seed", str(seed)]
    if workload.config is not None:
        args += ["--config", f"{root}/{workload.config}"]
    for item in workload.overrides:
        args += ["--set", item]
    return args


def seed_key(command: str, seed: int) -> str:
    return str(seed) if command in SEEDED_COMMANDS else "*"
