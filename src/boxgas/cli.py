"""Command-line runner: build the configured system, check it, leave artifacts.

Every subcommand reads one YAML config (defaults bundled), runs its piece of
the pipeline, writes a sorted-key report.json plus any tables into --out, and
exits 0 only when every asserted check passed. Numerical failures exit 1 with
the failing invariant named; configuration problems exit 2.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from typing import NamedTuple

import click
import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .fieldmodel import (
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    SoftLennardJones,
    Zero,
    hamiltonian,
    mode_energies,
    modes_from_numbers,
    potential_tensor,
)
from .fock import Statistics, build_basis, pair_matrix_from_tensor
from .generator import (
    Lprime,
    build_coefficients,
    conservation_report,
    negative_tau_witness,
    positivity_check,
)
from .gibbs import (
    ConstraintSet,
    LagrangeFields,
    cell_observables,
    gibbs_state,
    maxent_fit,
)
from .kinetics import ClosureSystem, integrate, trajectory_table
from .matrixutil import frob, hermiticity_defect
from .microsystem import (
    MicroModeSet,
    charge_defect,
    embed_joint,
    reduce_expectation,
)
from .scattering import (
    onshell_tmatrix,
    pair_basis,
    pair_energies,
)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class RunContext(NamedTuple):
    cfg: dict
    geom: BoxGeometry
    modes: list
    statistics: Statistics
    basis: object
    grid: CellGrid
    potential: object
    fields: LagrangeFields


def _potential_from_config(pcfg: dict):
    kind = pcfg["kind"]
    if kind == "none":
        return Zero()
    if kind == "contact":
        return Contact(pcfg["strength"])
    if kind == "gaussian":
        return Gaussian(pcfg["strength"], pcfg["range"])
    return SoftLennardJones(pcfg["strength"], pcfg["range"], pcfg["core"])


def _build_context(cfg: dict) -> RunContext:
    geom = BoxGeometry(tuple(float(x) for x in cfg["geometry"]["lengths"]))
    modes = modes_from_numbers(geom, [tuple(t) for t in cfg["modes"]["numbers"]])
    statistics = (Statistics.BOSE if cfg["basis"]["statistics"] == "bose"
                  else Statistics.FERMI)
    basis = build_basis(len(modes), cfg["basis"]["n_max"], statistics)
    grid = CellGrid(geom, tuple(cfg["grid"]["cells"]))
    potential = _potential_from_config(cfg["potential"])
    fields = LagrangeFields.from_beta_mu(cfg["fields"]["beta"], cfg["fields"]["mu"])
    return RunContext(cfg, geom, modes, statistics, basis, grid, potential, fields)


def _pair_matrix(ctx: RunContext) -> np.ndarray:
    """The whole-box interaction over `pair_basis`; `maxent` and `micro-demo`
    read only the cell tensors, so it is formed where it is read."""
    tensor = potential_tensor(ctx.modes, ctx.potential, ctx.geom,
                              order=ctx.cfg["potential"]["order"])
    return pair_matrix_from_tensor(tensor, ctx.statistics)


def _coefficients(ctx: RunContext):
    t_on = onshell_tmatrix(ctx.modes, _pair_matrix(ctx), ctx.statistics,
                           ctx.cfg["scattering"]["eps"])
    return build_coefficients(ctx.modes, t_on, ctx.statistics, ctx.cfg["generator"]["delta"])


def _observables(ctx: RunContext):
    return cell_observables(ctx.basis, ctx.modes, ctx.grid, ctx.potential,
                            order=ctx.cfg["potential"]["order"])


def _check(value: float, bound: float, passed: bool) -> dict:
    return {"value": float(value), "bound": float(bound), "passed": bool(passed)}


def _max_check(value: float, bound: float) -> dict:
    return _check(value, bound, value <= bound)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _write_report(out_dir: str, report: dict) -> None:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonable(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


class _CsvText:
    """A table body already formatted as csv.writer writes it: an iterable
    of text blocks, each a run of whole lines."""

    def __init__(self, blocks):
        self.blocks = blocks


def _write_table(out_dir: str, name: str, header, rows) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        if isinstance(rows, _CsvText):
            handle.writelines(rows.blocks)
        else:
            writer.writerows(rows)


def _versions() -> dict:
    return {
        "boxgas": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        # bit-identical reports hold for one BLAS thread count (README)
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def _execute(name: str, payload_fn, config_path, overrides, out_dir, seed, quiet):
    started = time.perf_counter()
    if seed is not None:
        # last, so it wins over --set, and validated like run.seed
        overrides = (*overrides, f"run.seed={seed}")
    try:
        cfg = load_config(config_path, overrides)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2)
    os.makedirs(out_dir, exist_ok=True)
    try:
        values, checks, tables = payload_fn(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2)
    except ValueError as exc:
        report = {
            "command": name,
            "passed": False,
            "error": str(exc),
            "config": cfg,
            "versions": _versions(),
            "checks": {},
            "values": {},
        }
        _write_report(out_dir, report)
        click.echo(f"numerical failure: {exc}", err=True)
        raise SystemExit(1)
    failed = sorted(k for k, c in checks.items() if not c["passed"])
    report = {
        "command": name,
        "passed": not failed,
        "config": cfg,
        "versions": _versions(),
        "checks": checks,
        "values": values,
    }
    _write_report(out_dir, report)
    for fname, (header, rows) in tables.items():
        _write_table(out_dir, fname, header, rows)
    if not quiet:
        for key in sorted(checks):
            c = checks[key]
            state = "PASS" if c["passed"] else "FAIL"
            click.echo(f"{state} {key}: value={c['value']:.6g} "
                       f"bound={c['bound']:.6g}")
    if failed:
        click.echo(f"failed invariant: {failed[0]}", err=True)
        raise SystemExit(1)
    if not quiet:
        # wall time stays off the report so identical runs write identical bytes
        click.echo(f"{name}: ok ({time.perf_counter() - started:.2f}s)")


def _common(f):
    f = click.option("--config", "config_path",
                     type=click.Path(exists=True, dir_okay=False),
                     default=None, help="YAML config file.")(f)
    f = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                     help="Override a config key (repeatable).")(f)
    f = click.option("--out", "out_dir", type=click.Path(file_okay=False),
                     default=".", help="Directory for report and tables.")(f)
    f = click.option("--seed", type=int, default=None,
                     help="Random seed override.")(f)
    f = click.option("--quiet", is_flag=True, help="Suppress check lines.")(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Box-gas workbench: build, check, fit, and evolve the configured system."""


# ---------------------------------------------------------------------------
# payloads


def _payload_modes(cfg):
    geom = BoxGeometry(tuple(float(x) for x in cfg["geometry"]["lengths"]))
    modes = modes_from_numbers(geom, [tuple(t) for t in cfg["modes"]["numbers"]])
    energies = mode_energies(modes)
    dim = len(geom.lengths)
    header = ["index"] + [f"n_{ax}" for ax in range(dim)] + ["energy"]
    rows = [[i, *mode.numbers, float(energies[i])] for i, mode in enumerate(modes)]
    values = {
        "n_modes": len(modes),
        "energy_min": float(energies.min()),
        "energy_max": float(energies.max()),
    }
    return values, {}, {"modes.csv": (header, rows)}


def _payload_build(cfg):
    ctx = _build_context(cfg)
    h = hamiltonian(ctx.basis, ctx.modes, _pair_matrix(ctx))
    defect = max(hermiticity_defect(block) for block in h.blocks)
    scale = max(h.norm(), 1.0)
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in h.blocks]))
    values = {
        "dimension": ctx.basis.dim,
        "n_modes": len(ctx.modes),
        "statistics": cfg["basis"]["statistics"],
        "ground_energy": float(evals[0]),
        "top_energy": float(evals[-1]),
        "lowest_levels": [float(e) for e in evals[: min(8, evals.size)]],
    }
    checks = {"hamiltonian_hermitian": _max_check(defect / scale, 1e-12)}
    rows = [[i, float(e)] for i, e in enumerate(evals)]
    return values, checks, {"spectrum.csv": (["index", "energy"], rows)}


def _payload_tmatrix(cfg):
    ctx = _build_context(cfg)
    pairs = pair_basis(len(ctx.modes), ctx.statistics)
    v_pair = _pair_matrix(ctx).astype(complex)  # as T is: frob of the real V rounds differently
    t_on = onshell_tmatrix(ctx.modes, v_pair, ctx.statistics, cfg["scattering"]["eps"])
    t_norm = frob(t_on)
    v_norm = frob(v_pair)
    energies = pair_energies(ctx.modes, pairs)
    # symmetry is an on-shell statement: equal-energy columns share one z
    onshell = np.abs(energies[:, None] - energies[None, :]) < 1e-9
    sym_defect = (frob((t_on - t_on.T) * onshell)
                  / max(frob(t_on * onshell), 1e-300))
    born_ratio = frob(t_on - v_pair) / v_norm if v_norm > 0 else 0.0
    values = {
        "n_pairs": len(pairs),
        "eps": cfg["scattering"]["eps"],
        "t_norm": float(t_norm),
        "v_norm": float(v_norm),
        "born_ratio": float(born_ratio),
    }
    checks = {"t_pair_symmetric": _max_check(sym_defect, 1e-10)}
    header = ["p", "q", "t_real", "t_imag", "v_real"]
    return values, checks, {"tmatrix.csv": (header, _CsvText(_tmatrix_text(t_on, v_pair)))}


_TABLE_CHUNK = 1 << 16


def _tmatrix_text(t_on, v_pair):
    """The lines (p, q, Re T, Im T, Re V) over every pair of pairs, as
    csv.writer formats them, in text blocks of whole p rows (about
    _TABLE_CHUNK entries each), so the table never holds all P^2 rows.

    T and V vanish between reflection-parity classes, so most entries are
    +0.0 in all three columns: their line tail is made once per q, and only
    the other entries (-0.0 among them) are formatted with repr.
    """
    n = len(t_on)
    zero_tails = [f"{q},0.0,0.0,0.0\r\n" for q in range(n)]
    step = max(1, _TABLE_CHUNK // max(n, 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        columns = (t_on[start:stop].real, t_on[start:stop].imag, v_pair[start:stop].real)
        formatted = np.zeros(columns[0].shape, dtype=bool)
        for column in columns:
            formatted |= (column != 0.0) | np.signbit(column)
        rows, cols = np.nonzero(formatted)
        tails = [list(zero_tails) for _ in range(stop - start)]
        for row, q, t_re, t_im, v_re in zip(rows.tolist(), cols.tolist(),
                                            *(c[formatted].tolist() for c in columns)):
            tails[row][q] = f"{q},{t_re!r},{t_im!r},{v_re!r}\r\n"
        yield "".join(f"{p}," + f"{p},".join(row_tails)
                      for p, row_tails in enumerate(tails, start))


def _payload_generator_check(cfg):
    ctx = _build_context(cfg)
    coeffs = _coefficients(ctx)
    lp = Lprime(ctx.basis, coeffs)
    cons = conservation_report(lp)
    gcfg = cfg["generator"]
    pos = positivity_check(lp, n_samples=gcfg["n_samples"],
                           tau_max=gcfg["tau_max"], seed=cfg["run"]["seed"])
    checks = {
        "mass_conservation": _max_check(cons.mass_residual, 1e-10),
        "positivity_min_real": _check(pos.min_real, -1e-10,
                                      pos.min_real > -1e-10),
        "positivity_max_imag": _max_check(pos.max_imag, 1e-10),
    }
    values = {
        "delta": coeffs.delta,
        "energy_residual": cons.energy_residual,
        "energy_streaming": cons.energy_streaming,
        "energy_collision": cons.energy_collision,
        "n_samples": pos.n_samples,
        "tau_max": pos.tau_max,
        "collision_time": coeffs.tau0 if math.isfinite(coeffs.tau0) else None,
    }
    # with no two-particle sector every channel vanishes, as at zero coupling.
    # The witness's families satisfy sum_k a_k psi_k = 0, and no jump acts on
    # them on one Bose mode (a psi = 0 leaves the vacuum) or on two Fermi modes
    # (c_0 psi_0 = -c_1 psi_1 gives c_1 c_0 psi_0 = c_1 c_0 psi_1 = 0).
    fewest_modes = 2 if ctx.statistics is Statistics.BOSE else 3
    if (ctx.basis.n_max >= 2 and len(ctx.modes) >= fewest_modes
            and frob(coeffs.jump) > 0.0):
        wit = negative_tau_witness(lp, seed=cfg["run"]["seed"])
        values["witness_tau"] = wit.tau
        values["witness_q"] = wit.q_value
        checks["negative_tau_witness"] = _check(wit.q_value, 0.0,
                                                wit.q_value < 0.0)
    return values, checks, {}


def _payload_maxent(cfg):
    ctx = _build_context(cfg)
    obs = _observables(ctx)
    mcfg = cfg["maxent"]
    target_cfg = mcfg["targets"]
    round_trip = target_cfg is None
    if round_trip:
        targets = ConstraintSet(obs.values(gibbs_state(obs, ctx.fields)))
    else:
        targets = ConstraintSet(np.concatenate([target_cfg["energy"], target_cfg["mass"]]))
    fit = maxent_fit(obs, targets, tol=mcfg["tol"], max_iter=mcfg["max_iter"])
    residual = fit.residual_norms[-1]
    checks = {"fit_residual": _max_check(residual, mcfg["tol"])}
    values = {
        "iterations": fit.iterations,
        "beta_fit": [float(b) for b in fit.fields.beta],
        "mu_fit": [float(m) for m in fit.fields.mu],
        "target_energy": [float(e) for e in targets.energy],
        "target_mass": [float(m) for m in targets.mass],
    }
    if round_trip:
        beta_err = float(np.max(np.abs(fit.fields.beta - ctx.fields.beta)))
        mu_err = float(np.max(np.abs(fit.fields.mu - ctx.fields.mu)))
        checks["round_trip_beta"] = _max_check(beta_err, 1e-6)
        checks["round_trip_mu"] = _max_check(mu_err, 1e-6)
    rows = [[i, float(r)] for i, r in enumerate(fit.residual_norms)]
    return values, checks, {"fit_trace.csv": (["iteration", "residual"], rows)}


def _payload_evolve(cfg):
    ctx = _build_context(cfg)
    coeffs = _coefficients(ctx)
    sys_ = ClosureSystem(ctx.basis, ctx.modes, ctx.grid, coeffs, ctx.fields)
    ecfg = cfg["evolve"]
    dt = ecfg["dt"]
    if dt is None:
        if not math.isfinite(sys_.tau0):
            raise ConfigError(
                "evolve.dt must be set explicitly when the collision time is "
                "infinite (zero coupling)")
        dt = ecfg["dt_factor"] * sys_.tau0
    t_span = ecfg["steps"] * dt
    traj = integrate(sys_, t_span=t_span, dt=dt)
    header, rows = trajectory_table(traj)
    betas = np.array([f.beta for f in traj.fields])
    contrast = betas.max(axis=1) - betas.min(axis=1)
    mass_drift = float(np.max(np.abs(traj.mass_total / traj.mass_total[0] - 1.0)))
    residual_max = float(np.max(traj.fit_residuals))
    checks = {
        "mass_conservation": _max_check(mass_drift, 1e-8),
        "fit_residual_max": _max_check(residual_max, 1e-8),
    }
    if ecfg["assert_monotone"]:
        # a contrast that is 0 at every step (one cell, or cells at one
        # temperature that stay so) has nothing to decay
        if contrast.any():
            worst_rise = float(np.max(np.diff(contrast))) if contrast.size > 1 else 0.0
            checks["beta_contrast_monotone"] = _check(worst_rise, 0.0,
                                                      worst_rise < 0.0)
        entropy_dip = float(np.min(np.diff(traj.entropies)))
        checks["entropy_non_decreasing"] = _check(entropy_dip, -1e-9,
                                                  entropy_dip >= -1e-9)
    values = {
        "n_steps": traj.n_steps,
        "dt": float(dt),
        "t_span": float(t_span),
        "collision_time": sys_.tau0 if math.isfinite(sys_.tau0) else None,
        "contrast_initial": float(contrast[0]),
        "contrast_final": float(contrast[-1]),
        "entropy_initial": float(traj.entropies[0]),
        "entropy_final": float(traj.entropies[-1]),
        "energy_total_initial": float(traj.energy_total[0]),
        "energy_total_final": float(traj.energy_total[-1]),
    }
    return values, checks, {"trajectory.csv": (header, rows)}


def _payload_micro_demo(cfg):
    ctx = _build_context(cfg)
    obs = _observables(ctx)
    state = gibbs_state(obs, ctx.fields)
    mset = MicroModeSet(cfg["micro"]["q_dim"])
    rng = np.random.default_rng(cfg["run"]["seed"])
    q = mset.q_dim
    m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    joint = embed_joint(state.weight, rho, mset)

    herm = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    herm = 0.5 * (herm + herm.conj().T)
    observables = [("identity", np.eye(q, dtype=complex)),
                   ("mode_0_occupation", np.diag([1.0 + 0.0j] + [0.0j] * (q - 1))),
                   ("random_hermitian", herm)]
    rows = []
    worst = 0.0
    for label, a in observables:
        reduced, full = reduce_expectation(a, joint)
        diff = abs(full - reduced)
        worst = max(worst, diff)
        rows.append([label, full.real, full.imag, reduced.real, reduced.imag,
                     diff])
    charge = charge_defect(joint)
    trace_defect = abs(float(np.trace(joint.weight).real) - 1.0)
    checks = {
        "reduction_identity": _max_check(worst, 1e-12),
        "charge_identity": _max_check(charge, 1e-12),
        "joint_trace": _max_check(trace_defect, 1e-12),
    }
    values = {
        "q_dim": q,
        "macro_dim": joint.macro_dim,
        "joint_dim": joint.weight.shape[0],
    }
    header = ["observable", "full_real", "full_imag", "reduced_real",
              "reduced_imag", "abs_diff"]
    return values, checks, {"micro.csv": (header, rows)}


# ---------------------------------------------------------------------------
# commands


def _register(name: str, payload_fn, short_help: str):
    @main.command(name=name, short_help=short_help)
    @_common
    def _cmd(config_path, overrides, out_dir, seed, quiet):
        _execute(name, payload_fn, config_path, overrides, out_dir, seed, quiet)

    _cmd.__name__ = f"cmd_{name.replace('-', '_')}"
    return _cmd


_register("modes", _payload_modes, "Tabulate the configured box modes.")
_register("build", _payload_build, "Assemble the Hamiltonian and summarize its spectrum.")
_register("tmatrix", _payload_tmatrix, "Solve the on-shell pair T matrix and compare with Born.")
_register("generator-check", _payload_generator_check,
          "Positivity sample and conservation residuals of the generator.")
_register("maxent", _payload_maxent, "Fit Lagrange fields to cell targets.")
_register("evolve", _payload_evolve, "Integrate the closed kinetic equations.")
_register("micro-demo", _payload_micro_demo,
          "Embed a tracked particle and verify the reduction identity.")


if __name__ == "__main__":
    main()
