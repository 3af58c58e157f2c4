"""Closed moment evolution on the generalized Gibbs manifold.

The moment set is the kinetic cell energy and the cell mass in every cell.
Both are one-body operators, carried as their n x n mode kernels, and the
generator maps each moment to the one- and two-body kernels of its image;
the interaction enters through the generator coefficients only.  Time
stepping integrates the moments with classical RK4 and re-fits the Lagrange
fields at every stage after the first, so the state never leaves the
manifold: each fit starts from the state the previous one reached, and a
step starts from the fit that ended the step before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockBasis
from .gibbs import (
    ConstraintSet,
    FitError,
    GibbsState,
    LagrangeFields,
    TwoBodyKernels,
    cell_kernel_family,
    entropy,
    gibbs_state,
    maxent_fit,
)
from .generator import GeneratorCoefficients, reduced_images

SINGULAR_RATIO = 1e-13
MAX_HALVINGS = 10


class ClosureSystem:
    """Cell moments driven by the coarse-grained generator.

    The moments are one-body, so `family` (a `CellKernels`) holds their n x n
    kernels: the Gibbs states, values and susceptibilities come from the
    eigenpairs of one kernel.  `rate_kernels` holds the one- and two-body
    kernels of the generator images of the same `kernels`, so the moment
    rates tr(W L'(K)) come from those eigenpairs too, through the mode
    occupations and their correlations.
    """

    def __init__(self, basis: FockBasis, modes, grid, coeffs: GeneratorCoefficients,
                 fields: LagrangeFields):
        if fields.n_cells != grid.n_cells:
            raise ValueError("field cell count does not match the grid")
        if basis.n_modes != coeffs.n_modes or basis.statistics is not coeffs.statistics:
            raise ValueError("basis does not match the coefficient set")
        self.basis = basis
        self.modes = modes
        self.grid = grid
        self.coeffs = coeffs
        self.fields = fields
        self.family = cell_kernel_family(basis, modes, grid)
        self.kernels = self.family.kernels
        self.labels = tuple(f"energy[{c}]" for c in range(grid.n_cells)) + tuple(
            f"mass[{c}]" for c in range(grid.n_cells))
        self.tau0 = coeffs.tau0
        self.rate_kernels = TwoBodyKernels(*reduced_images(coeffs, self.kernels),
                                           coeffs.statistics)

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def state_for(self, fields: LagrangeFields) -> GibbsState:
        return gibbs_state(self.basis, self.family, fields)


class RhsReport(NamedTuple):
    moment_rates: np.ndarray
    condition: float
    chi: np.ndarray


def closure_rhs(sys: ClosureSystem, state: GibbsState | None = None) -> RhsReport:
    """Moment rates b and the response matrix chi at a Gibbs state of the
    system (default: the state of `sys.fields`); chi must be regular, so
    that (-chi) dlambda/dt = b fixes the multiplier rates.  The condition
    number of chi is reported."""
    state = sys.state_for(sys.fields) if state is None else state
    b = sys.rate_kernels.values(state)
    chi = sys.family.chi(state)
    evals, vecs = np.linalg.eigh(chi)
    top = float(evals[-1])
    if evals[0] < SINGULAR_RATIO * top:
        null = vecs[:, 0]
        terms = " + ".join(
            f"({null[i]:+.3f})*{sys.labels[i]}"
            for i in range(null.size) if abs(null[i]) > 0.2 * np.abs(null).max()
        )
        raise ValueError(
            f"singular response matrix; null-space combination {terms}"
        )
    return RhsReport(b, float(top / evals[0]), chi)


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    times: np.ndarray
    fields: tuple
    moments: np.ndarray
    entropies: np.ndarray
    mass_total: np.ndarray
    energy_total: np.ndarray
    energy_rates: np.ndarray
    conditions: np.ndarray
    fit_residuals: np.ndarray
    labels: tuple

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def _fit(sys: ClosureSystem, moments: np.ndarray, warm: GibbsState, chi=None):
    n = sys.n_cells
    return maxent_fit(sys.basis, sys.family, ConstraintSet(moments[:n], moments[n:]),
                      init=warm, chi=chi)


def _fitted_rate(sys: ClosureSystem, moments: np.ndarray, warm: GibbsState, chi=None):
    fit = _fit(sys, moments, warm, chi)
    return sys.rate_kernels.values(fit.state), fit


def _rk4_step(sys: ClosureSystem, start: tuple[GibbsState, RhsReport], moments: np.ndarray,
              step: float):
    """One RK4 step from `start`, a state that meets `moments` and its `closure_rhs`
    report: the report's moment rates are k1, and its chi seeds the stage-2 fit."""
    state, rep = start
    k1 = rep.moment_rates
    k2, f2 = _fitted_rate(sys, moments + 0.5 * step * k1, state, rep.chi)
    k3, f3 = _fitted_rate(sys, moments + 0.5 * step * k2, f2.state)
    k4, f4 = _fitted_rate(sys, moments + step * k3, f3.state)
    new_moments = moments + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _fit(sys, new_moments, f4.state), new_moments


def integrate(sys: ClosureSystem, t_span: float, dt: float) -> StateTrajectory:
    """RK4 on the cell moments with a maxent re-fit at every stage after the first.

    Each step ends with a fit to its new moments; that state and its
    `closure_rhs` report open the next step, so every accepted step makes
    four fits.  The first step opens at the state of `sys.fields`.

    The step must respect the coarse-graining window: dt >= 5 tau0 (hard
    error) and dt <= t_span / 4.  Rejected steps are halved, never past the
    window floor and at most ten times, then the run aborts.  Only a failed
    maximum-entropy fit (FitError) rejects a step; any other error propagates.
    """
    if t_span <= 0.0 or dt <= 0.0:
        raise ValueError("t_span and dt must be positive")
    floor = 5.0 * sys.tau0 if math.isfinite(sys.tau0) else 0.0
    if dt < floor:
        raise ValueError(
            f"dt {dt:g} is below the coarse-grained floor 5*tau0 = {floor:g}"
        )
    if dt > t_span / 4.0:
        raise ValueError("dt must fit at least four steps into t_span")
    state = sys.state_for(sys.fields)
    moments = sys.family.values(state)
    rep = closure_rhs(sys, state)
    start = (state, rep)
    rows = [_trajectory_row(sys, 0.0, sys.fields, moments, state, rep, 0.0)]
    t = 0.0
    while t < t_span * (1.0 - 1e-12):
        step = min(dt, t_span - t)
        halvings = 0
        while True:
            try:
                fit, moments = _rk4_step(sys, start, moments, step)
                break
            except FitError as exc:
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise ValueError(
                        f"step rejection cascade at t = {t:g} "
                        f"(more than {MAX_HALVINGS} halvings): {exc}"
                    ) from exc
                if floor > 0.0 and step / 2.0 < floor:
                    raise ValueError(
                        f"step rejection at t = {t:g} cannot halve below the "
                        f"coarse-grained floor {floor:g}: {exc}"
                    ) from exc
                step /= 2.0
        t += step
        rep = closure_rhs(sys, fit.state)
        start = (fit.state, rep)
        rows.append(_trajectory_row(sys, t, fit.fields, moments, fit.state, rep,
                                    fit.residual_norms[-1]))
    times, fields, *columns = zip(*rows)
    return StateTrajectory(np.array(times), fields, *map(np.array, columns), labels=sys.labels)


def _trajectory_row(sys: ClosureSystem, t: float, fields: LagrangeFields, moments: np.ndarray,
                    state: GibbsState, rep: RhsReport, residual: float) -> tuple:
    """One time of a `StateTrajectory`: its fields, but `labels`, in the order they are declared."""
    n = sys.n_cells
    return (t, fields, moments, entropy(state),
            float(moments[n:].sum()), float(moments[:n].sum()),
            float(rep.moment_rates[:n].sum()), rep.condition, residual)


def trajectory_table(traj: StateTrajectory):
    """Column header and float rows for a time-series file."""
    header = ["time"]
    header.extend(f"lambda_{label}" for label in traj.labels)
    header.extend(f"moment_{label}" for label in traj.labels)
    header.extend(["entropy", "mass_total", "energy_total", "energy_rate",
                   "rhs_condition", "fit_residual"])
    rows = []
    for i in range(traj.times.size):
        row = [float(traj.times[i])]
        row.extend(float(x) for x in traj.fields[i].multipliers)
        row.extend(float(x) for x in traj.moments[i])
        row.extend([float(traj.entropies[i]), float(traj.mass_total[i]),
                    float(traj.energy_total[i]), float(traj.energy_rates[i]),
                    float(traj.conditions[i]), float(traj.fit_residuals[i])])
        rows.append(row)
    return header, rows
