"""Generalized Gibbs states on cell observables and maximum-entropy fitting.

States have the form exp(-K)/Z with K = sum_c beta_c (E_c - mu_c N_c), a
weighted sum of cell energy and mass operators: the multipliers
(beta_c, -beta_c mu_c) of those operators are the whole field set.  A constraint family supplies the states, values and
susceptibilities of one stack of constraints: `CellObservables` holds the
operators in number-sector blocks and diagonalises each block of K;
`CellKernels` holds one-body n x n kernels, so K = dGamma(k) and every
quantity follows from one eigendecomposition of k.  `TwoBodyKernels` reads
operators of at most two bodies at such states from the same eigenpairs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fieldmodel import (
    MASS,
    CellGrid,
    cell_kernels,
    energy_density_op,
    mass_density_op,
)
from .fock import FockBasis, Statistics, pair_matrix_from_tensor
from .matrixutil import BlockDiagonal, require_hermitian

FIT_TOL = 1e-8
MAX_ITER = 200
CHI_PSD_TOL = 1e-10
STEP_CAP = 1e8
IMAG_TOL = 1e-9


class FitError(ValueError):
    """A maximum-entropy fit failed to meet its targets; a closer start may succeed."""


@dataclass(frozen=True, eq=False)
class LagrangeFields:
    """The Lagrange multipliers y = (beta_c, -beta_c mu_c) of the exponent
    K = sum_c beta_c (E_c - mu_c N_c) over (energy, mass), one pair per cell.

    The fit and the closure work on y itself, so y is the data; the inverse
    temperature beta and the chemical potential mu = -y_mass/beta are read
    from it.
    """

    multipliers: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.multipliers, dtype=float)
        if y.ndim != 1 or y.size % 2:
            raise ValueError("multipliers must hold one (beta, -beta mu) pair per cell")
        if not np.isfinite(y).all():
            raise ValueError("fields must be finite")
        if (y[:y.size // 2] <= 0.0).any():
            raise ValueError("beta must be positive in every cell")
        object.__setattr__(self, "multipliers", y)

    @classmethod
    def from_beta_mu(cls, beta, mu) -> LagrangeFields:
        beta = np.asarray(beta, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if beta.ndim != 1 or mu.shape != beta.shape:
            raise ValueError("field arrays must share one entry per cell")
        return cls(np.concatenate([beta, -beta * mu]))

    @property
    def n_cells(self) -> int:
        return self.multipliers.size // 2

    @property
    def beta(self) -> np.ndarray:
        return self.multipliers[:self.n_cells]

    @property
    def mu(self) -> np.ndarray:
        return -self.multipliers[self.n_cells:] / self.beta


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Per-cell energy and mass targets."""

    energy: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        energy = np.asarray(self.energy, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if energy.ndim != 1 or mass.shape != energy.shape:
            raise ValueError("energy and mass targets must share one entry per cell")
        if not (np.isfinite(energy).all() and np.isfinite(mass).all()):
            raise ValueError("targets must be finite")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "mass", mass)

    @property
    def n_cells(self) -> int:
        return self.energy.size


@dataclass(frozen=True, eq=False)
class CellObservables:
    """Cell energy and mass operators as the block constraint family.

    `blocks` holds the operators in number-sector blocks, stacked as
    energy[c], then mass[c]: the operators conjugate to
    `LagrangeFields.multipliers`.  Every block is checked hermitian here, once, so
    the real combinations that a fit diagonalises need no check of their own.
    """

    blocks: BlockDiagonal

    def __post_init__(self):
        for i, op in enumerate(self.blocks):
            for block in op.blocks:
                require_hermitian(block, name=f"constraint operator {i}")

    @property
    def n_cells(self) -> int:
        return len(self.blocks) // 2

    @property
    def dim(self) -> int:
        return self.blocks.dim

    @cached_property
    def mass_bounds(self) -> np.ndarray:
        """(lowest, highest) eigenvalue of each cell mass operator, per sector block."""
        bounds = np.empty((self.n_cells, 2))
        for c in range(self.n_cells):
            evals = np.concatenate([np.linalg.eigvalsh(b) for b
                                    in self.blocks[self.n_cells + c].blocks])
            bounds[c] = evals.min(), evals.max()
        return bounds

    def total_energy_levels(self) -> np.ndarray:
        """Eigenvalues of sum_c E_c, one eigvalsh per sector block, in the
        sectors' basis order."""
        return np.concatenate([np.linalg.eigvalsh(b[:self.n_cells].sum(axis=0))
                               for b in self.blocks.blocks])

    def state(self, y: np.ndarray, fields: LagrangeFields | None = None) -> GibbsState:
        return _sector_gibbs(self.blocks.combine(y), fields)

    def values(self, state: GibbsState) -> np.ndarray:
        return real_values(self.blocks.trace_with(state.weight_blocks))

    def chi(self, state: GibbsState) -> np.ndarray:
        return chi_matrix(state, self.blocks)


@dataclass(frozen=True, eq=False)
class CellKernels:
    """Cell energy and mass as one-body kernels: the mode constraint family.

    `kernels[i]` is the n x n kernel of constraint i, stacked like
    `CellObservables.blocks`, so every exponent is K = dGamma(k) with
    k = sum_i y_i kernels[i], and each state comes from one eigendecomposition
    k = U diag(eps) U^dagger (`_kernel_gibbs`).  With s the occupation
    rows of the basis, p their probabilities, nbar = p s and a_i =
    U^dagger kernels[i] U, constraint i has the value sum_j a_i[j, j] nbar[j];
    `chi` reads the susceptibility off nbar and C = s^T diag(p) s, which the
    state holds (`GibbsState.mode_occupations`, `.mode_correlations`).  No
    sector block is diagonalised.  Every kernel is checked hermitian here,
    once, so the real combinations that a fit diagonalises need no check of
    their own.  The spectrum of a state built here carries `kernels`, and
    keeps the rotated stack a_i once it is formed (`ModeSpectrum.rotated`),
    so `values` and `chi` at one state rotate the stack once between them.
    """

    basis: FockBasis
    kernels: np.ndarray

    def __post_init__(self):
        for i, kernel in enumerate(self.kernels):
            require_hermitian(kernel, name=f"constraint kernel {i}")

    @cached_property
    def _flat(self) -> np.ndarray:
        return self.kernels.reshape(len(self.kernels), -1)

    @property
    def n_cells(self) -> int:
        return len(self.kernels) // 2

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def mass_bounds(self) -> np.ndarray:
        """(lowest, highest) eigenvalue of each cell mass operator: the extreme
        occupation rows s . eigvalsh(kernel)."""
        bounds = np.empty((self.n_cells, 2))
        for c in range(self.n_cells):
            levels = self.basis.occupations @ np.linalg.eigvalsh(self.kernels[self.n_cells + c])
            bounds[c] = levels.min(), levels.max()
        return bounds

    def total_energy_levels(self) -> np.ndarray:
        """Eigenvalues of sum_c E_c = dGamma(sum_c k_E): the occupation rows
        s . eigvalsh(sum_c k_E), in basis order."""
        return self.basis.occupations @ np.linalg.eigvalsh(self.kernels[:self.n_cells].sum(axis=0))

    def state(self, y: np.ndarray, fields: LagrangeFields | None = None) -> GibbsState:
        n = self.basis.n_modes
        return _kernel_gibbs(self.basis, (np.asarray(y, dtype=float) @ self._flat).reshape(n, n),
                             fields, self.kernels)

    def _spectrum(self, state: GibbsState) -> ModeSpectrum:
        """The state's spectrum, carrying this family's kernels: as it is for a
        state built here, else a copy that rotates them afresh."""
        spectrum = state.spectrum
        if spectrum.kernels is self.kernels:
            return spectrum
        return ModeSpectrum(spectrum.basis, spectrum.energies, spectrum.vectors, self.kernels)

    def values(self, state: GibbsState) -> np.ndarray:
        return self._spectrum(state).rotated_diagonal @ state.mode_occupations

    def chi(self, state: GibbsState) -> np.ndarray:
        """Kubo-Mori susceptibility over the kernels, from the occupation moments.

        The diagonal parts give sum_jk a_c[j, j] a_d[k, k] (C_jk - nbar_j nbar_k),
        C = s^T diag(p) s.  A hop a_c[i, j] a_d[j, i], i != j, moves a particle
        from mode j to mode i; over the pairs of rows it joins, the Kubo-Mori
        kernel sums to phi(eps_i - eps_j) (nbar_j +- C_ij), with
        phi(x) = (1 - e^-x)/x, + for Bose and - for Fermi.  Detailed balance
        makes this equal to phi(eps_j - eps_i) (nbar_i +- C_ij), and each pair
        is read on the side where the gap is >= 0, so phi stays in (0, 1].
        """
        nbar, corr = state.mode_occupations, state.mode_correlations
        spectrum = self._spectrum(state)
        a, diag = spectrum.rotated, spectrum.rotated_diagonal
        chi = diag @ (corr - nbar[:, None] * nbar) @ diag.T
        eps = spectrum.energies
        gap = eps[:, None] - eps
        # phi(|gap|) = expm1(-|gap|)/(-|gap|), and 1 where the gap closes
        drop = -np.abs(gap)
        phi = np.ones_like(drop)
        np.divide(np.expm1(drop), drop, out=phi, where=drop < 0.0)
        source = np.where(gap >= 0.0, nbar, nbar[:, None])
        if self.basis.statistics is Statistics.BOSE:
            hop = phi * (source + corr)
        else:
            hop = phi * (source - corr)
        np.fill_diagonal(hop, 0.0)
        m = len(a)
        chi = chi + (a * hop).reshape(m, -1) @ a.transpose(0, 2, 1).reshape(m, -1).T
        return (0.5 * (chi + chi.conj().T)).real


ConstraintFamily = CellObservables | CellKernels


class _TotalLevels(NamedTuple):
    """The box totals sum_c E_c and sum_c M_c as a constraint family on fixed levels.

    Every operator conserves number and the cell masses sum to MASS N, so the
    two totals commute: `levels[:, i]` holds the total energy and the mass of
    common eigenvector i.  A state exp(-(y0 E + y1 M))/Z is a Boltzmann weight
    over these levels, its values are their two means, and chi is their
    covariance, which is the Kubo-Mori susceptibility of commuting operators.
    Its states carry no spectrum: only the fit's multipliers are kept.
    """

    levels: np.ndarray

    def state(self, y: np.ndarray) -> GibbsState:
        return _boltzmann(y @ self.levels, None, None)

    def values(self, state: GibbsState) -> np.ndarray:
        return self.levels @ state.probabilities

    def chi(self, state: GibbsState) -> np.ndarray:
        centred = self.levels - self.values(state)[:, None]
        return (centred * state.probabilities) @ centred.T


class TwoBodyKernels:
    """Operators dGamma(k1) + `two_body_operator`(k2) read at Gibbs states of one-body exponents.

    `one_body` (m, n, n) holds the kernels k1 and `two_body` (m, P, P) the
    pair matrices k2 over `pair_format`, as `reduced_images` gives them.
    Such a state is diagonal in the occupation rows s of its eigenmodes
    (`ModeSpectrum`).  With G = C - diag(nbar) and X[(l, f), a] =
    conj(U[l, a]) U[f, a], operator i has the value k1 . X nbar
    + 1/2 sum_pq k2[p, q] F2[p, q]: F = X (2G - diag G) X^T, laid out as
    [l1, l2, f2, f1], is the two-body tensor of the pair correlations, and F2
    its `pair_matrix_from_tensor` projection.
    """

    def __init__(self, one_body: np.ndarray, two_body: np.ndarray, statistics: Statistics):
        m, n = one_body.shape[:2]
        self.one_body = one_body.reshape(m, n * n)
        self.two_body = two_body.reshape(m, two_body.shape[1] * two_body.shape[2])
        self.statistics = statistics

    def values(self, state: GibbsState) -> np.ndarray:
        u = state.spectrum.vectors
        n = u.shape[0]
        x = (u.conj()[:, None, :] * u[None, :, :]).reshape(n * n, n)
        nbar, corr = state.mode_occupations, state.mode_correlations
        # 2G - diag G with G = C - diag(nbar): 2C off the diagonal, C - nbar on it
        folded = 2.0 * corr
        np.fill_diagonal(folded, corr.diagonal() - nbar)
        tensor = ((x @ folded) @ x.T).reshape(n, n, n, n).transpose(0, 2, 3, 1)
        f2 = pair_matrix_from_tensor(tensor, self.statistics)
        values = self.one_body @ (x @ nbar) + 0.5 * (self.two_body @ f2.ravel())
        return real_values(values, "two-body kernel value")


def cell_observables(basis: FockBasis, modes, grid: CellGrid, potential,
                     order: int = 8) -> CellObservables:
    cells = range(grid.n_cells)
    return CellObservables(BlockDiagonal.stack(
        [energy_density_op(basis, modes, grid, c, potential, order=order) for c in cells]
        + [mass_density_op(basis, modes, grid, c) for c in cells]))


def cell_kernel_family(basis: FockBasis, modes, grid: CellGrid) -> CellKernels:
    """The kinetic cell energies and the cell masses as one-body kernels."""
    per_cell = [cell_kernels(modes, grid, c) for c in range(grid.n_cells)]
    return CellKernels(basis, np.array([e for e, _ in per_cell] + [m for _, m in per_cell]))


def targets_vector(targets: ConstraintSet) -> np.ndarray:
    return np.concatenate([targets.energy, targets.mass])


class SectorSpectrum(NamedTuple):
    """Eigenvector blocks of a block-diagonal exponent, one eigh per block."""

    exponent: BlockDiagonal
    vector_blocks: tuple

    @property
    def slices(self) -> tuple:
        return self.exponent.slices


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Eigenpairs of the exponent dGamma(k), read off k = U diag(energies) U^dagger.

    U is `vectors`.  Row m of the basis stands for the eigenvector of
    dGamma(k) that has occupations states[m] in the eigenmodes of k, with
    eigenvalue states[m] . energies.  No Fock-space vector is built.
    `kernels`, when given, is the stack of a `CellKernels` family that built
    the state; the spectrum then keeps that stack in its eigenmodes.
    """

    basis: FockBasis
    energies: np.ndarray
    vectors: np.ndarray
    kernels: np.ndarray | None = None

    @cached_property
    def rotated(self) -> np.ndarray:
        """The kernels in the eigenmodes, U^dagger k_i U."""
        u = self.vectors
        return u.conj().T @ self.kernels @ u

    @cached_property
    def rotated_diagonal(self) -> np.ndarray:
        """The real diagonals of `rotated`, one row per kernel."""
        return self.rotated.diagonal(0, 1, 2).real


@dataclass(frozen=True, eq=False)
class GibbsState:
    """exp(-K)/Z kept per diagonal block of K (the number sectors).

    `spectrum` is a `SectorSpectrum` or a `ModeSpectrum`.  Over a
    `SectorSpectrum`, `probabilities[s]` and `vector_blocks[i]` are the
    eigenpairs of K on the block `s = spectrum.slices[i]`, grouped by block;
    `weight_blocks` holds the weight over the same blocks, and the dense
    `weight` is assembled from the blocks on first use.  A `ModeSpectrum`
    state holds no Fock-space matrix: `probabilities` follow its occupation
    rows, and it is read through the mode occupations and their correlations.
    """

    fields: LagrangeFields | None
    log_z: float
    probabilities: np.ndarray
    spectrum: SectorSpectrum | ModeSpectrum

    @property
    def vector_blocks(self) -> tuple:
        return self.spectrum.vector_blocks

    @cached_property
    def mode_occupations(self) -> np.ndarray:
        """nbar = p s over the occupation rows s of a `ModeSpectrum` state."""
        return self.probabilities @ self.spectrum.basis.occupations

    @cached_property
    def mode_correlations(self) -> np.ndarray:
        """C = s^T diag(p) s, the <n_a n_b> of a `ModeSpectrum` state."""
        s = self.spectrum.basis.occupations
        return (s.T * self.probabilities) @ s

    def with_fields(self, fields: LagrangeFields) -> GibbsState:
        """This state labelled with `fields`; what it has already read (the
        mode moments, the weight blocks) stays with it."""
        labelled = copy.copy(self)
        object.__setattr__(labelled, "fields", fields)
        return labelled

    @cached_property
    def weight_blocks(self) -> BlockDiagonal:
        slices = self.spectrum.slices
        return BlockDiagonal(slices, tuple(
            (v * self.probabilities[s]) @ v.conj().T
            for s, v in zip(slices, self.vector_blocks)))

    @cached_property
    def weight(self) -> np.ndarray:
        return self.weight_blocks.dense()


def _boltzmann(levels: np.ndarray, fields: LagrangeFields | None, spectrum) -> GibbsState:
    """Probabilities exp(-level)/Z, shifted by the lowest level against overflow;
    ln Z is the log-sum-exp of -level with the same shift."""
    low = levels.min()
    shifted = np.exp(low - levels)
    total = shifted.sum()
    return GibbsState(fields, float(np.log(total) - low), shifted / total, spectrum)


def gibbs_from_operator(k: BlockDiagonal, fields: LagrangeFields | None = None) -> GibbsState:
    """exp(-k)/Z by spectral calculus per block, shift-guarded against overflow.

    `k` is a hermitian BlockDiagonal over number sectors.  Probabilities are
    normalised over all blocks.
    """
    for block in k.blocks:
        require_hermitian(block, name="exponent")
    return _sector_gibbs(k, fields)


def _sector_gibbs(k: BlockDiagonal, fields: LagrangeFields | None = None) -> GibbsState:
    pairs = [np.linalg.eigh(block) for block in k.blocks]
    return _boltzmann(np.concatenate([e for e, _ in pairs]), fields,
                      SectorSpectrum(k, tuple(v for _, v in pairs)))


def _kernel_gibbs(basis: FockBasis, k: np.ndarray, fields: LagrangeFields | None,
                  kernels: np.ndarray | None = None) -> GibbsState:
    """exp(-dGamma(k))/Z from one eigendecomposition k = U diag(eps) U^dagger.

    The basis truncates only the total number, so the mode rotation Gamma(U)
    maps it onto itself: row m of `basis.states` stands for an eigenvector of
    dGamma(k) with eigenvalue states[m] . eps.  `kernels` goes to the
    spectrum (`ModeSpectrum`).
    """
    energies, vectors = np.linalg.eigh(k)
    return _boltzmann(basis.occupations @ energies, fields,
                      ModeSpectrum(basis, energies, vectors, kernels))


def _check_basis(basis: FockBasis, obs: ConstraintFamily) -> None:
    if obs.dim != basis.dim:
        raise ValueError("observables were built on a different basis")


def gibbs_state(basis: FockBasis, obs: ConstraintFamily, fields: LagrangeFields) -> GibbsState:
    """The Gibbs state of `fields` over a constraint family."""
    _check_basis(basis, obs)
    if fields.n_cells != obs.n_cells:
        raise ValueError("field cell count does not match the observables")
    return obs.state(fields.multipliers, fields)


def real_values(values, name: str = "expectation") -> np.ndarray:
    """Real parts of traces against hermitian operators; a non-real one is rejected."""
    values = np.asarray(values)
    bad = np.flatnonzero(np.abs(values.imag) > IMAG_TOL * (1.0 + np.abs(values)))
    if bad.size:
        raise ValueError(f"{name} has imaginary part {values.imag.flat[bad[0]]:.3e}")
    return values.real


def expectation(state: GibbsState, op: BlockDiagonal) -> float:
    """Tr(w A) for hermitian A in the state's blocks; rejects a non-real trace."""
    return float(real_values(op.trace_with(state.weight_blocks)))


def constraint_values(state: GibbsState, obs: ConstraintFamily):
    """Energy and mass expectations per cell, over a constraint family."""
    values = obs.values(state)
    return values[:obs.n_cells], values[obs.n_cells:]


def entropy(state: GibbsState) -> float:
    """Von Neumann entropy -sum p ln p of a Gibbs state, with 0 ln 0 = 0; k = 1 internally."""
    probs = state.probabilities
    positive = probs[probs > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def _km_kernel(probs: np.ndarray) -> np.ndarray:
    """Pairwise (p - q)/(ln p - ln q) with the diagonal limit p."""
    p = np.asarray(probs, dtype=float)
    logs = np.log(np.maximum(p, 1e-300))
    num = p[:, None] - p[None, :]
    den = logs[:, None] - logs[None, :]
    geo = np.sqrt(np.outer(p, p))
    small = np.abs(den) < 2e-6
    series = geo * (1.0 + (den * den) / 24.0)
    return np.where(small, series, num / np.where(small, 1.0, den))


def chi_matrix(state: GibbsState, ops: BlockDiagonal) -> np.ndarray:
    """Symmetric susceptibility matrix over a stack of hermitian operators.

    The operators must share the blocks of the state's exponent: the
    Kubo-Mori transform runs per block and the correlations are summed.
    """
    m = len(ops)
    corr = 0.0
    vectors = BlockDiagonal(state.spectrum.slices, state.vector_blocks)
    for s, (vecs, block) in zip(ops.slices, vectors.pairs(ops)):
        t = vecs.conj().T @ block @ vecs
        weighted = _km_kernel(state.probabilities[s]) * t
        corr = corr + weighted.reshape(m, -1) @ t.transpose(0, 2, 1).reshape(m, -1).T
    means = ops.trace_with(state.weight_blocks)
    chi = corr - np.outer(means, means)
    chi = 0.5 * (chi + chi.conj().T)
    return chi.real


class FitResult(NamedTuple):
    fields: LagrangeFields
    state: GibbsState
    iterations: int
    residual_norms: list


def _dual_value(log_z: float, y: np.ndarray, targets: np.ndarray) -> float:
    return log_z + float(y @ targets)


def _newton_fit(family: ConstraintFamily, targets: np.ndarray, y0: np.ndarray, tol: float,
                max_iter: int, state: GibbsState | None = None,
                chi: np.ndarray | None = None) -> tuple[np.ndarray, GibbsState, int, list]:
    """Damped Newton on the dual potential ln Z + y . targets over a constraint family.

    `state` is the state at `y0` and `chi` its susceptibility, when the
    caller already holds them; neither is recomputed.  Each Newton step is
    halved until the dual does not rise, at most 40 times; FitError is
    raised when none of those trials keeps it from rising.
    """
    scales = np.maximum(1.0, np.abs(targets))
    y = np.asarray(y0, dtype=float).copy()
    trace = []
    if state is None:
        state = family.state(y)
    dual = _dual_value(state.log_z, y, targets)
    best = None
    for iteration in range(1, max_iter + 1):
        residual = family.values(state) - targets
        trace.append(float((np.abs(residual) / scales).max()))
        if trace[-1] <= tol:
            # one polish step past the tolerance sharpens the multipliers
            # (quadratic convergence), keeping field recovery well inside
            # the residual-implied bound even for ill-conditioned chi
            if best is not None or trace[-1] <= 1e-13:
                return y, state, iteration - 1, trace
            best = (y, state, trace[-1])
        elif best is not None:
            y_best, state_best, res_best = best
            trace.append(res_best)
            return y_best, state_best, iteration - 1, trace
        if chi is None:
            chi = family.chi(state)
        # one eigh of chi serves the PSD check and the step.  Each bound
        # below is negative, so a check whose left side is not negative
        # passes without forming it
        evals, vecs = np.linalg.eigh(chi)
        low = float(evals[0])
        if low < 0.0 and low < -CHI_PSD_TOL * max(1.0, float(np.abs(chi).max())):
            raise FitError(f"susceptibility matrix not positive semidefinite ({low:.3e})")
        # the pseudo-inverse over |lambda| > 1e-12 max|lambda| keeps
        # consistent-but-degenerate constraint sets workable (proportional
        # observables); inconsistent ones fail to converge.
        keep = np.abs(evals) > 1e-12 * max(-low, float(evals[-1]))
        kept = vecs[:, keep]
        step = kept @ ((residual @ kept) / evals[keep])
        slope = float(residual @ step)
        if slope < 0.0 and slope < -1e-12 * float(np.abs(residual) @ np.abs(step) + 1e-300):
            raise FitError("Newton direction failed the descent check")
        # Euclidean norms as np.linalg.norm takes them, sqrt(v . v)
        with np.errstate(over="ignore"):  # a step whose norm overflows is unbounded too
            unbounded = math.sqrt(step.dot(step)) > STEP_CAP * (1.0 + math.sqrt(y.dot(y)))
        if unbounded:
            raise FitError(
                "unbounded dual step: targets are infeasible for this observable set"
            )
        size = 1.0
        for _ in range(40):
            y_trial = y + size * step
            state_trial = family.state(y_trial)
            dual_trial = _dual_value(state_trial.log_z, y_trial, targets)
            if dual_trial <= dual + 1e-12 * max(1.0, abs(dual)):
                break
            size *= 0.5
        else:
            raise FitError(
                f"line search failed: 40 halvings of the Newton step did not lower "
                f"the dual potential {dual:.6e}"
            )
        y, state, dual, chi = y_trial, state_trial, dual_trial, None
    raise FitError(
        f"maximum-entropy fit did not converge in {max_iter} iterations; "
        f"last scaled residual {trace[-1]:.3e}"
    )


def _feasibility_check(obs: ConstraintFamily, targets: ConstraintSet) -> None:
    for c, (lo, hi) in enumerate(obs.mass_bounds):
        margin = 1e-9 * max(1.0, abs(hi))
        if not (lo - margin <= targets.mass[c] <= hi + margin):
            raise FitError(
                f"infeasible mass target {targets.mass[c]:.6g} for cell {c}: "
                f"attainable range [{lo:.6g}, {hi:.6g}]"
            )


def _totals_start(basis: FockBasis, obs: ConstraintFamily, targets: ConstraintSet,
                  max_iter: int) -> np.ndarray:
    """One (beta, -beta mu) fitted to the box totals, from the cold start (1e-2, 0).

    sum_c E_c is diagonalised once (`total_energy_levels`), and each level
    carries the mass MASS N of its sector; Newton then runs on these fixed
    levels (`_TotalLevels`).
    """
    mass = MASS * basis.occupations.sum(axis=1)
    totals = _TotalLevels(np.array([obs.total_energy_levels(), mass]))
    y2, _, _, _ = _newton_fit(totals, np.array([targets.energy.sum(), targets.mass.sum()]),
                              np.array([1e-2, 0.0]), tol=1e-6, max_iter=max_iter)
    return y2


def maxent_fit(basis: FockBasis, obs: ConstraintFamily, targets: ConstraintSet,
               init: LagrangeFields | GibbsState | None = None, tol: float = FIT_TOL,
               max_iter: int = MAX_ITER, chi: np.ndarray | None = None) -> FitResult:
    """Fit (beta, mu) per cell so the Gibbs state meets the cell targets.

    The type of the constraint family `obs` selects how the states are
    built.  A cold start first fits one (beta, mu) to the box totals on the
    fixed spectrum of the summed operators (`_totals_start`).  A warm
    start `init` is a set of fields or a Gibbs state of `obs` that carries
    its fields; such a state is not rebuilt, and `chi`, given only with a
    state, must be `obs.chi` at exactly that state.  Newton either meets
    `tol` or raises FitError.
    """
    _check_basis(basis, obs)
    if targets.n_cells != obs.n_cells:
        raise ValueError("target cell count does not match the observables")
    _feasibility_check(obs, targets)
    n = obs.n_cells
    warm = init if isinstance(init, GibbsState) else None
    if warm is not None:
        if warm.fields is None:
            raise ValueError("a warm-start state must carry its fields")
        init = warm.fields
    elif chi is not None:
        raise ValueError("chi seeds a fit only together with its warm-start state")
    if init is None:
        y = np.repeat(_totals_start(basis, obs, targets, max_iter), n)
    else:
        if init.n_cells != n:
            raise ValueError("initial fields cell count does not match")
        y = init.multipliers
    y, state, iterations, trace = _newton_fit(obs, targets_vector(targets), y,
                                              tol, max_iter, warm, chi)
    if (y[:n] <= 0.0).any():
        raise FitError("fit landed at a non-positive inverse temperature")
    fields = LagrangeFields(y)
    return FitResult(fields, state.with_fields(fields), iterations, trace)
