"""Coarse-grained collision generator acting on the bilinear family a†_h a_k.

The generator is assembled from on-shell pair amplitudes: a hermitian
effective two-body interaction plus energy-smeared jump amplitudes whose
width delta sets the window inside which a pair collision counts as resonant.
Both are P x P matrices over the normalized pair states of `pair_format`, and
the channel operators are R_p = sum_q jump[p, q] A_q over the pair
annihilators A_q.  On two particles L' is the adjoint Lindblad generator with
the single jump matrix J = `jump` (Lindblad 1976; Breuer & Petruccione 2002,
ch. 3).  Observables in the family are n x n one-body kernels K, standing for
sum_hk K[h, k] a†_h a_k.  Every part of L' is at most two-body, so the image
of a kernel is fixed by a one-body kernel and a P x P pair matrix
(`reduced_images`); `Lprime` second-quantizes them onto the Fock space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fieldmodel import HBAR, MASS, hamiltonian, mode_energies
from .fock import (FockBasis, Statistics, _scatter, one_body_operator, pair_basis, pair_format,
                   pair_one_body)
from .fock import ladder_ops  # noqa: F401  (unused: perfbench/selftest.py patches it by this name)
from .matrixutil import BlockDiagonal
from .scattering import collision_time_estimate, pair_energies

SUPPORT_FACTOR = 4.0
MASS_TOL = 1e-10
POSITIVITY_TOL = 1e-10
WITNESS_TRIES = 64
# families per `family_form` call in `positivity_check`: bounds the stacked
# families and their sector images at large dims
_POSITIVITY_CHUNK = 32


def smearing_kernel(mismatch, delta: float):
    """Normalized Gaussian energy window, zeroed beyond SUPPORT_FACTOR * delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(mismatch, dtype=float)
    dense = np.exp(-0.5 * (x / delta) ** 2) / (delta * math.sqrt(2.0 * math.pi))
    return np.where(np.abs(x) <= SUPPORT_FACTOR * delta, dense, 0.0)


@dataclass(frozen=True, eq=False)
class GeneratorCoefficients:
    """Effective interaction, jump amplitudes, and the smearing width behind them.

    Every array is P x P over `pair_format`: `veff` = (T + T^dagger)/2 is the
    pair matrix of the effective interaction, and `jump` =
    sqrt(2 pi/hbar S(E_p - E_q)) o T, whose row p gives the channel operator
    R_p = sum_q jump[p, q] A_q of the outgoing pair p.  Of the on-shell matrix
    T itself only the collision time `tau0` = `collision_time_estimate`(T) is
    kept.  `gamma2` is the loss matrix Gamma2 = J^dagger J / 2, formed on
    first use.
    """

    modes: tuple
    statistics: Statistics
    veff: np.ndarray
    jump: np.ndarray
    delta: float
    tau0: float

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def gamma2(self) -> np.ndarray:
        gamma2 = 0.5 * (self.jump.conj().T @ self.jump)
        gamma2.setflags(write=False)
        return gamma2


def build_coefficients(modes, t_onshell: np.ndarray, statistics: Statistics,
                       delta: float) -> GeneratorCoefficients:
    if delta <= 0:
        raise ValueError("delta must be positive")
    modes = tuple(modes)
    pairs = pair_basis(len(modes), statistics)
    t_onshell = np.asarray(t_onshell, dtype=complex)
    if t_onshell.shape != (len(pairs), len(pairs)):
        raise ValueError(
            f"on-shell matrix shape {t_onshell.shape} does not match "
            f"{len(pairs)} pair states"
        )
    energies = pair_energies(modes, pairs)
    window = smearing_kernel(energies[:, None] - energies[None, :], delta)
    return GeneratorCoefficients(modes, statistics, 0.5 * (t_onshell + t_onshell.conj().T),
                                 np.sqrt((2.0 * np.pi / HBAR) * window) * t_onshell,
                                 float(delta), collision_time_estimate(t_onshell))


def _ordered_jumps(coeffs: GeneratorCoefficients) -> np.ndarray:
    """(n, n, P) rows C[l, k] = c_kl jump[p(k, l)] of the ordered channels
    R_kl = sum_q C[l, k, q] A_q, with p(k, l) the pair of modes k and l, and
    for k <= l c_kl = 1/n_p and c_lk = s/n_p, s the exchange sign: 1/n_p both
    ways for Bose, and for Fermi +1 when k < l, -1 when k > l and 0 when
    k = l (no such pair).  So sum_kl R_kl^dagger R_kl = 2 sum_p R_p^dagger R_p."""
    n, fmt = coeffs.n_modes, pair_format(coeffs.n_modes, coeffs.statistics)
    out = np.zeros((n, n, len(fmt.norms)), dtype=complex)
    out[fmt.q1, fmt.q2] = (fmt.sign / fmt.norms)[:, None] * coeffs.jump
    out[fmt.q2, fmt.q1] = (1.0 / fmt.norms)[:, None] * coeffs.jump
    return out


class Lprime:
    """Generator action on one-body kernels, with a streaming/collision split.

    Each image is dGamma(k1) plus sum_pq m[p, q] A_p^dagger A_q for P x P
    pair matrices m, scattered over the number sectors through the creator
    and pair creator maps of the basis (`fock._scatter`).  `h_eff` and the
    loss operator `gamma`, the scatter of the coefficients' Gamma2 =
    J^dagger J / 2 (one half of the channel-summed R_p^dagger R_p), are
    BlockDiagonal over the sectors.
    """

    def __init__(self, basis: FockBasis, coeffs: GeneratorCoefficients):
        if basis.n_modes != coeffs.n_modes or basis.statistics is not coeffs.statistics:
            raise ValueError("basis does not match the coefficient set")
        self.basis = basis
        self.coeffs = coeffs
        self.h_eff = hamiltonian(basis, coeffs.modes, coeffs.veff)
        self.gamma = _scatter(basis, coeffs.gamma2, 2)

    def parts(self, kernel: np.ndarray):
        """Streaming and collision images of sum_hk kernel[h, k] a†_h a_k: the
        two halves of `reduced_images`' pair form over the kernel's pair
        matrix K2, dGamma(k1) plus the scatter of its drift M = i V_eff / hbar
        alone, and the scatter of its drift M = -Gamma2 / hbar with the jump J."""
        kernel, w = np.asarray(kernel), mode_energies(self.coeffs.modes)
        k1 = (1j / HBAR) * (w[:, None] - w[None, :]) * kernel
        pair = pair_one_body(kernel, self.basis.statistics)
        stream, collision = (
            _scatter(self.basis, _lindblad_pair(pair, drift, drift.conj().T, jump), 2)
            for drift, jump in (((1j / HBAR) * self.coeffs.veff, None),
                                ((-1.0 / HBAR) * self.coeffs.gamma2, self.coeffs.jump)))
        return one_body_operator(self.basis, k1) + stream, collision

    def apply(self, kernel: np.ndarray) -> BlockDiagonal:
        """dGamma(k1) plus the scatter of k2, from `reduced_images` of the kernel."""
        (k1,), (k2,) = reduced_images(self.coeffs, np.asarray(kernel)[None])
        return one_body_operator(self.basis, k1) + _scatter(self.basis, k2, 2)

    def images(self, kernels) -> BlockDiagonal:
        """Images of a list of kernels, stacked in order."""
        return BlockDiagonal.stack(self.apply(kernel) for kernel in kernels)

    @cached_property
    def _family_maps(self) -> tuple:
        """Per sector N, the maps of a flattened family psi[:, N] (index (k, j)):
        the stacked lowerings sum_k a_k psi_k, sum_k a_k H_eff psi_k and
        sum_k a_k Gamma psi_k into sector N - 1, row t of each the row of 1,
        H_eff or Gamma at the column cols[t, k] of `FockBasis.creators` times
        amps[t, k], and the channels sum_k R_kl psi_k of `_ordered_jumps` into
        sector N - 2, written by index into a zeroed map at the columns of the
        pair creators that stay in the basis (a -1 column, clipped, could
        share its index with another, and one of two writes would be lost)."""
        jumps = _ordered_jumps(self.coeffs)
        (cols, amps), (pair_cols, pair_amps) = self.basis.creators, self.basis.pair_creators()
        n, sectors = self.basis.n_modes, self.basis.sectors
        maps = []
        for number, (s, h, gamma) in enumerate(zip(sectors, self.h_eff.blocks, self.gamma.blocks)):
            d = s.stop - s.start
            one, two = (sectors[number - k] if number >= k else slice(0, 0) for k in (1, 2))
            c = np.maximum(cols[one] - s.start, 0)
            lowered = np.stack([np.eye(d)[c], h[c], gamma[c]])
            lowered *= amps[one, :, None]
            row, pair = np.nonzero(pair_amps[two])
            channels = np.zeros((n, two.stop - two.start, n, d), dtype=complex)
            channels[:, row, :, pair_cols[two][row, pair] - s.start] = (
                jumps[:, :, pair] * pair_amps[two][row, pair]).transpose(2, 0, 1)
            maps.append((lowered.reshape(-1, n * d), channels.reshape(-1, n * d)))
        return tuple(maps)

    def family_form(self, psi: np.ndarray):
        """q0 = |sum_k a_k psi_k|^2, q1 = sum_hk <psi_h| L'(a†_h a_k) psi_k>
        and its gain part, for families psi of shape (..., n_modes, dim).

        Returns arrays of the leading shape of psi.  Sector by sector: one
        product lowers every family in sector N into phi, u = sum_k a_k H_eff
        psi_k and g = sum_k a_k Gamma psi_k in sector N - 1, and one more
        gives the channel images; each form is one dot product per family.
        """
        psi = np.asarray(psi)
        lead = psi.shape[:-2]
        psi = psi.reshape((-1,) + psi.shape[-2:])
        q0 = u_phi = g_phi = phi_gamma_phi = gain = 0.0
        gamma_below = np.zeros((0, 0))  # Gamma on sector N - 1, where phi lands
        for s, (lowering, channels), gamma in zip(self.basis.sectors, self._family_maps,
                                                  self.gamma.blocks):
            fam = psi[:, :, s].reshape(len(psi), -1)  # rows: families, columns (k, j)
            phi, u, g = (fam @ lowering.T).reshape(len(psi), 3, -1).transpose(1, 0, 2)
            q0 = q0 + _vdots(phi, phi).real
            u_phi = u_phi + _vdots(u, phi)
            g_phi = g_phi + _vdots(g, phi).real
            phi_gamma_phi = phi_gamma_phi + _vdots(phi, phi @ gamma_below.T)
            r = fam @ channels.T
            gain = gain + _vdots(r, r).real
            gamma_below = gamma
        gain = gain / HBAR
        # each conjugate pair <x, phi> + <phi, x> from one product
        stream = (1j / HBAR) * (2j * u_phi.imag)
        loss = (-1.0 / HBAR) * (2.0 * g_phi - 2.0 * phi_gamma_phi)
        return q0.reshape(lead), (stream + loss + gain).reshape(lead), gain.reshape(lead)


def _vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise <x_b, y_b>: one BLAS dot per row, as np.vdot takes for a single pair."""
    return (x.conj()[:, None, :] @ y[:, :, None])[:, 0, 0]


def reduced_images(coeffs: GeneratorCoefficients, kernels) -> tuple[np.ndarray, np.ndarray]:
    """k1 and k2 with L'(dGamma(K)) = dGamma(k1) + `two_body_operator`(k2) for each kernel K.

    Every part of L' is at most two-body, so the image is fixed by its one-
    and two-particle blocks.  On one particle only the streaming survives:
    k1 = (i/hbar)[diag w, K].  On two, L' is the adjoint Lindblad generator
    with Hamiltonian diag(E) + V_eff and jump matrix J, acting on the pair
    matrix K2 of dGamma(K) (`pair_one_body`); its diag(E) part is the pair
    matrix of dGamma(k1), so
    k2 = (i/hbar)[V_eff, K2] + (1/hbar)(J^dagger K2 J - 1/2 {J^dagger J, K2}),
    all P x P: `_lindblad_pair` with the drift M = (i V_eff - Gamma2) / hbar.
    Returns arrays of shape (m, n, n) and (m, P, P) for m kernels.
    """
    kernels = np.asarray(kernels)
    w = mode_energies(coeffs.modes)
    k1 = (1j / HBAR) * (w[:, None] - w[None, :]) * kernels
    jump = coeffs.jump
    drift = (1j * coeffs.veff - coeffs.gamma2) / HBAR
    drift_h = drift.conj().T
    k2 = np.empty((len(kernels),) + jump.shape, dtype=complex)
    for out, kernel in zip(k2, kernels):
        pair = pair_one_body(kernel, coeffs.statistics)
        out[:] = _lindblad_pair(pair, drift, drift_h, jump)
    return k1, k2


def _lindblad_pair(pair: np.ndarray, drift: np.ndarray, drift_h: np.ndarray,
                   jump: np.ndarray | None) -> np.ndarray:
    """M K2 + K2 M^dagger, plus J^dagger K2 J / hbar when `jump` is given: the
    adjoint Lindblad generator on the pair matrix K2, with drift M, its
    adjoint `drift_h` (formed once by a caller that loops over kernels) and
    jump matrix J.  Four P x P products with a jump, two without."""
    image = drift @ pair + pair @ drift_h
    if jump is not None:
        image += _adjoint_times(jump, pair @ jump) / HBAR
    return image


def _adjoint_times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a^dagger x as conj(a^T conj(x)), overwriting x.

    Each product is that of `a.conj().T @ x` with its imaginary sign flipped,
    so the result is the same bit for bit, but no conjugate copy of a is
    formed; its temporaries end with the call, so a loop over kernels holds
    none of them between kernels.
    """
    np.conjugate(x, out=x)
    y = a.T @ x
    return np.conjugate(y, out=y)


class PositivityReport(NamedTuple):
    n_samples: int
    tau_max: float
    min_real: float
    max_imag: float
    passed: bool
    worst_sample: int
    worst_tau: float


def positivity_check(lp: Lprime, n_samples: int = 1000, tau_max: float = 1e-3,
                     seed: int = 0) -> PositivityReport:
    """Sampled positivity of I + tau L' on random normalized vector families.

    Q = sum_hk <psi_h | [(I + tau L')(a†_h a_k)] psi_k> must stay real and
    non-negative within POSITIVITY_TOL for tau in (0, tau_max].  Each sample
    draws its family (real, then imaginary parts, in one call) and then its
    tau; the families are normalised per stack of _POSITIVITY_CHUNK and go
    through `family_form` together.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    basis = lp.basis
    rng = np.random.default_rng(seed)
    n = basis.n_modes
    min_real = math.inf
    max_imag = 0.0
    worst_sample = -1
    worst_tau = 0.0
    for start in range(0, n_samples, _POSITIVITY_CHUNK):
        count = min(_POSITIVITY_CHUNK, n_samples - start)
        psi = np.empty((count, n, basis.dim), dtype=complex)
        tau = np.empty(count)
        for i in range(count):
            psi[i].real, psi[i].imag = rng.standard_normal((2, n, basis.dim))
            tau[i] = tau_max * (1.0 - rng.uniform())
        psi /= np.linalg.norm(psi, axis=2, keepdims=True)
        q0, q1, _ = lp.family_form(psi)
        q = q0 + tau * q1
        i = int(np.argmin(q.real))  # the first minimum, as sample order decides ties
        if q.real[i] < min_real:
            min_real = float(q.real[i])
            worst_sample = start + i
            worst_tau = float(tau[i])
        max_imag = max(max_imag, float(np.max(np.abs(q.imag))))
    passed = min_real > -POSITIVITY_TOL and max_imag <= POSITIVITY_TOL
    return PositivityReport(n_samples, tau_max, min_real, max_imag, passed,
                            worst_sample, worst_tau)


class NegativeTauWitness(NamedTuple):
    tau: float
    q_value: float
    gain_form: float
    family: np.ndarray


class AnnihilatorKernel:
    """The orthonormal real kernel basis of the dim x (n dim) stack [a_1 ... a_n]
    that LAPACK's SVD returns, applied as `kernel @ coords` without the stack.

    For a wide matrix `dgesdd` takes a Householder LQ, A = L Q, then an SVD
    L = U S V_L^T of the square factor (Golub & Van Loan, Matrix Computations,
    5.1 and 8.6); the kernel columns are Q^T [V_L[:, rank:] ; 0] followed by
    the last (n - 1) dim columns of Q^T.  Here the LQ has a closed form.  Row i
    of the stack, in target sector M, has norm sqrt(c_M) (c_M = n + M for Bose,
    n - M for Fermi: A_N A_N^dagger = c 1), is zero at its pivot column
    (mode 0, state i), and shares no nonzero column with earlier rows or
    reflectors.  So no row is ever updated: every reflector has tau = 1 and
    v_i = e_(0,i) + a_i / sqrt(c_M), and L = diag(-sqrt(c_M)), zero on the top
    sector.  The v_i of one sector are orthogonal, so its reflectors multiply
    to G_M = I - V_M V_M^T, and Q^T = G_0 G_1 ... G_{n_max - 1}.  V_M^T y is
    a gather of y at the columns that the creator maps (`FockBasis.creators`)
    reach from sector M, and V_M z one `np.subtract.at` at those columns.  The
    SVD of the diagonal L only orders its null rows, unit rows of the top
    sector, so they are held as indices.
    `dbdsdc` hands an L of order at most 25 to `dlasdq`, which sorts the
    values into ascending order, and then sorts them into descending order;
    both are selection sorts that take the first extremum and move the rows
    of V_L^T with the values.  Above order 25 only the second sort runs, and
    the zeros, which sit last already, stay in place.
    """

    def __init__(self, basis: FockBasis):
        self.basis = basis
        sign = 1.0 if basis.statistics is Statistics.BOSE else -1.0
        roots = [math.sqrt(basis.n_modes + sign * number) for number in range(basis.n_max)]
        self._scales = [1.0 / root for root in roots]  # dlarfg scales each row by 1/sqrt(c)
        top = basis.sectors[-1]
        values = np.repeat(roots + [0.0], [s.stop - s.start for s in basis.sectors])
        order = np.arange(basis.dim)
        for extremum in ((np.argmin, np.argmax) if basis.dim <= 25 else ()):
            for i in range(basis.dim):
                j = i + int(extremum(values[i:]))
                values[[i, j]], order[[i, j]] = values[[j, i]], order[[j, i]]
        self._null_rows = order[top.start:]
        self.shape = (basis.n_modes * basis.dim,
                      (basis.n_modes - 1) * basis.dim + top.stop - top.start)

    def __matmul__(self, coords: np.ndarray) -> np.ndarray:
        """kernel @ coords for coords of shape (k,) or (k, m), k = shape[1]."""
        coords = np.asarray(coords, dtype=float)
        n, dim, d_top = self.basis.n_modes, self.basis.dim, len(self._null_rows)
        y = np.zeros((n, dim) + coords.shape[1:])
        y[0, self._null_rows] = coords[:d_top]
        y[1:] = coords[d_top:].reshape(y[1:].shape)
        return self.rotate(y).reshape((n * dim,) + coords.shape[1:])

    def rotate(self, y: np.ndarray) -> np.ndarray:
        """Q^T y in place, for y of shape (n_modes, dim, ...): G_{n_max - 1} first."""
        cols, amps = self.basis.creators
        modes, trailing = np.arange(self.basis.n_modes), (1,) * (y.ndim - 2)
        for number in reversed(range(self.basis.n_max)):
            s = self.basis.sectors[number]
            a = self._scales[number] * amps[s].reshape(amps[s].shape + trailing)
            z = y[0, s] + (a * y[modes, cols[s]]).sum(axis=1)
            y[0, s] -= z
            np.subtract.at(y, (modes, cols[s]), a * z[:, None])  # -1 columns repeat, with a = 0
        return y


def negative_tau_witness(lp: Lprime, tau: float = -1e-3,
                         seed: int = 0) -> NegativeTauWitness:
    """Family with Q < 0 at negative tau, built in the kernel of the a-stack.

    There Q reduces to tau times the non-negative gain form, so any family
    the jump operators do not annihilate witnesses the time orientation.
    Each trial draws the real, then the imaginary coefficients of a
    combination of the kernel basis of `AnnihilatorKernel`; one real map
    takes both, so nothing is cast to complex.
    """
    if tau >= 0:
        raise ValueError("tau must be negative")
    basis = lp.basis
    n = basis.n_modes
    kernel = AnnihilatorKernel(basis)
    rng = np.random.default_rng(seed)
    for _ in range(WITNESS_TRIES):
        parts = kernel @ rng.standard_normal((2, kernel.shape[1])).T
        psi = (parts[:, 0] + 1j * parts[:, 1]).reshape(n, basis.dim)
        psi = psi / np.linalg.norm(psi)
        q0, q1, gain_form = lp.family_form(psi)
        if gain_form > 1e-12:
            q = q0 + tau * q1
            return NegativeTauWitness(tau, float(q.real), float(gain_form), psi)
    raise ValueError(
        "no negative-time violation found: jump amplitudes vanish on the "
        "probed kernel families"
    )


class ConservationReport(NamedTuple):
    delta: float
    mass_residual: float
    energy_residual: float
    energy_streaming: float
    energy_collision: float


def conservation_report(lp: Lprime) -> ConservationReport:
    """Residual norms of the generator on total mass and free energy.

    Mass must be conserved structurally; the energy residual is reported,
    split into the delta-independent streaming part and the collision part
    that shrinks as the smearing narrows onto resonant channels.
    """
    mass_residual = MASS * lp.apply(np.eye(lp.basis.n_modes)).norm()
    if mass_residual > MASS_TOL:
        raise ValueError(f"mass conservation violated: residual {mass_residual:.3e}")
    stream, collision = lp.parts(np.diag(mode_energies(lp.coeffs.modes)))
    return ConservationReport(
        delta=lp.coeffs.delta,
        mass_residual=float(mass_residual),
        energy_residual=(stream + collision).norm(),
        energy_streaming=stream.norm(),
        energy_collision=collision.norm(),
    )
