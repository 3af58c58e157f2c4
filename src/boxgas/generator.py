"""Coarse-grained collision generator acting on the bilinear family a†_h a_k.

The generator is assembled from on-shell pair amplitudes: a hermitian
effective two-body interaction plus energy-smeared jump amplitudes whose
width delta sets the window inside which a pair collision counts as resonant.
Both are P x P matrices over the normalized pair states of `pair_basis`, and
the channel operators are R_p = sum_q jump[p, q] A_q over the pair
annihilators A_q.  On two particles L' is the adjoint Lindblad generator with
the single jump matrix J = `jump` (Lindblad 1976; Breuer & Petruccione 2002,
ch. 3).  Observables in the family are n x n one-body kernels K, standing for
sum_hk K[h, k] a†_h a_k; the generator maps a kernel straight to its
dim x dim image, or, in `reduced_images`, to the one-body kernel and the
P x P pair matrix of that image, by pair-space algebra alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fieldmodel import HBAR, MASS, hamiltonian, mode_energies
from .fock import FockBasis, Statistics, _pair_indices, _pair_norms, pair_basis, pair_one_body
from .fock import ladder_ops  # noqa: F401  (unused: perfbench/selftest.py patches it by this name)
from .matrixutil import BlockDiagonal, comm, dagger_sum
from .scattering import onshell_tmatrix, pair_energies

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


def default_delta(modes, statistics: Statistics) -> float:
    """Mean spacing of the distinct two-particle energies."""
    energies = np.sort(pair_energies(modes, pair_basis(len(modes), statistics)))
    gaps = np.diff(energies)
    gaps = gaps[gaps > 1e-9 * max(1.0, float(energies[-1]))]
    if gaps.size == 0:
        raise ValueError("pair spectrum is fully degenerate; provide delta explicitly")
    return float(np.mean(gaps))


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Effective interaction, jump amplitudes, and the smearing width behind them.

    Every array is P x P over `pair_basis`: `veff` = (T + T^dagger)/2 is the
    pair matrix of the effective interaction, and `jump` =
    sqrt(2 pi/hbar S(E_p - E_q)) o T, whose row p gives the channel operator
    R_p = sum_q jump[p, q] A_q of the outgoing pair p.  `t_onshell` is a
    read-only view of the on-shell matrix T that the caller passed, not a copy.
    """

    modes: tuple
    statistics: Statistics
    veff: np.ndarray
    jump: np.ndarray
    delta: float
    t_onshell: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.modes)


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
    stored = t_onshell.view()  # read-only without a copy; the caller's flags stay
    stored.setflags(write=False)
    return GeneratorCoefficients(modes, statistics, 0.5 * (t_onshell + t_onshell.conj().T),
                                 np.sqrt((2.0 * np.pi / HBAR) * window) * t_onshell,
                                 float(delta), stored)


def coefficients_from_potential(modes, v_pair, statistics: Statistics, eps: float,
                                delta: float) -> GeneratorCoefficients:
    """On-shell solve of V over `pair_basis`, followed by coefficient assembly."""
    t_on = onshell_tmatrix(modes, v_pair, statistics, eps)
    return build_coefficients(modes, t_on, statistics, delta)


def channel_blocks(basis: FockBasis, coeffs: GeneratorCoefficients) -> tuple:
    """Jump operators R_p = sum_q jump[p, q] A_q per number sector.

    Entry N is the (P, d_{N-2}, d_N) block mapping sector N to N - 2: one
    (P x P) by (P x d_{N-2} d_N) product with the pair annihilators.
    """
    return tuple(np.tensordot(coeffs.jump, pairs, axes=1) for pairs in basis.pair_blocks)


def _ordered_channels(basis: FockBasis, chan: np.ndarray) -> np.ndarray:
    """Channel blocks (P, rows, cols) laid out as R_kl = c_kl R_p(k,l), shape (n, n, rows, cols).

    p(k, l) is the pair of modes k and l; c_kl = 1/n_p for Bose, and for
    Fermi +1 when k < l, -1 when k > l and 0 when k = l (no such pair: the
    appended zero block).  Then sum_kl R_kl^dagger R_kl = 2 sum_p R_p^dagger R_p.
    """
    n, pairs = basis.n_modes, pair_basis(basis.n_modes, basis.statistics)
    _, _, k, l = _pair_indices(pairs)
    c = 1.0 / _pair_norms(pairs, basis.statistics)
    index, weight = np.full((n, n), len(pairs)), np.zeros((n, n))
    index[k, l] = index[l, k] = np.arange(len(pairs))
    weight[l, k] = c if basis.statistics is Statistics.BOSE else -c
    weight[k, l] = c
    padded = np.concatenate([chan, np.zeros((1,) + chan.shape[1:])])
    return weight[:, :, None, None] * padded[index]


class Lprime:
    """Generator action on one-body kernels, with streaming/loss/gain split.

    Ladders lower the number by one and channels by two, so every image is
    built block by block over the number sectors.  `h_eff` and the loss
    operator `gamma` (one half of the channel-summed R_p^dagger R_p) are
    BlockDiagonal over the sectors.
    """

    def __init__(self, basis: FockBasis, coeffs: GeneratorCoefficients):
        if basis.n_modes != coeffs.n_modes or basis.statistics is not coeffs.statistics:
            raise ValueError("basis does not match the coefficient set")
        self.basis = basis
        self.coeffs = coeffs
        self.h_eff = hamiltonian(basis, coeffs.modes, coeffs.veff)
        self.channel_blocks = channel_blocks(basis, coeffs)
        self.gamma = BlockDiagonal(basis.sectors, tuple(0.5 * dagger_sum(r, r)
                                                        for r in self.channel_blocks))

    def parts(self, kernel: np.ndarray):
        """Streaming, loss, and gain images of sum_hk kernel[h, k] a†_h a_k; the
        gain is sum_pq K2[p, q] R_p^dagger R_q over the kernel's pair matrix K2."""
        kernel = np.asarray(kernel)
        pair_kernel = pair_one_body(kernel, self.basis.statistics)
        stream, loss, gain = [], [], []
        gamma_below = np.zeros((0, 0))  # Gamma on sector N - 1, where a_k lands
        for lad, chan, h, gamma in zip(self.basis.ladder_blocks, self.channel_blocks,
                                       self.h_eff.blocks, self.gamma.blocks):
            ka = np.tensordot(kernel, lad, axes=1)  # [h] sum_k K[h,k] a_k
            x = dagger_sum(lad, ka)
            stream.append((1j / HBAR) * comm(h, x))
            loss.append((-1.0 / HBAR) * (
                gamma @ x + x @ gamma - 2.0 * dagger_sum(lad, gamma_below @ ka)))
            gain.append((1.0 / HBAR) * dagger_sum(chan, np.tensordot(pair_kernel, chan, axes=1)))
            gamma_below = gamma
        return tuple(BlockDiagonal(self.basis.sectors, tuple(blocks))
                     for blocks in (stream, loss, gain))

    def apply(self, kernel: np.ndarray) -> BlockDiagonal:
        stream, loss, gain = self.parts(kernel)
        return stream + loss + gain

    def images(self, kernels) -> BlockDiagonal:
        """Images of a list of kernels, stacked in order."""
        return BlockDiagonal.stack(self.apply(kernel) for kernel in kernels)

    @cached_property
    def _family_maps(self) -> tuple:
        """Per sector N, the maps of a flattened family psi[:, N] (index (k, j)):
        the stacked lowerings sum_k a_k psi_k, sum_k a_k H_eff psi_k and
        sum_k a_k Gamma psi_k into sector N - 1, and the channels sum_k R_kl psi_k
        in the ordered layout of `_ordered_channels`."""
        maps = []
        for lad, chan, h, gamma in zip(self.basis.ladder_blocks, self.channel_blocks,
                                       self.h_eff.blocks, self.gamma.blocks):
            n, rows, cols = lad.shape
            lowered = np.stack([lad, lad @ h, lad @ gamma]).transpose(0, 2, 1, 3)
            ordered = _ordered_channels(self.basis, chan)
            maps.append((lowered.reshape(3 * rows, n * cols),
                         ordered.transpose(1, 2, 0, 3).reshape(-1, n * cols)))
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
    all P x P.  Returns arrays of shape (m, n, n) and (m, P, P) for m kernels.
    """
    kernels = np.asarray(kernels)
    w = mode_energies(coeffs.modes)
    k1 = (1j / HBAR) * (w[:, None] - w[None, :]) * kernels
    jump = coeffs.jump
    # k2 = M K2 + K2 M^dagger + J^dagger K2 J / hbar, M = (i V_eff - J^dagger J / 2) / hbar
    drift = (1j * coeffs.veff - 0.5 * (jump.conj().T @ jump)) / HBAR
    k2 = np.empty((len(kernels),) + jump.shape, dtype=complex)
    for out, kernel in zip(k2, kernels):
        pair = pair_one_body(kernel, coeffs.statistics)
        out[:] = drift @ pair + pair @ drift.conj().T + (jump.conj().T @ (pair @ jump)) / HBAR
    return k1, k2


@dataclass(frozen=True)
class PositivityReport:
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


@dataclass(frozen=True)
class NegativeTauWitness:
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
    to G_M = I - V_M V_M^T, two contractions with `ladder_blocks[M + 1]`, and
    Q^T = G_0 G_1 ... G_{n_max - 1}.  V_L comes from an SVD of the diagonal L,
    as `dgesdd` runs it, since that fixes the order of the null rows.
    """

    def __init__(self, basis: FockBasis):
        self.basis = basis
        sign = 1.0 if basis.statistics is Statistics.BOSE else -1.0
        roots = [math.sqrt(basis.n_modes + sign * number) for number in range(basis.n_max)]
        self._scales = [1.0 / root for root in roots]  # dlarfg scales each row by 1/sqrt(c)
        diagonal = np.zeros(basis.dim)
        for s, root in zip(basis.sectors, roots):
            diagonal[s] = -root
        top = basis.sectors[-1]
        self._null_rows = np.linalg.svd(np.diag(diagonal))[2][top.start:]
        self.shape = (basis.n_modes * basis.dim,
                      (basis.n_modes - 1) * basis.dim + top.stop - top.start)

    def __matmul__(self, coords: np.ndarray) -> np.ndarray:
        """kernel @ coords for coords of shape (k,) or (k, m), k = shape[1]."""
        coords = np.asarray(coords, dtype=float)
        n, dim, d_top = self.basis.n_modes, self.basis.dim, len(self._null_rows)
        y = np.empty((n, dim) + coords.shape[1:])
        y[0] = np.tensordot(self._null_rows, coords[:d_top], axes=([0], [0]))
        y[1:] = coords[d_top:].reshape(y[1:].shape)
        return self.rotate(y).reshape((n * dim,) + coords.shape[1:])

    def rotate(self, y: np.ndarray) -> np.ndarray:
        """Q^T y in place, for y of shape (n_modes, dim, ...): G_{n_max - 1} first."""
        sectors, ladders = self.basis.sectors, self.basis.ladder_blocks
        for number in reversed(range(self.basis.n_max)):
            s, above, lad = sectors[number], sectors[number + 1], ladders[number + 1]
            scale = self._scales[number]
            z = y[0, s] + scale * np.tensordot(lad, y[:, above], axes=([0, 2], [0, 1]))
            y[0, s] -= z
            y[:, above] -= scale * np.tensordot(lad, z, axes=([1], [0]))
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


@dataclass(frozen=True)
class ConservationReport:
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
    stream, loss, gain = lp.parts(np.diag(mode_energies(lp.coeffs.modes)))
    return ConservationReport(
        delta=lp.coeffs.delta,
        mass_residual=float(mass_residual),
        energy_residual=(stream + loss + gain).norm(),
        energy_streaming=stream.norm(),
        energy_collision=(loss + gain).norm(),
    )
