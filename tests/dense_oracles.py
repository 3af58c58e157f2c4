"""Dense oracles for the number-sector operator layer.

Each helper is the plain dense formula that a sector-blocked routine in
`boxgas.fock`, `boxgas.generator`, `boxgas.gibbs` or `boxgas.scattering`
replaces: ladders from a per-column loop over the occupation table, pair
annihilators from a full einsum, the one-body, two-body, channel, loss and
generator images contracted over dense dim x dim stacks, and the mode
rotation Gamma(U) behind a Gibbs state of a one-body exponent, created column
by column on the vacuum.  None of them reads a sector block.  `split_blocks` cuts a
dense operator into sector blocks and rejects any entry outside them.
`difference_quad_tensor` is the pair-potential quadrature over the full
list of grid points, with |x - y| from a point-pair difference array.
`whole_space_tmatrix` is the pair T matrix from one eigendecomposition of
the whole pair Hamiltonian, and `whole_space_onshell_tmatrix` the on-shell T
built on it, where `boxgas.scattering` solves one reflection-parity class of
pairs at a time.

`boxgas` keeps every two-body operator as a P x P matrix over `pair_basis`.
The n^4 tensor form stays here as the oracle of that format:
`tensor_from_pair_matrix` is the canonical (anti)symmetric tensor of a pair
matrix, `tensor_coefficients` the
generator coefficients as the tensors `veff[l1,l2,f2,f1]` and
`jump[k,l,f2,f1]` (jump multiplying a_f2 a_f1 in the channel of the ordered
outgoing pair (k, l)), `tensor_two_body_operator` the two-body operator of
a tensor from the dense pair stack, and `lprime_reduced_images` the one- and
two-body kernels of the generator images read off `Lprime` on an n_max 2
basis, where `generator.reduced_images` works in pair space alone.
`tmatrix_table_text` is the body of `tmatrix.csv` as `csv.writer` writes
every row (p, q, Re T, Im T, Re V), where `boxgas.cli` formats only the
entries that are not +0.0 in all three columns.
`sector_totals_start` is the cold start of `gibbs.maxent_fit` as a Newton
fit over the summed constraint family, which diagonalises every sector
block (or the kernel) of y0 sum_c E_c + y1 sum_c M_c again at each step,
where `boxgas.gibbs` diagonalises sum_c E_c once.
`refit_integrate` is the closure's RK4 with every stage re-fitted from the
fields of the fit before it, the first stage of each step included.
`two_layout_kernel_values` reads `gibbs.TwoBodyKernels` with the direct and
the exchange layout of k2 each contracted against its own matrix, where
`boxgas.gibbs` folds the exchange term onto the direct one.
`annihilator_kernel` is the kernel of the annihilator stack as the right
factor of a float64 SVD of the dense dim x (n dim) stack, where
`generator.AnnihilatorKernel` maps coordinates to the same basis through a
closed-form Householder LQ and never forms the stack.
`complex_annihilator_kernel` is that kernel from a complex SVD, and
`complex_stack_witness` the negative-time witness built on it with one
complex product per trial, where `boxgas.generator` maps the real and
imaginary coefficients with one real map.  `per_sample_positivity` is the
positivity check with two draws and a normalisation per sample, where
`generator.positivity_check` draws each family in one call and normalises
each stack once.
`spectral_decomposition` and `heisenberg_evolve` are the exact motion
exp(iHt/hbar) X exp(-iHt/hbar) from one eigendecomposition of a dense H, and
`dense_coarse_deltas` the coarse-grained check on them over the whole Fock
space, where `scattering.coarse_grained_check` works one number sector at a
time in H's eigenbasis.  `state_index` finds the row of an occupation tuple.

The Gibbs layer takes operators in number-sector blocks only; `one_block`
wraps a dense matrix as a `BlockDiagonal` of one block, so a dense exponent
or observable goes through the same routines, and `dense_vectors` joins the
eigenvector blocks of a sector-path state into one matrix.  `weight_entropy`
is the von Neumann entropy of a dense weight from its spectrum,
`kubo_mori_susceptibility` the Kubo-Mori pairing of two dense operators at a
Gibbs state, and `constrained_perturbation` a random dense weight near a
Gibbs state that keeps its constraint values to first order: the
perturbations against which the maximum-entropy state is tested.
"""
import csv
import io
from dataclasses import dataclass
from math import factorial, inf, prod, sqrt

import numpy as np

from boxgas import fieldmodel, generator
from boxgas.fieldmodel import HBAR, mode_energies
from boxgas.fock import (
    Statistics,
    _pair_indices,
    _pair_norms,
    build_basis,
    ladder_ops,
    one_body_operator,
    pair_basis,
    sector_dimension,
)
from boxgas.generator import (
    POSITIVITY_TOL,
    WITNESS_TRIES,
    Lprime,
    NegativeTauWitness,
    PositivityReport,
    smearing_kernel,
)
from boxgas.gibbs import (
    MAX_ITER,
    CellKernels,
    CellObservables,
    ConstraintSet,
    _km_kernel,
    _newton_fit,
    chi_matrix,
    entropy,
    fields_to_multipliers,
    gibbs_from_operator,
    maxent_fit,
)
from boxgas.kinetics import StateTrajectory, closure_rhs
from boxgas.matrixutil import BlockDiagonal, frob, require_hermitian, trace_product
from boxgas.scattering import COND_CAP, _require_reconstructed, pair_energies


def state_index(basis, occ):
    """Row of the occupation tuple `occ` in `basis.states`."""
    rows = np.flatnonzero(np.all(basis.states == np.asarray(occ, dtype=int), axis=1))
    if rows.size != 1:
        raise KeyError(tuple(int(n) for n in occ))
    return int(rows[0])


def split_blocks(ops, slices, names):
    """Split a (stack of) dense matrices into diagonal blocks over `slices`.

    Every entry outside the blocks must be exactly zero; otherwise the
    offending operator is named in the ValueError.
    """
    ops = np.asarray(ops)
    stack = ops.reshape((-1,) + ops.shape[-2:])
    inside = np.zeros(ops.shape[-2:], dtype=bool)
    for s in slices:
        inside[s, s] = True
    leak = np.max(np.abs(stack[:, ~inside]), axis=1, initial=0.0)
    bad = np.flatnonzero(leak)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{names[i]} has entries outside its number sectors "
                         f"(max |off-sector| = {leak[i]:.3e})")
    return BlockDiagonal(tuple(slices), tuple(ops[..., s, s].copy() for s in slices))


def one_block(matrix):
    """A dense matrix as a `BlockDiagonal` of one block."""
    matrix = np.asarray(matrix)
    return BlockDiagonal((slice(0, matrix.shape[-1]),), (matrix,))


def dense_vectors(state):
    """The eigenvectors of a sector-path Gibbs state as one dense matrix."""
    return BlockDiagonal(state.spectrum.slices, state.vector_blocks).dense()


def weight_entropy(weight):
    """Spectral von Neumann entropy of a dense weight, with 0 log 0 = 0."""
    probs = np.linalg.eigvalsh(np.asarray(weight))
    if np.min(probs) < -1e-10:
        raise ValueError(f"weight has negative eigenvalue {np.min(probs):.3e}")
    probs = np.clip(probs, 0.0, None)
    positive = probs[probs > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def kubo_mori_susceptibility(state, a, b):
    """Exact derivative metric: chi(A, B) = d<A>/d(-lambda_B) on exp(-K) states."""
    vectors = dense_vectors(state)
    at = vectors.conj().T @ a @ vectors
    bt = vectors.conj().T @ b @ vectors
    kernel = _km_kernel(state.probabilities)
    corr = np.einsum("ab,ab,ba->", kernel, at, bt)
    means = trace_product(state.weight, a) * trace_product(state.weight, b)
    return float((corr - means).real)


def constrained_perturbation(state, ops, rng, scale=1e-5):
    """Random exponent perturbation projected to preserve <ops> to first order.

    The perturbation mixes number sectors, so the result is a dense weight.
    """
    dim = state.weight.shape[0]
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (raw + raw.conj().T)
    h /= frob(h)
    chi = chi_matrix(state, ops)
    dense = ops.dense()
    coupling = np.array([kubo_mori_susceptibility(state, op, h) for op in dense])
    coeff, *_ = np.linalg.lstsq(chi, coupling, rcond=None)
    delta = h - np.einsum("i,iab->ab", coeff, dense)
    perturbed = gibbs_from_operator(one_block(state.spectrum.exponent.dense() + scale * delta))
    return perturbed.weight


def loop_annihilation_op(basis, mode):
    """a_mode column by column: Bose sqrt(n), Fermi the Jordan-Wigner sign."""
    a = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        n = occ[mode]
        if n == 0:
            continue
        target = occ.copy()
        target[mode] -= 1
        row = state_index(basis, target)
        if basis.statistics is Statistics.BOSE:
            a[row, col] = sqrt(n)
        else:
            a[row, col] = (-1.0) ** int(occ[:mode].sum())
    return a


def loop_ladders(basis):
    return np.stack([loop_annihilation_op(basis, f) for f in range(basis.n_modes)])


def einsum_pair_stack(basis):
    """P[f, g] = a_f a_g as a dense (n, n, dim, dim) stack."""
    a = loop_ladders(basis)
    return np.einsum("fab,gbc->fgac", a, a, optimize=True)


def dagger_sum(left, right):
    dim = left.shape[-1]
    return left.reshape(-1, dim).conj().T @ right.reshape(-1, dim)


def dense_one_body(basis, kernel):
    a = loop_ladders(basis)
    adag = a.conj().transpose(0, 2, 1)
    return np.einsum("hk,hab,kbc->ac", kernel, adag, a, optimize=True)


def dense_two_body(basis, tensor):
    """(1/2) sum tensor[l1,l2,f2,f1] adag_l1 adag_l2 a_f2 a_f1 over the dense pair stack."""
    f, dim = basis.n_modes, basis.dim
    pairs = einsum_pair_stack(basis)
    pairs_flat = pairs.reshape(f * f, dim, dim)
    cre_flat = pairs.transpose(1, 0, 3, 2).conj().reshape(f * f, dim, dim)
    mixed = np.einsum("pq,qbc->pbc", tensor.reshape(f * f, f * f), pairs_flat,
                      optimize=True)
    return 0.5 * np.einsum("pab,pbc->ac", cre_flat, mixed, optimize=True)


def tensor_two_body_operator(basis, tensor):
    """`dense_two_body` cut into the number-sector blocks of the basis."""
    return split_blocks(dense_two_body(basis, tensor), basis.sectors, ["two-body operator"])


def tensor_from_pair_matrix(m, pairs, statistics, n_modes):
    """Canonical rank-4 tensor whose pair projection reproduces m.

    Bose: fully symmetric in (l1, l2) and in (f1, f2).  Fermi: antisymmetric
    in both pairs.  Inverse of pair_matrix_from_tensor on its image.
    """
    norms = _pair_norms(pairs, statistics)
    p1, p2, q1, q2 = _pair_indices(pairs)
    sign = -1.0 if statistics is Statistics.FERMI else 1.0
    val = 0.5 * np.asarray(m) / np.outer(norms, norms)
    tensor = np.zeros((n_modes,) * 4, dtype=complex)
    tensor[p1, p2, q2, q1] = val
    tensor[p2, p1, q1, q2] = val
    tensor[p1, p2, q1, q2] = sign * val
    tensor[p2, p1, q2, q1] = sign * val
    return tensor


def tensor_coefficients(coeffs):
    """The coefficient tensors (veff, jump): the hermitian part of T and
    sqrt(2 pi/hbar S(w_k + w_l - w_f2 - w_f1)) times T, each spread onto n^4
    entries by `tensor_from_pair_matrix`."""
    n, statistics = coeffs.n_modes, coeffs.statistics
    pairs = pair_basis(n, statistics)
    t_on = coeffs.t_onshell
    veff = tensor_from_pair_matrix(0.5 * (t_on + t_on.conj().T), pairs, statistics, n)
    w = mode_energies(coeffs.modes)
    mismatch = (w[:, None, None, None] + w[None, :, None, None]
                - w[None, None, :, None] - w[None, None, None, :])
    window = smearing_kernel(mismatch, coeffs.delta)
    return veff, np.sqrt((2.0 * np.pi / HBAR) * window) * tensor_from_pair_matrix(
        t_on, pairs, statistics, n)


def dense_channel_ops(basis, coeffs):
    """R[k, l] = sum jump[k, l, f2, f1] a_f2 a_f1 over the dense pair stack."""
    _, jump = tensor_coefficients(coeffs)
    return np.einsum("klfg,fgac->klac", jump, einsum_pair_stack(basis), optimize=True)


def dense_gamma(channels):
    return 0.25 * dagger_sum(channels, channels)


def dense_parts(basis, coeffs, kernel):
    """Streaming, loss and gain images of sum_hk kernel[h, k] a†_h a_k, all dense,
    from the coefficient tensors."""
    a = loop_ladders(basis)
    veff, _ = tensor_coefficients(coeffs)
    h_eff = (dense_one_body(basis, np.diag(mode_energies(coeffs.modes)))
             + dense_two_body(basis, veff))
    channels = dense_channel_ops(basis, coeffs)
    gamma = dense_gamma(channels)
    ka = np.tensordot(kernel, a, axes=1)
    x = dagger_sum(a, ka)
    stream = (1j / HBAR) * (h_eff @ x - x @ h_eff)
    loss = (-1.0 / HBAR) * (gamma @ x + x @ gamma - 2.0 * dagger_sum(a, gamma @ ka))
    gain = (1.0 / HBAR) * dagger_sum(channels, np.tensordot(kernel, channels, axes=1))
    return stream, loss, gain


def lprime_reduced_images(coeffs, kernels):
    """k1 and the tensor k2 with L'(dGamma(K)) = dGamma(k1) + dGamma2(k2), read off
    `Lprime` on an n_max 2 basis of the same modes (n_max 1 where the
    statistics leave no pair sector; k2 is then zero).

    dGamma2(k2) is (1/2) sum k2[l1,l2,f2,f1] a†_l1 a†_l2 a_f2 a_f1.  The pair
    annihilators Q = a_f2 a_f1 on the two-particle rows satisfy Q Q† = 2 x
    the (anti)symmetrizer, so k2 = Q B Q† / 2 for the two-particle block B of
    the image less dGamma(k1): the exchange-(anti)symmetric tensor.  Returns
    arrays of shape (m, n, n) and (m, n, n, n, n) for m kernels.
    """
    n, statistics = coeffs.n_modes, coeffs.statistics
    basis = build_basis(n, 2 if sector_dimension(n, 2, statistics) else 1, statistics)
    images = Lprime(basis, coeffs).images(kernels)
    singles = basis.ladder_blocks[1][:, 0, :]  # a_f on the one-particle rows: a permutation
    k1 = singles @ images.blocks[1] @ singles.T
    k2 = np.zeros(k1.shape[:1] + (n,) * 4, dtype=complex)
    if basis.n_max == 2:
        two = basis.sectors[2]
        pairs = einsum_pair_stack(basis)[:, :, 0, two].reshape(n * n, -1)  # rows (f2, f1)
        rest = images.blocks[2] - np.stack([one_body_operator(basis, k).blocks[2] for k in k1])
        k2 = (0.5 * pairs @ rest @ pairs.T).reshape(-1, n, n, n, n).transpose(0, 2, 1, 3, 4)
    return k1, k2


def dense_mode_rotation(basis, u):
    """Gamma(U), the unitary of the mode change a†_j -> b†_j = sum_i U[i, j] a†_i.

    Column m is row m's occupations s created on the vacuum in the new modes,
    prod_j (b†_j)^s_j / sqrt(s_j!), the last mode first as in the
    Jordan-Wigner order of the basis.
    """
    adag = loop_ladders(basis).conj().transpose(0, 2, 1)
    created = np.tensordot(np.asarray(u).T, adag, axes=1)  # [j] b†_j
    vacuum = np.zeros(basis.dim, dtype=complex)
    vacuum[state_index(basis, (0,) * basis.n_modes)] = 1.0
    gamma = np.zeros((basis.dim, basis.dim), dtype=complex)
    for m, occ in enumerate(basis.states):
        col = vacuum
        for j in reversed(range(basis.n_modes)):
            for _ in range(occ[j]):
                col = created[j] @ col
        gamma[:, m] = col / sqrt(prod(factorial(int(x)) for x in occ))
    return gamma


def mode_weight(state):
    """Gamma(U) diag(p) Gamma(U)†: the dense weight of a mode-space Gibbs state."""
    gamma = dense_mode_rotation(state.spectrum.basis, state.spectrum.vectors)
    return (gamma * state.probabilities) @ gamma.conj().T


def pair_weight_matrix(values, wts):
    """A[p, (l, f)] = w_p u_l(x_p) u_f(x_p) over the listed points."""
    nf, npts = values.shape
    prod = values[:, None, :] * values[None, :, :]
    return (prod * wts[None, None, :]).reshape(nf * nf, npts).T


def difference_kernel_apply(potential, pts, wts, values, a_right):
    """A_left^T V(|x - y|) A_right over the (P, d) point list, in row blocks
    of `fieldmodel._BLOCK_ELEMENTS` kernel entries, from a (rows, P, d)
    difference array."""
    npts = pts.shape[0]
    out = np.zeros((values.shape[0] ** 2, a_right.shape[1]))
    a_left = pair_weight_matrix(values, wts)
    block = max(1, fieldmodel._BLOCK_ELEMENTS // npts)
    for start in range(0, npts, block):
        stop = min(start + block, npts)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        kernel = potential(np.sqrt(np.sum(diff * diff, axis=-1)))
        out += a_left[start:stop].T @ (kernel @ a_right)
    return out


def difference_quad_tensor(modes, potential, grid, order, x_cell):
    """`fieldmodel._quad_tensor` summed over every pair of grid points, listed
    by a meshgrid, with the cell mask taken point by point and no use of the
    reflection parities: the entries that the selection rule forbids are
    round-off here, not exact zeros."""
    axis_nodes, wts, values = fieldmodel._quadrature_grid(modes, grid, order)
    pts = np.stack([c.ravel() for c in np.meshgrid(*axis_nodes, indexing="ij")], axis=-1)
    mask = np.ones(len(wts), dtype=bool)
    if x_cell is not None:
        for ax, (lo, hi) in enumerate(grid.bounds(x_cell)):
            mask &= (pts[:, ax] >= lo) & (pts[:, ax] <= hi)
    nf = len(modes)
    left = difference_kernel_apply(potential, pts, np.where(mask, wts, 0.0), values,
                                   pair_weight_matrix(values, wts))
    return left.reshape(nf, nf, nf, nf).transpose(0, 2, 3, 1)


@dataclass(frozen=True)
class SpectralDecomposition:
    energies: np.ndarray
    vectors: np.ndarray

    def reconstruct(self):
        return (self.vectors * self.energies) @ self.vectors.conj().T


def spectral_decomposition(h):
    """One eigendecomposition of a dense hermitian H, checked to reconstruct it."""
    require_hermitian(h, name="hamiltonian")
    dec = SpectralDecomposition(*np.linalg.eigh(h))
    _require_reconstructed(float(np.linalg.norm(dec.reconstruct() - h)),
                           float(np.max(np.abs(dec.energies), initial=0.0)))
    return dec


def heisenberg_evolve(h, x, t, decomp=None):
    """exp(+iHt/hbar) X exp(-iHt/hbar)."""
    dec = spectral_decomposition(h) if decomp is None else decomp
    q = dec.vectors
    x_tilde = q.conj().T @ x @ q
    phase = np.exp(1j * dec.energies * t / HBAR)
    return q @ (np.outer(phase, phase.conj()) * x_tilde) @ q.conj().T


def dense_coarse_deltas(basis, ham, h, k, times, image):
    """||U'(t)X - X - t L'(X)||_F / ||t L'(X)||_F for X = adag_h a_k, with dense
    H and L'(X), the motion evolved on the whole Fock space at each time."""
    a = loop_ladders(basis)
    x = a[h].conj().T @ a[k]
    dec = spectral_decomposition(ham)
    scale = np.linalg.norm(image)
    return np.array([np.linalg.norm(heisenberg_evolve(ham, x, float(t), dec) - x - t * image)
                     / (t * scale) for t in times])


def whole_space_tmatrix(v_pair, energies, zs):
    """T(z) = V + V (z - H_pair)^{-1} V with H_pair = diag(E) + V, for each z in zs,
    from one eigendecomposition of the whole H_pair; a z may be one value per
    column.  The bound max_j |z - lambda_j| / Im z must stay below COND_CAP."""
    dec = spectral_decomposition(np.diag(energies) + v_pair)
    vu = v_pair @ dec.vectors
    uv = dec.vectors.conj().T @ v_pair
    out = []
    for z in zs:
        gap = np.broadcast_to(z, energies.shape)[None, :] - dec.energies[:, None]
        bound = float(np.max(np.abs(gap) / gap.imag, initial=0.0))
        if bound > COND_CAP:
            raise ValueError(
                f"resolvent condition bound {bound:.3e} exceeds {COND_CAP:.1e}; "
                "increase epsilon or weaken the coupling"
            )
        out.append(v_pair + vu @ (uv / gap))
    return out


def whole_space_onshell_tmatrix(modes, v_pair, statistics, eps):
    """`scattering.onshell_tmatrix` on the whole pair space: 2 T(eps/2) - T(eps)."""
    energies = pair_energies(modes, pair_basis(len(modes), statistics))
    half, full = whole_space_tmatrix(np.asarray(v_pair, dtype=complex), energies,
                                     [energies + 0.5j * eps, energies + 1j * eps])
    return 2.0 * half - full


def tmatrix_table_text(t_on, v_pair):
    """The rows (p, q, Re T, Im T, Re V) over every pair of pairs, p major,
    written by `csv.writer`: the `tmatrix.csv` body below its header."""
    n = len(t_on)
    columns = (np.repeat(np.arange(n), n), np.tile(np.arange(n), n),
               t_on.real, t_on.imag, v_pair.real)
    out = io.StringIO(newline="")
    csv.writer(out).writerows(zip(*(column.ravel().tolist() for column in columns)))
    return out.getvalue()


def sector_totals_start(obs, targets, max_iter=MAX_ITER):
    """(beta, -beta mu) of one field pair fitted to the box totals from (1e-2, 0):
    the same Newton, on the family of the two summed operators."""
    coeffs = np.kron(np.eye(2), np.ones(obs.n_cells))
    if isinstance(obs, CellObservables):
        totals = CellObservables(obs.blocks.combine(coeffs))
    else:
        totals = CellKernels(obs.basis, np.tensordot(coeffs, obs.kernels, axes=1))
    y2, _, _, _ = _newton_fit(totals, np.array([targets.energy.sum(), targets.mass.sum()]),
                              np.array([1e-2, 0.0]), tol=1e-6, max_iter=max_iter)
    return y2


def refit_integrate(sys, t_span, dt):
    """`kinetics.integrate` with a fit at every RK4 stage, from fields alone.

    Each stage fits its moments warm-started from the fields of the fit
    before it and reads its rates at that fit; the first stage of a step
    fits again the moments that ended the step before.  Each step ends with
    a fit to its new moments, and the rows are read at that fit.  No step is
    halved and `dt` is not checked: a FitError propagates.
    """
    n = sys.n_cells

    def fit(moments, warm):
        return maxent_fit(sys.basis, sys.family, ConstraintSet(moments[:n], moments[n:]),
                          init=warm)

    def fitted_rate(moments, warm):
        result = fit(moments, warm)
        return sys.rate_kernels.values(result.state), result

    fields = sys.fields
    state = sys.state_for(fields)
    moments = sys.family.values(state)
    times, field_rows, moment_rows, states, residuals = [0.0], [fields], [moments], [state], [0.0]
    t = 0.0
    while t < t_span * (1.0 - 1e-12):
        step = min(dt, t_span - t)
        k1, f1 = fitted_rate(moments, fields)
        k2, f2 = fitted_rate(moments + 0.5 * step * k1, f1.fields)
        k3, f3 = fitted_rate(moments + 0.5 * step * k2, f2.fields)
        k4, f4 = fitted_rate(moments + step * k3, f3.fields)
        moments = moments + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        end = fit(moments, f4.fields)
        t += step
        fields = end.fields
        times.append(t)
        field_rows.append(fields)
        moment_rows.append(moments)
        states.append(end.state)
        residuals.append(end.residual_norms[-1])
    reports = [closure_rhs(sys, s) for s in states]
    moments = np.array(moment_rows)
    return StateTrajectory(
        times=np.array(times),
        fields=tuple(field_rows),
        multipliers=np.array([fields_to_multipliers(f) for f in field_rows]),
        moments=moments,
        entropies=np.array([entropy(s) for s in states]),
        mass_total=np.array([float(m[n:].sum()) for m in moments]),
        energy_total=np.array([float(m[:n].sum()) for m in moments]),
        energy_rates=np.array([float(r.moment_rates[:n].sum()) for r in reports]),
        conditions=np.array([r.condition for r in reports]),
        fit_residuals=np.array(residuals),
        labels=sys.labels,
    )


def two_layout_kernel_values(statistics, one_body, two_body, state):
    """`gibbs.TwoBodyKernels.values` with k2 laid out as direct [(l1, f1), (l2, f2)]
    against X G X^T and as exchange [(l1, f2), (l2, f1)] against X (G - diag G) X^T,
    the latter with + for Bose and - for Fermi."""
    m, n = one_body.shape[:2]
    sign = 1.0 if statistics is Statistics.BOSE else -1.0
    direct = two_body.transpose(0, 1, 4, 2, 3).reshape(m, -1)
    exchange = two_body.transpose(0, 1, 3, 2, 4).reshape(m, -1)
    u = state.spectrum.vectors
    x = (u.conj()[:, None, :] * u[None, :, :]).reshape(n * n, n)
    nbar = state.mode_occupations
    g = state.mode_correlations - np.diag(nbar)
    hop = g - np.diag(np.diag(g))
    return (one_body.reshape(m, n * n) @ (x @ nbar)
            + 0.5 * (direct @ ((x @ g) @ x.T).ravel()
                     + sign * (exchange @ ((x @ hop) @ x.T).ravel())))


def annihilator_kernel(basis):
    """Orthonormal real columns spanning the kernel of the dim x (n dim) stack [a_1 ... a_n].

    Per sector N, A_N A_N^dagger = c_N 1 with c_N > 0 (N + n - 1 for Bose,
    n - N + 1 for Fermi): the stack maps onto every sector below n_max, so its
    rank is dim - d_top and the kernel has (n - 1) dim + d_top columns.  The
    stack is real, so this is a float64 SVD.
    """
    top = basis.sectors[-1]
    stack = np.concatenate(list(ladder_ops(basis)), axis=1)
    return np.linalg.svd(stack)[2][top.start:].T


def complex_annihilator_kernel(basis):
    """Orthonormal columns of the kernel of [a_1 ... a_n], from a complex SVD."""
    top = basis.sectors[-1]
    stack = np.concatenate(list(ladder_ops(basis)), axis=1).astype(complex)
    return np.linalg.svd(stack)[2][basis.dim - (top.stop - top.start):].conj().T


def complex_stack_witness(lp, tau, seed):
    """`generator.negative_tau_witness` on `complex_annihilator_kernel`."""
    n, dim = lp.basis.n_modes, lp.basis.dim
    kernel = complex_annihilator_kernel(lp.basis)
    rng = np.random.default_rng(seed)
    for _ in range(WITNESS_TRIES):
        combo = kernel @ (rng.standard_normal(kernel.shape[1])
                          + 1j * rng.standard_normal(kernel.shape[1]))
        psi = combo.reshape(n, dim)
        psi = psi / np.linalg.norm(psi)
        q0, q1, gain_form = lp.family_form(psi)
        if gain_form > 1e-12:
            return NegativeTauWitness(tau, float((q0 + tau * q1).real), float(gain_form), psi)
    raise ValueError("no negative-time violation found")


def per_sample_positivity(lp, n_samples, tau_max, seed):
    """`generator.positivity_check` with the real and imaginary parts of each
    family drawn apart and each family normalised on its own."""
    rng = np.random.default_rng(seed)
    n, dim = lp.basis.n_modes, lp.basis.dim
    min_real, max_imag, worst_sample, worst_tau = inf, 0.0, -1, 0.0
    for start in range(0, n_samples, generator._POSITIVITY_CHUNK):
        count = min(generator._POSITIVITY_CHUNK, n_samples - start)
        psi = np.empty((count, n, dim), dtype=complex)
        tau = np.empty(count)
        for i in range(count):
            family = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
            psi[i] = family / np.linalg.norm(family, axis=1, keepdims=True)
            tau[i] = tau_max * (1.0 - rng.uniform())
        q0, q1, _ = lp.family_form(psi)
        q = q0 + tau * q1
        i = int(np.argmin(q.real))
        if q.real[i] < min_real:
            min_real, worst_sample, worst_tau = float(q.real[i]), start + i, float(tau[i])
        max_imag = max(max_imag, float(np.max(np.abs(q.imag))))
    passed = min_real > -POSITIVITY_TOL and max_imag <= POSITIVITY_TOL
    return PositivityReport(n_samples, tau_max, min_real, max_imag, passed,
                            worst_sample, worst_tau)
