"""Generator assembly checks: jump amplitudes, loss operator, bilinear action."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgas import generator
from boxgas.fieldmodel import (
    HBAR,
    BoxGeometry,
    Contact,
    Gaussian,
    box_modes,
    free_hamiltonian,
    hamiltonian,
    modes_from_numbers,
    potential_tensor,
)
from boxgas.fock import (
    Statistics,
    build_basis,
    ladder_ops,
    pair_matrix_from_tensor,
    sector_dimension,
)
from boxgas.generator import (
    AnnihilatorKernel,
    ConservationReport,
    GeneratorCoefficients,
    Lprime,
    _ordered_jumps,
    build_coefficients,
    conservation_report,
    negative_tau_witness,
    positivity_check,
    reduced_images,
    smearing_kernel,
)
from boxgas.matrixutil import BlockDiagonal, frob
from boxgas.scattering import collision_time_estimate, onshell_tmatrix, pair_basis, pair_energies
from dense_oracles import (
    annihilator_kernel,
    comm,
    complex_stack_witness,
    default_delta,
    dense_parts,
    per_sample_positivity,
    state_index,
    svd_null_rows,
    tensor_coefficients,
)
from test_kinetics import oracle_bilinear_image

GEOM = BoxGeometry((1.0,))
U = 0.5 * math.pi**2


def modes_1d(numbers):
    return modes_from_numbers(GEOM, [(n,) for n in numbers])


def two_particle_state(basis, f1, f2):
    vac = np.zeros(basis.dim)
    vac[state_index(basis, (0,) * basis.n_modes)] = 1.0
    a = ladder_ops(basis)
    state = a[f1].conj().T @ a[f2].conj().T @ vac
    return state / np.linalg.norm(state)


def bilinear_image(lp, h, k):
    """L'(a†_h a_k): `Lprime.apply` on the unit kernel at (h, k)."""
    unit = np.zeros((lp.basis.n_modes,) * 2)
    unit[h, k] = 1.0
    return lp.apply(unit)


def ordered_channels(lp):
    """The channel maps of `Lprime._family_maps` in the layout R_kl: one
    (n, n, rows, cols) block per sector, mapping sector N to N - 2."""
    n, sizes = lp.basis.n_modes, [s.stop - s.start for s in lp.basis.sectors]
    out = []
    for number, (_, channels) in enumerate(lp._family_maps):
        rows = sizes[number - 2] if number >= 2 else 0
        out.append(channels.reshape(n, rows, n, sizes[number]).transpose(2, 0, 1, 3))
    return out


def gauss_window(mismatch, delta):
    if abs(mismatch) > 4.0 * delta:
        return 0.0
    return math.exp(-0.5 * (mismatch / delta) ** 2) / (delta * math.sqrt(2.0 * math.pi))


def rate_matrix(modes, t_on, statistics, delta):
    """Pair-level jump amplitudes kappa * T used as the test-side oracle."""
    pairs = pair_basis(len(modes), statistics)
    energies = pair_energies(modes, pairs)
    out = np.zeros_like(t_on)
    for i, ei in enumerate(energies):
        for j, ej in enumerate(energies):
            kappa = math.sqrt(2.0 * math.pi / HBAR * gauss_window(ei - ej, delta))
            out[i, j] = kappa * t_on[i, j]
    return out


def contact_coefficients(numbers=(1, 2, 3), g=1.3, eps=10.0, delta=5.0,
                         statistics=Statistics.BOSE):
    modes = modes_1d(numbers)
    vt = pair_matrix_from_tensor(potential_tensor(modes, Contact(g), GEOM), statistics)
    t_on = onshell_tmatrix(modes, vt, statistics, eps)
    return modes, t_on, build_coefficients(modes, t_on, statistics, delta)


def loss_coefficients(statistics):
    """Three modes with nonzero jumps; at n_max 3 the loss term a†_h Gamma a_k is nonzero."""
    if statistics is Statistics.BOSE:
        return contact_coefficients(g=1.5, statistics=statistics)[2]
    # a contact tensor vanishes for spinless fermions; give them a range
    modes = modes_1d((1, 2, 3))
    vt = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(1.5, 0.25), GEOM), statistics)
    return build_coefficients(modes, onshell_tmatrix(modes, vt, statistics, 10.0), statistics, 5.0)


def test_smearing_kernel_matches_scalar_formula():
    delta = 1.7
    for x in (0.0, 0.4, -2.2, 6.7):
        expected = math.exp(-0.5 * (x / delta) ** 2) / (delta * math.sqrt(2 * math.pi))
        assert smearing_kernel(x, delta) == pytest.approx(expected, rel=1e-14)
    assert smearing_kernel(4.0 * delta + 1e-9, delta) == 0.0
    assert smearing_kernel(-4.0 * delta - 1e-9, delta) == 0.0
    with pytest.raises(ValueError):
        smearing_kernel(1.0, 0.0)


def test_default_delta_is_mean_pair_gap():
    modes = modes_1d([1, 2, 3])
    # pair energies in units of pi^2/2: 2, 5, 8, 10, 13, 18 -> gaps 3, 3, 2, 3, 5
    assert default_delta(modes, Statistics.BOSE) == pytest.approx(3.2 * U, rel=1e-12)
    # Fermi keeps 5, 10, 13 -> gaps 5, 3
    assert default_delta(modes, Statistics.FERMI) == pytest.approx(4.0 * U, rel=1e-12)


def test_build_coefficients_entries_and_cutoff():
    modes = modes_1d([1, 2])
    pairs = pair_basis(2, Statistics.BOSE)
    t_on = np.eye(len(pairs)) + 0.1j * np.ones((len(pairs), len(pairs)))
    delta = 2.0 * U
    coeffs = build_coefficients(modes, t_on, Statistics.BOSE, delta)
    energies = pair_energies(modes, pairs)
    assert coeffs.jump.shape == coeffs.veff.shape == (3, 3)
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            kappa = math.sqrt(
                2.0 * math.pi / HBAR * gauss_window(energies[i] - energies[j], delta)
            )
            assert coeffs.jump[i, j] == pytest.approx(kappa * t_on[i, j], rel=1e-12)
            assert coeffs.veff[i, j] == pytest.approx(
                0.5 * (t_on[i, j] + np.conj(t_on[j, i])), rel=1e-12)
    # (0,0) -> (1,1), pair 0 to pair 2, sits 4 energy units out, beyond the
    # 4*delta support at small delta
    narrow = build_coefficients(modes, t_on, Statistics.BOSE, 0.9 * U)
    assert narrow.jump[2, 0] == 0.0
    assert np.abs(narrow.jump[0, 0]) > 0.0
    with pytest.raises(ValueError):
        build_coefficients(modes, t_on, Statistics.BOSE, 0.0)
    with pytest.raises(ValueError):
        build_coefficients(modes, t_on[:2, :2], Statistics.BOSE, 1.0)


def test_build_coefficients_keeps_tau0_and_no_view_of_t():
    modes = modes_1d([1, 2])
    t_on = np.eye(3) + 0.1j * np.ones((3, 3))
    coeffs = build_coefficients(modes, t_on, Statistics.BOSE, 2.0 * U)
    assert coeffs.tau0 == collision_time_estimate(t_on)
    for array in (coeffs.veff, coeffs.jump, coeffs.gamma2):
        assert not np.shares_memory(array, t_on)
    assert t_on.flags.writeable
    assert build_coefficients(modes, np.zeros((3, 3)), Statistics.BOSE, 1.0).tau0 == math.inf


def test_veff_hermitian_exchange_symmetric_and_born():
    modes = modes_1d([1, 2, 3])
    g, eps = 1e-3, 0.1
    vt = potential_tensor(modes, Contact(g), GEOM)
    v_pair = pair_matrix_from_tensor(vt, Statistics.BOSE)
    t_on = onshell_tmatrix(modes, v_pair, Statistics.BOSE, eps)
    coeffs = build_coefficients(modes, t_on, Statistics.BOSE, 5.0)
    assert frob(coeffs.veff - coeffs.veff.conj().T) == 0.0
    # its tensor form is hermitian and exchange-symmetric
    v, _ = tensor_coefficients(coeffs, t_on)
    assert frob(v - v.transpose(3, 2, 1, 0).conj()) < 1e-12 * max(1.0, frob(v))
    assert frob(v - v.transpose(1, 0, 3, 2)) < 1e-12 * max(1.0, frob(v))
    # weak coupling at finite eps: effective kernel reduces to the bare one
    assert frob(v - vt) < 0.05 * frob(vt)
    h_eff = hamiltonian(build_basis(3, 2, Statistics.BOSE), coeffs.modes, coeffs.veff).dense()
    assert frob(h_eff - h_eff.conj().T) < 1e-11


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_channel_norms_match_pair_amplitudes(statistics):
    modes, t_on, coeffs = contact_coefficients(statistics=statistics)
    basis = build_basis(3, 2, statistics)
    ordered = ordered_channels(Lprime(basis, coeffs))
    # the jump operators act only on the two-particle sector
    assert all(block.shape[2] == 0 for block in ordered[:2])
    two = basis.sectors[2]
    pairs = pair_basis(3, statistics)
    rates = rate_matrix(modes, t_on, statistics, coeffs.delta)
    # the ordered channel R_kl of `family_form` takes the normalized pair state
    # q to the vacuum with amplitude c_kl J[p(k, l), q]
    channels = ordered[2]
    index = {p: i for i, p in enumerate(pairs)}
    for k in range(3):
        for lam in range(3):
            pair = (min(k, lam), max(k, lam))
            if pair not in index:
                assert frob(channels[k, lam]) == 0.0
                continue
            boost = math.sqrt(2.0) if k == lam else 1.0
            for j, (q1, q2) in enumerate(pairs):
                q = two_particle_state(basis, q1, q2)
                expected = boost * abs(rates[index[pair], j])
                assert np.linalg.norm(channels[k, lam] @ q[two]) == pytest.approx(
                    expected, rel=1e-10, abs=1e-12
                )


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_gamma_golden_rule_diagonal(statistics):
    modes, t_on, coeffs = contact_coefficients(statistics=statistics)
    basis = build_basis(3, 2, statistics)
    gamma = Lprime(basis, coeffs).gamma.dense()
    assert frob(gamma - gamma.conj().T) < 1e-12 * max(1.0, frob(gamma))
    assert np.min(np.linalg.eigvalsh(gamma)) > -1e-12
    pairs = pair_basis(3, statistics)
    rates = rate_matrix(modes, t_on, statistics, coeffs.delta)
    for j, (q1, q2) in enumerate(pairs):
        q = two_particle_state(basis, q1, q2)
        total = 0.5 * np.sum(np.abs(rates[:, j]) ** 2)
        assert np.vdot(q, gamma @ q).real == pytest.approx(total, rel=1e-10, abs=1e-13)


def test_channel_trace_balance():
    modes, t_on, coeffs = contact_coefficients()
    basis = build_basis(3, 2, Statistics.BOSE)
    channels = ordered_channels(Lprime(basis, coeffs))
    pairs = pair_basis(3, Statistics.BOSE)
    rates = rate_matrix(modes, t_on, Statistics.BOSE, coeffs.delta)
    index = {p: i for i, p in enumerate(pairs)}
    total_operator = 0.0
    total_rates = 0.0
    for k in range(3):
        for lam in range(3):
            op_trace = sum(np.trace(block[k, lam].conj().T @ block[k, lam]).real
                           for block in channels)
            weight = 2.0 if k == lam else 1.0
            rate_sum = weight * np.sum(np.abs(rates[index[(min(k, lam), max(k, lam))]]) ** 2)
            assert op_trace == pytest.approx(rate_sum, rel=1e-9, abs=1e-12)
            total_operator += op_trace
            total_rates += rate_sum
    gamma = Lprime(basis, coeffs).gamma.dense()
    assert 4.0 * np.trace(gamma).real == pytest.approx(total_operator, rel=1e-12)
    assert total_operator == pytest.approx(total_rates, rel=1e-9)


def test_free_generator_is_pure_streaming():
    modes = modes_1d([1, 2, 3])
    pairs = pair_basis(3, Statistics.BOSE)
    t_on = np.zeros((len(pairs), len(pairs)), dtype=complex)
    coeffs = build_coefficients(modes, t_on, Statistics.BOSE, 1.0)
    basis = build_basis(3, 2, Statistics.BOSE)
    lp = Lprime(basis, coeffs)
    w = np.array([m.w for m in modes])
    a = ladder_ops(basis)
    adag = a.conj().transpose(0, 2, 1)
    for h in range(3):
        for k in range(3):
            expected = (1j / HBAR) * (w[h] - w[k]) * (adag[h] @ a[k])
            got = bilinear_image(lp, h, k).dense()
            assert frob(got - expected) < 1e-12 * max(1.0, frob(expected))
    report = conservation_report(lp)
    assert report.mass_residual == 0.0
    assert report.energy_residual < 1e-12
    assert report.energy_collision < 1e-12
    assert positivity_check(lp, n_samples=100, tau_max=1e-3, seed=3).passed
    with pytest.raises(ValueError, match="vanish"):
        negative_tau_witness(lp)


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_hermiticity_compatible_action(statistics):
    coeffs = loss_coefficients(statistics)
    assert frob(coeffs.jump) > 0.0
    basis = build_basis(3, 2, statistics)
    lp = Lprime(basis, coeffs)
    for h in range(3):
        for k in range(3):
            left = bilinear_image(lp, h, k).dense().conj().T
            right = bilinear_image(lp, k, h).dense()
            assert frob(left - right) < 1e-12 * max(1.0, frob(right))
    # matrix-free family form against the dense contraction over the images,
    # at n_max 3 where the loss term a†_h Gamma a_k does not vanish
    basis = build_basis(3, 3, statistics)
    lp = Lprime(basis, coeffs)
    images = np.array([[bilinear_image(lp, h, k).dense() for k in range(3)] for h in range(3)])
    a = ladder_ops(basis)
    rng = np.random.default_rng(2)
    for _ in range(5):
        psi = rng.standard_normal((3, basis.dim)) + 1j * rng.standard_normal((3, basis.dim))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        phi = np.einsum("kab,kb->a", a, psi)
        q1 = np.einsum("ha,hkab,kb->", psi.conj(), images, psi)
        q0_form, q1_form, gain = lp.family_form(psi)
        assert q0_form == pytest.approx(np.vdot(phi, phi).real, rel=1e-12)
        assert abs(q1_form - q1) <= 1e-12 * max(1.0, abs(q1))
        assert gain >= 0.0


def test_mass_conserved_by_collisions():
    _, _, coeffs = contact_coefficients(g=2.0)
    basis = build_basis(3, 2, Statistics.BOSE)
    lp = Lprime(basis, coeffs)
    image = sum(bilinear_image(lp, h, h).dense() for h in range(3))
    assert frob(image) < 1e-10
    report = conservation_report(lp)
    assert report.mass_residual < 1e-10
    assert report.energy_residual > 0.0
    assert isinstance(report, ConservationReport)


def test_energy_residual_shrinks_with_smearing_width():
    # 1D numbers {1, 4, 7, 8}: the pair (1,8) is exactly degenerate with (4,7)
    # and couples to it; parity keeps the closest coupled off-resonant channels
    # 18 energy units (~88.8) away, so the 4-delta support prunes them in turn.
    geom = BoxGeometry((1.0,))
    modes = modes_from_numbers(geom, [(1,), (4,), (7,), (8,)])
    vt = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(1.0, 0.25), geom, order=32),
                                 Statistics.BOSE)
    t_on = onshell_tmatrix(modes, vt, Statistics.BOSE, 5.0)
    basis = build_basis(4, 2, Statistics.BOSE)
    reports = []
    for delta in (48.0, 24.0, 12.0):
        coeffs = build_coefficients(modes, t_on, Statistics.BOSE, delta)
        reports.append(conservation_report(Lprime(basis, coeffs)))
    streams = [r.energy_streaming for r in reports]
    assert streams[0] > 0.0
    assert max(streams) - min(streams) < 1e-12 * streams[0]
    collisions = [r.energy_collision for r in reports]
    assert collisions[0] > 0.0
    assert collisions[0] >= 2.0 * collisions[1]
    assert collisions[1] >= 2.0 * collisions[2]


@pytest.mark.parametrize("inputs", ["contact", "gaussian"])
def test_conservation_split_matches_free_hamiltonian_commutator(inputs):
    # oracle: the streaming image (i/hbar)[H_eff, H0] from a separately built
    # free Hamiltonian, and the collision part as L'(H0) less that image
    if inputs == "contact":
        modes, _, coeffs = contact_coefficients(g=1.7)
        basis = build_basis(3, 3, Statistics.BOSE)
    else:
        modes = modes_1d((1, 2, 3, 5))
        vt = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(1.2, 0.3), GEOM),
                                     Statistics.FERMI)
        coeffs = build_coefficients(modes, onshell_tmatrix(modes, vt, Statistics.FERMI, 10.0),
                                    Statistics.FERMI, 5.0)
        basis = build_basis(4, 3, Statistics.FERMI)
    lp = Lprime(basis, coeffs)
    free = free_hamiltonian(basis, modes)
    streaming = BlockDiagonal(free.slices, tuple((1j / HBAR) * comm(h, h0)
                                                 for h, h0 in lp.h_eff.pairs(free)))
    image = lp.apply(np.diag([m.w for m in modes]))
    report = conservation_report(lp)
    assert report.energy_streaming > 0.0
    assert report.energy_collision > 0.0
    assert report.energy_streaming == pytest.approx(streaming.norm(), rel=1e-12)
    assert report.energy_collision == pytest.approx((image - streaming).norm(), rel=1e-12)
    assert report.energy_residual == pytest.approx(image.norm(), rel=1e-12)


@pytest.mark.parametrize("statistics, n_modes, n_max", [
    (Statistics.BOSE, 1, 1), (Statistics.BOSE, 1, 3), (Statistics.BOSE, 3, 2),
    (Statistics.BOSE, 4, 3), (Statistics.BOSE, 6, 3),
    (Statistics.FERMI, 1, 1), (Statistics.FERMI, 3, 2), (Statistics.FERMI, 3, 3),
    (Statistics.FERMI, 5, 2), (Statistics.FERMI, 6, 3), (Statistics.FERMI, 4, 4),
])
def test_annihilator_kernel_has_structural_rank(statistics, n_modes, n_max):
    basis = build_basis(n_modes, n_max, statistics)
    stack = np.concatenate(list(ladder_ops(basis)), axis=1)
    kernel = annihilator_kernel(basis)
    assert stack.dtype == kernel.dtype == np.float64
    d_top = sector_dimension(n_modes, n_max, statistics)
    assert kernel.shape == (n_modes * basis.dim, (n_modes - 1) * basis.dim + d_top)
    assert frob(kernel.conj().T @ kernel - np.eye(kernel.shape[1])) <= 1e-12
    assert frob(stack @ kernel) <= 1e-12
    oracle = scipy.linalg.null_space(stack)
    assert frob(kernel @ kernel.conj().T - oracle @ oracle.conj().T) <= 1e-12


@pytest.mark.parametrize("statistics, n_modes, n_max", [
    (Statistics.BOSE, 3, 2), (Statistics.BOSE, 2, 2), (Statistics.FERMI, 3, 2),
    (Statistics.FERMI, 4, 4), (Statistics.BOSE, 1, 3), (Statistics.BOSE, 6, 3),
    (Statistics.FERMI, 6, 3),
])
def test_closed_form_kernel_matches_the_svd_kernel(statistics, n_modes, n_max):
    # dims 10, 6, 7, 16, 4, 84 and 42: on both sides of dim 25, where LAPACK's
    # SVD of the diagonal L permutes its null rows below and keeps them above
    basis = build_basis(n_modes, n_max, statistics)
    oracle = annihilator_kernel(basis)
    kernel = AnnihilatorKernel(basis)
    assert kernel.shape == oracle.shape
    assert np.max(np.abs(kernel @ np.eye(oracle.shape[1]) - oracle)) <= 1e-13
    rng = np.random.default_rng(3)
    for coords in (rng.standard_normal(oracle.shape[1]),
                   rng.standard_normal((oracle.shape[1], 2))):
        assert np.max(np.abs(kernel @ coords - oracle @ coords)) <= 1e-13


def small_bases_up_to(cap):
    """(statistics, n_modes, n_max) of every basis of dim <= cap with at most cap modes."""
    out = []
    for statistics in Statistics:
        for n_modes in range(1, cap + 1):
            top = n_modes if statistics is Statistics.FERMI else cap
            for n_max in range(top + 1):
                dim = sum(sector_dimension(n_modes, n, statistics) for n in range(n_max + 1))
                if dim > cap:
                    break
                out.append((statistics, n_modes, n_max))
    return out


@pytest.mark.parametrize("statistics, n_modes, n_max", small_bases_up_to(25) + [
    (Statistics.BOSE, 6, 3), (Statistics.BOSE, 3, 6), (Statistics.BOSE, 12, 2),
    (Statistics.BOSE, 5, 4), (Statistics.BOSE, 8, 4), (Statistics.FERMI, 8, 3),
    (Statistics.FERMI, 7, 7), (Statistics.FERMI, 10, 4),
])
def test_null_rows_follow_lapack_order(statistics, n_modes, n_max):
    # every basis up to dim 25, where LAPACK's SVD of the diagonal L runs
    # dlasdq and permutes its null rows, and eight above it (dims 84-495)
    basis = build_basis(n_modes, n_max, statistics)
    rows = AnnihilatorKernel(basis)._null_rows
    assert np.array_equal(np.eye(basis.dim)[rows], svd_null_rows(basis))


@st.composite
def small_bases(draw):
    statistics = draw(st.sampled_from(tuple(Statistics)))
    n_modes = draw(st.integers(1, 5))
    top = 4 if statistics is Statistics.BOSE else n_modes
    return build_basis(n_modes, draw(st.integers(0, min(4, top))), statistics)


@settings(max_examples=60, deadline=None)
@given(basis=small_bases(), seed=st.integers(0, 2**32 - 1))
def test_closed_form_kernel_is_annihilated_and_rotates_isometrically(basis, seed):
    kernel = AnnihilatorKernel(basis)
    rng = np.random.default_rng(seed)
    combo = kernel @ rng.standard_normal(kernel.shape[1])
    stack = np.concatenate(list(ladder_ops(basis)), axis=1)
    scale = np.linalg.norm(combo) * max(1.0, np.max(np.abs(stack)))
    assert np.linalg.norm(stack @ combo) <= 1e-13 * scale
    y = rng.standard_normal((basis.n_modes, basis.dim, 3))
    norms = np.linalg.norm(y, axis=(0, 1))
    assert np.allclose(np.linalg.norm(kernel.rotate(y.copy()), axis=(0, 1)), norms,
                       rtol=1e-13, atol=0.0)


def test_positivity_sampled_families():
    _, _, coeffs = contact_coefficients(g=1.0)
    basis = build_basis(3, 2, Statistics.BOSE)
    lp = Lprime(basis, coeffs)
    report = positivity_check(lp, n_samples=300, tau_max=1e-3, seed=7)
    assert report.passed
    assert report.min_real > -1e-10
    assert report.max_imag <= 1e-10
    assert 0.0 < report.worst_tau <= 1e-3
    with pytest.raises(ValueError):
        positivity_check(lp, n_samples=10, tau_max=0.0)


def loop_positivity(lp, n_samples, tau_max, seed):
    """Oracle: one family per `family_form` call, tracked sample by sample."""
    rng = np.random.default_rng(seed)
    n, dim = lp.basis.n_modes, lp.basis.dim
    min_real, max_imag, worst_sample, worst_tau = math.inf, 0.0, -1, 0.0
    for i in range(n_samples):
        psi = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        tau = tau_max * (1.0 - rng.uniform())
        q0, q1, _ = lp.family_form(psi)
        q = complex(q0 + tau * q1)
        if q.real < min_real:
            min_real, worst_sample, worst_tau = q.real, i, tau
        max_imag = max(max_imag, abs(q.imag))
    return min_real, max_imag, worst_sample, worst_tau


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_family_form_stack_matches_per_family_calls(statistics):
    lp = Lprime(build_basis(3, 3, statistics), loss_coefficients(statistics))
    rng = np.random.default_rng(5)
    psi = (rng.standard_normal((2, 4, 3, lp.basis.dim))
           + 1j * rng.standard_normal((2, 4, 3, lp.basis.dim)))
    stacked = lp.family_form(psi)
    single = [lp.family_form(family) for family in psi.reshape(8, 3, -1)]
    for got, want in zip(stacked, zip(*single)):
        want = np.array(want).reshape(2, 4)
        assert got.shape == (2, 4)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_positivity_check_matches_per_family_loop(monkeypatch, statistics, chunk):
    monkeypatch.setattr(generator, "_POSITIVITY_CHUNK", chunk)
    lp = Lprime(build_basis(3, 3, statistics), loss_coefficients(statistics))
    assert lp.gamma.norm() > 0.0
    for seed in (0, 3):
        report = positivity_check(lp, n_samples=150, tau_max=1e-3, seed=seed)
        min_real, max_imag, worst_sample, worst_tau = loop_positivity(lp, 150, 1e-3, seed)
        assert report.worst_sample == worst_sample
        assert report.worst_tau == worst_tau
        assert abs(report.min_real - min_real) <= 1e-12 * max(1.0, abs(min_real))
        assert abs(report.max_imag - max_imag) <= 1e-12


@pytest.mark.parametrize("chunk", [1, 7, 32])
@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_positivity_check_matches_per_sample_draws_bit_for_bit(monkeypatch, statistics, chunk):
    # one (2, n, dim) draw per sample is the stream of two (n, dim) draws
    monkeypatch.setattr(generator, "_POSITIVITY_CHUNK", chunk)
    lp = Lprime(build_basis(3, 3, statistics), loss_coefficients(statistics))
    for seed in (0, 3, 7):
        assert positivity_check(lp, 70, 1e-3, seed) == per_sample_positivity(lp, 70, 1e-3, seed)


@pytest.mark.parametrize("statistics, n_modes, n_max", [
    (Statistics.BOSE, 3, 2), (Statistics.BOSE, 3, 3),
    (Statistics.FERMI, 3, 2), (Statistics.FERMI, 3, 3),
])
def test_witness_matches_the_complex_stack_oracle(statistics, n_modes, n_max):
    lp = Lprime(build_basis(n_modes, n_max, statistics), loss_coefficients(statistics))
    for seed in (0, 1, 5, 11):
        got = negative_tau_witness(lp, tau=-1e-3, seed=seed)
        want = complex_stack_witness(lp, tau=-1e-3, seed=seed)
        assert got.family.dtype == complex
        assert abs(got.q_value - want.q_value) <= 1e-10 * abs(want.q_value)
        assert abs(got.gain_form - want.gain_form) <= 1e-10 * want.gain_form
        assert np.max(np.abs(got.family - want.family)) <= 1e-10


def test_negative_tau_witness_flips_sign():
    _, _, coeffs = contact_coefficients(g=1.0)
    basis = build_basis(3, 2, Statistics.BOSE)
    lp = Lprime(basis, coeffs)
    witness = negative_tau_witness(lp, tau=-1e-3, seed=11)
    assert witness.gain_form > 0.0
    assert witness.q_value < -1e-12
    assert witness.q_value == pytest.approx(-1e-3 * witness.gain_form, rel=1e-6)
    with pytest.raises(ValueError):
        negative_tau_witness(lp, tau=0.5)


def test_apply_expands_over_bilinears():
    modes, t_on, coeffs = contact_coefficients(g=1.2)
    basis = build_basis(3, 2, Statistics.BOSE)
    lp = Lprime(basis, coeffs)
    w = np.array([m.w for m in modes])
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for kernel in (np.diag(w), c):
        direct = sum(kernel[h, k] * bilinear_image(lp, h, k).dense()
                     for h in range(3) for k in range(3))
        assert frob(lp.apply(kernel).dense() - direct) < 1e-10 * max(1.0, frob(direct))
    stacked = lp.images([np.diag(w), c])
    assert (stacked[1] - lp.apply(c)).norm() == 0.0
    # against the loop-built oracle, for a kernel with no symmetry, at n_max 3
    deep = build_basis(3, 3, Statistics.BOSE)
    oracle = sum(c[h, k] * oracle_bilinear_image(deep, modes, coeffs, t_on, h, k)
                 for h in range(3) for k in range(3))
    got = Lprime(deep, coeffs).apply(c).dense()
    assert frob(got - oracle) < 1e-10 * max(1.0, frob(oracle))
    with pytest.raises(ValueError):
        lp.apply(np.eye(4))


@pytest.mark.parametrize("statistics, n_modes, n_max", [
    (Statistics.BOSE, 3, 0), (Statistics.BOSE, 3, 1), (Statistics.FERMI, 3, 1),
    (Statistics.FERMI, 1, 1), (Statistics.FERMI, 1, 0), (Statistics.BOSE, 1, 3),
    (Statistics.BOSE, 3, 3), (Statistics.FERMI, 4, 3),
])
def test_apply_on_unit_kernels_matches_the_dense_parts(statistics, n_modes, n_max):
    # a†_h a_k with h != k is not hermitian; n_max <= 1 leaves no pair
    # sector, and one Fermi mode has no pair state at all (P = 0)
    modes = modes_1d(range(1, n_modes + 1))
    vt = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(1.5, 0.25), GEOM), statistics)
    t_on = onshell_tmatrix(modes, vt, statistics, 10.0)
    coeffs = build_coefficients(modes, t_on, statistics, 5.0)
    lp = Lprime(build_basis(n_modes, n_max, statistics), coeffs)
    for h in range(n_modes):
        for k in range(n_modes):
            unit = np.zeros((n_modes, n_modes))
            unit[h, k] = 1.0
            want = dense_parts(lp.basis, coeffs, t_on, unit)
            scale = max(1.0, float(np.max(np.abs(sum(want)))))
            assert np.max(np.abs(lp.apply(unit).dense() - sum(want))) <= 1e-12 * scale
            # streaming, and collision = loss + gain
            for got, part in zip(lp.parts(unit), (want[0], want[1] + want[2])):
                assert np.max(np.abs(got.dense() - part)) <= 1e-12 * scale


def test_lprime_rejects_mismatched_basis():
    _, _, coeffs = contact_coefficients()
    with pytest.raises(ValueError, match="match"):
        Lprime(build_basis(4, 2, Statistics.BOSE), coeffs)
    with pytest.raises(ValueError, match="match"):
        Lprime(build_basis(3, 2, Statistics.FERMI), coeffs)


@pytest.mark.parametrize("statistics, lengths, n_modes", [
    (Statistics.BOSE, (1.0,), 4), (Statistics.FERMI, (1.0,), 4),
    (Statistics.BOSE, (1.0, 1.07, 1.13), 6), (Statistics.FERMI, (1.0, 1.07, 1.13), 6),
    (Statistics.FERMI, (1.0,), 1),
], ids=["1d-bose", "1d-fermi", "3d-bose", "3d-fermi", "one-mode-fermi"])
def test_every_two_body_array_is_a_pair_matrix(statistics, lengths, n_modes):
    # the coefficient set and the two-body part of every generator image are
    # P x P over pair_basis; one Fermi mode has no pair state, so P = 0
    geom = BoxGeometry(lengths)
    modes = box_modes(geom, n_modes)
    v_pair = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(1.0, 0.25), geom),
                                     statistics)
    t_on = onshell_tmatrix(modes, v_pair, statistics, 10.0)
    coeffs = build_coefficients(modes, t_on, statistics, 5.0)
    n_pairs = len(pair_basis(n_modes, statistics))
    for array in (coeffs.veff, coeffs.jump, t_on):
        assert array.shape == (n_pairs, n_pairs)
    kernels = np.eye(n_modes)[None].repeat(3, axis=0)
    k1, k2 = reduced_images(coeffs, kernels)
    assert k1.shape == (3, n_modes, n_modes)
    assert k2.shape == (3, n_pairs, n_pairs)
    assert _ordered_jumps(coeffs).shape == (n_modes, n_modes, n_pairs)
    basis = build_basis(n_modes, 2 if n_modes > 1 else 1, statistics)
    assert all(array.shape[1] == n_pairs for array in basis.pair_creators())
