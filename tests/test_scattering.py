import numpy as np
import pytest
import scipy.linalg

from boxgas.fieldmodel import (
    HBAR,
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    box_modes,
    contact_tensor,
    free_hamiltonian,
    hamiltonian,
    mode_energies,
    potential_tensor,
)
from boxgas.fieldmodel import _pair_tensor
from boxgas.fock import (
    Statistics,
    build_basis,
    ladder_ops,
    one_body_operator,
    pair_matrix_from_tensor,
)
from boxgas.generator import Lprime, build_coefficients
from boxgas.matrixutil import BlockDiagonal
from boxgas.scattering import (
    _spectral_tmatrix,
    collision_time_estimate,
    onshell_tmatrix,
    pair_basis,
    pair_classes,
    pair_energies,
)
from dense_oracles import (
    CoarseWindow,
    WindowError,
    coarse_grained_check,
    coarse_window,
    comm,
    dense_coarse_deltas,
    dense_two_body,
    heisenberg_evolve,
    scaling_exponent,
    spectral_decomposition,
    state_index,
    tensor_from_pair_matrix,
    whole_space_onshell_tmatrix,
)

GEOM = BoxGeometry((1.0,))
# the box of the pair3d benchmark workload
PAIR3D_GEOM = BoxGeometry((1.0, 1.07, 1.13))
SINGULAR_GAP = 1e-12


class SingularQuery(ValueError):
    """Resolvent evaluated within SINGULAR_GAP of a generator eigenvalue."""


def resolvent_apply(h, z, x):
    """Solve (z - (i/hbar)[H, .]) Y = X spectrally."""
    dec = spectral_decomposition(h)
    q = dec.vectors
    x_tilde = q.conj().T @ x @ q
    freq = 1j * (dec.energies[:, None] - dec.energies[None, :]) / HBAR
    denom = z - freq
    gap = float(np.min(np.abs(denom)))
    if gap <= SINGULAR_GAP:
        raise SingularQuery(
            f"z = {z} lies within {gap:.3e} of a generator eigenvalue"
        )
    return q @ (x_tilde / denom) @ q.conj().T


def scattering_map_apply(h0, v, z, x):
    """T(z) X = V' X + V' (z - H')^{-1} V' X with V' = (i/hbar)[V, .]."""
    vx = (1j / HBAR) * (v @ x - x @ v)
    inner = resolvent_apply(h0 + v, z, vx)
    return vx + (1j / HBAR) * (v @ inner - inner @ v)


def pair_tmatrix(modes, vtensor, z):
    """Bose pair energies, V on the pair basis, and T(z) = V + V (z - H_pair)^{-1} V,
    the Lippmann-Schwinger solution T = V + V G0(z) T, at one z."""
    pairs = pair_basis(len(modes), Statistics.BOSE)
    energies = pair_energies(modes, pairs)
    v_pair = pair_matrix_from_tensor(vtensor, Statistics.BOSE)
    (t,) = _spectral_tmatrix(v_pair, energies, [z], pair_classes(modes, pairs))
    return energies, v_pair, t


def vec(a):
    """Row-major flattening, the order `liouvillian` acts on."""
    return a.reshape(-1)


def unvec(v, dim):
    return v.reshape(dim, dim)


def liouvillian(h, hbar=HBAR):
    """Superoperator matrix of X -> (i/hbar)[H, X] on row-major vec(X)."""
    n = h.shape[0]
    eye = np.eye(n)
    return (1j / hbar) * (np.kron(h, eye) - np.kron(eye, h.T))


def loop_pair_matrix(tensor, pairs, stats):
    """Pair-basis matrix element by element; oracle for pair_matrix_from_tensor."""
    norms = [1.0 if stats is Statistics.FERMI or p1 != p2 else 1.0 / np.sqrt(2.0)
             for p1, p2 in pairs]
    sign = -1.0 if stats is Statistics.FERMI else 1.0
    m = np.empty((len(pairs), len(pairs)), dtype=complex)
    for i, (p1, p2) in enumerate(pairs):
        for j, (q1, q2) in enumerate(pairs):
            m[i, j] = norms[i] * norms[j] * (
                tensor[p1, p2, q2, q1] + sign * tensor[p1, p2, q1, q2]
            )
    return m


def loop_pair_tensor(m, pairs, stats, n_modes):
    """Rank-4 tensor entry by entry; oracle for tensor_from_pair_matrix."""
    norms = [1.0 if stats is Statistics.FERMI or p1 != p2 else 1.0 / np.sqrt(2.0)
             for p1, p2 in pairs]
    tensor = np.zeros((n_modes,) * 4, dtype=complex)
    for i, (p1, p2) in enumerate(pairs):
        for j, (q1, q2) in enumerate(pairs):
            if stats is Statistics.FERMI:
                half = 0.5 * m[i, j]
                for la, lb, ls in ((p1, p2, 1.0), (p2, p1, -1.0)):
                    for fa, fb, fs in ((q1, q2, 1.0), (q2, q1, -1.0)):
                        tensor[la, lb, fb, fa] = ls * fs * half
            else:
                val = 0.5 * m[i, j] / (norms[i] * norms[j])
                for la, lb in {(p1, p2), (p2, p1)}:
                    for fa, fb in {(q1, q2), (q2, q1)}:
                        tensor[la, lb, fb, fa] = val
    return tensor


def ls_onshell_oracle(modes, vtensor, stats, eps):
    """Dense Lippmann-Schwinger solve T = V + V G0(z) T once per distinct pair
    energy, column q at z = E_q + i eps, extrapolated as 2 T(eps/2) - T(eps)."""
    pairs = pair_basis(len(modes), stats)
    energies = pair_energies(modes, pairs)
    v_pair = loop_pair_matrix(vtensor, pairs, stats)

    def solve_at(e):
        t = np.empty_like(v_pair)
        for col_energy in np.unique(energies):
            cols = np.flatnonzero(np.abs(energies - col_energy) < 1e-12)
            g0 = 1.0 / (col_energy + 1j * e - energies)
            lhs = np.eye(len(energies)) - v_pair * g0[None, :]
            t[:, cols] = np.linalg.solve(lhs, v_pair)[:, cols]
        return t

    return 2.0 * solve_at(0.5 * eps) - solve_at(eps)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def test_spectral_decomposition_reconstructs():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 6)
    dec = spectral_decomposition(h)
    assert np.linalg.norm(dec.reconstruct() - h) < 1e-12
    with pytest.raises(ValueError, match="hermitian"):
        spectral_decomposition(h + 0.1j * np.eye(6))


def test_heisenberg_identity_and_energy_conservation():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 5)
    x = random_hermitian(rng, 5)
    assert np.allclose(heisenberg_evolve(h, x, 0.0), x, atol=1e-13)
    assert np.allclose(heisenberg_evolve(h, h, 1.7), h, atol=1e-12)


def test_heisenberg_short_time_derivative():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 5)
    x = random_hermitian(rng, 5)
    target = 1j * comm(h, x)
    errs = []
    for t in (1e-3, 5e-4):
        approx = (heisenberg_evolve(h, x, t) - x) / t
        errs.append(np.linalg.norm(approx - target))
    assert errs[1] < 0.6 * errs[0]  # first-order remainder shrinks linearly


def test_heisenberg_preserves_spectrum_and_group_law():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 6)
    x = random_hermitian(rng, 6)
    y = heisenberg_evolve(h, x, 0.9)
    assert np.allclose(np.linalg.eigvalsh(y), np.linalg.eigvalsh(x), atol=1e-10)
    once = heisenberg_evolve(h, heisenberg_evolve(h, x, 0.4), 0.5)
    assert np.linalg.norm(once - y) < 1e-10


def test_liouvillian_eigenoperators_and_kernel():
    energies = np.array([0.3, 1.1, 2.4])
    h = np.diag(energies).astype(complex)
    sup = liouvillian(h)
    n = 3
    for a in range(n):
        for b in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[a, b] = 1.0
            out = unvec(sup @ vec(x), n)
            assert np.allclose(out, 1j * (energies[a] - energies[b]) * x, atol=1e-13)
    assert np.allclose(unvec(sup @ vec(np.eye(3, dtype=complex)), 3), 0.0, atol=1e-13)


def test_liouvillian_exponential_matches_heisenberg():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = 0.37
    via_series = unvec(scipy.linalg.expm(t * liouvillian(h)) @ vec(x), 4)
    via_spectral = heisenberg_evolve(h, x, t)
    assert np.linalg.norm(via_series - via_spectral) < 1e-10


def test_resolvent_explicit_cases():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 5)
    z = 0.8 + 0.6j
    assert np.allclose(resolvent_apply(h, z, np.eye(5, dtype=complex)), np.eye(5) / z, atol=1e-12)
    hnorm = np.linalg.norm(liouvillian(h), 2)
    big = 1e6 * hnorm
    x = random_hermitian(rng, 5)
    assert np.linalg.norm(big * resolvent_apply(h, big, x) - x) < 1e-4


def test_resolvent_residual_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        h = random_hermitian(rng, n)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = complex(rng.normal(), 0.5 + rng.uniform())
        y = resolvent_apply(h, z, x)
        residual = z * y - 1j * comm(h, y) - x
        assert np.linalg.norm(residual) < 1e-10


def test_resolvent_singular_query():
    h = np.diag([0.0, 1.0]).astype(complex)
    x = np.eye(2, dtype=complex)
    with pytest.raises(SingularQuery):
        resolvent_apply(h, 1j * (1.0 - 0.0), x)


def test_scattering_map_zero_potential():
    rng = np.random.default_rng(7)
    h0 = random_hermitian(rng, 4)
    x = random_hermitian(rng, 4)
    out = scattering_map_apply(h0, np.zeros((4, 4), dtype=complex), 0.3 + 0.4j, x)
    assert np.linalg.norm(out) < 1e-13


def test_scattering_map_born_limit():
    rng = np.random.default_rng(8)
    h0 = random_hermitian(rng, 4)
    v1 = 0.02 * random_hermitian(rng, 4)
    x = random_hermitian(rng, 4)
    z = 0.5 + 0.7j
    errs = []
    for v in (v1, 0.5 * v1):
        born = 1j * comm(v, x)
        errs.append(np.linalg.norm(scattering_map_apply(h0, v, z, x) - born))
    # remainder is quadratic in the coupling
    assert errs[1] < 0.35 * errs[0]


def test_resolvent_identity_with_scattering_map():
    # (z-H')^{-1} = (z-H'_0)^{-1} + (z-H'_0)^{-1} T(z) (z-H'_0)^{-1}
    rng = np.random.default_rng(9)
    n = 5
    h0 = random_hermitian(rng, n)
    v = 0.4 * random_hermitian(rng, n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for _ in range(5):
        z = complex(rng.normal(scale=2.0), 0.4 + rng.uniform())
        lhs = resolvent_apply(h0 + v, z, x)
        free = resolvent_apply(h0, z, x)
        rhs = free + resolvent_apply(h0, z, scattering_map_apply(h0, v, z, free))
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_pair_matrix_matches_fock_sector():
    geom = GEOM
    modes = box_modes(geom, 3)
    tensor = contact_tensor(modes, Contact(g=0.8), geom)
    for stats in (Statistics.BOSE, Statistics.FERMI):
        basis = build_basis(3, 2, stats)
        v_op = dense_two_body(basis, tensor)
        pairs = pair_basis(3, stats)
        dim = basis.dim
        a = ladder_ops(basis)
        vecs = []
        for p1, p2 in pairs:
            vac = np.zeros(dim)
            vac[state_index(basis, (0, 0, 0))] = 1.0
            state = a[p1].conj().T @ a[p2].conj().T @ vac
            vecs.append(state / np.linalg.norm(state))
        fock_block = np.array(
            [[np.vdot(vi, v_op @ vj) for vj in vecs] for vi in vecs]
        )
        direct = pair_matrix_from_tensor(tensor, stats)
        assert np.max(np.abs(fock_block - direct)) < 1e-12


def test_pair_tensor_round_trip():
    rng = np.random.default_rng(10)
    for stats in (Statistics.BOSE, Statistics.FERMI):
        pairs = pair_basis(3, stats)
        n = len(pairs)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = 0.5 * (m + m.conj().T)
        tensor = tensor_from_pair_matrix(m, pairs, stats, 3)
        back = pair_matrix_from_tensor(tensor, stats)
        assert np.max(np.abs(back - m)) < 1e-12
        assert np.max(np.abs(tensor - tensor.conj().transpose(3, 2, 1, 0))) < 1e-12
        assert np.max(np.abs(tensor - tensor.transpose(1, 0, 3, 2))) < 1e-12


@pytest.mark.parametrize("stats", [Statistics.BOSE, Statistics.FERMI])
@pytest.mark.parametrize("n_modes", [3, 6])
def test_pair_maps_equal_loop_oracles(stats, n_modes):
    rng = np.random.default_rng(11)
    pairs = pair_basis(n_modes, stats)
    n = len(pairs)
    tensor = rng.normal(size=(n_modes,) * 4) + 1j * rng.normal(size=(n_modes,) * 4)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.array_equal(pair_matrix_from_tensor(tensor, stats),
                          loop_pair_matrix(tensor, pairs, stats))
    assert np.array_equal(tensor_from_pair_matrix(m, pairs, stats, n_modes),
                          loop_pair_tensor(m, pairs, stats, n_modes))


@pytest.mark.parametrize("eps", [0.1, 5.0])
@pytest.mark.parametrize("potential, stats, n_modes", [
    (Contact(0.6), Statistics.BOSE, 3),
    (Gaussian(1.0, 0.25), Statistics.BOSE, 4),
    (Gaussian(1.0, 0.25), Statistics.FERMI, 4),
    (Gaussian(1.0, 0.25), Statistics.BOSE, 8),
    (Gaussian(1.0, 0.25), Statistics.FERMI, 8),
])
def test_onshell_tmatrix_matches_ls_oracle(potential, stats, n_modes, eps):
    # a contact tensor vanishes for spinless fermions, so Fermi runs gaussian only
    modes = box_modes(GEOM, n_modes)
    tensor = potential_tensor(modes, potential, GEOM, order=32)
    oracle = ls_onshell_oracle(modes, tensor, stats, eps)
    t_on = onshell_tmatrix(modes, pair_matrix_from_tensor(tensor, stats), stats, eps)
    scale = np.max(np.abs(oracle))
    assert scale > 0.0
    assert np.max(np.abs(t_on - oracle)) <= 1e-9 * scale


def pair3d_case(n_modes):
    modes = box_modes(PAIR3D_GEOM, n_modes)
    return modes, potential_tensor(modes, Gaussian(0.8, 0.25), PAIR3D_GEOM)


def test_onshell_tmatrix_condition_guard():
    modes = box_modes(GEOM, 3)
    cases = [(modes, contact_tensor(modes, Contact(g=0.6), GEOM)), pair3d_case(12)]
    for modes, tensor in cases:
        for solve in (onshell_tmatrix, whole_space_onshell_tmatrix):
            with pytest.raises(ValueError, match="epsilon"):
                v_pair = pair_matrix_from_tensor(tensor, Statistics.BOSE)
                solve(modes, v_pair, Statistics.BOSE, eps=1e-13)


def one_d_case(n_modes, potential, cells=1):
    modes = box_modes(GEOM, n_modes)
    grid = CellGrid(GEOM, (cells,))
    return modes, _pair_tensor(modes, potential, grid, None, 16)


@pytest.mark.parametrize("case, stats", [
    (lambda: one_d_case(6, Contact(0.6)), Statistics.BOSE),
    (lambda: one_d_case(6, Contact(0.6)), Statistics.FERMI),
    (lambda: one_d_case(6, Gaussian(1.0, 0.25)), Statistics.FERMI),
    (lambda: one_d_case(6, Gaussian(1.0, 0.25), cells=3), Statistics.BOSE),
    (lambda: pair3d_case(12), Statistics.BOSE),
    (lambda: pair3d_case(20), Statistics.BOSE),
], ids=["1d-contact-bose", "1d-contact-fermi", "1d-gaussian-fermi",
        "1d-gaussian-3-cells", "pair3d-12", "pair3d-20"])
def test_blocked_tmatrix_matches_whole_space_oracle(case, stats):
    # at the configs' default eps; the spread of the two solves grows as 1/eps
    modes, tensor = case()
    eps = 10.0
    v_pair = pair_matrix_from_tensor(tensor, stats)
    t_on = onshell_tmatrix(modes, v_pair, stats, eps)
    oracle = whole_space_onshell_tmatrix(modes, v_pair, stats, eps)
    assert np.max(np.abs(t_on - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    classes = pair_classes(modes, pair_basis(len(modes), stats))
    between = classes[:, None] != classes[None, :]
    assert between.any()
    assert np.all(t_on[between] == 0.0)


def test_onshell_tmatrix_rejects_a_potential_that_couples_classes():
    # one interaction coordinate restricted to a cell breaks the reflection
    modes = box_modes(GEOM, 4)
    grid = CellGrid(GEOM, (2,))
    tensor = _pair_tensor(modes, Gaussian(1.0, 0.25), grid, 0, 8)
    with pytest.raises(ValueError, match="reflection-parity classes"):
        onshell_tmatrix(modes, pair_matrix_from_tensor(tensor, Statistics.BOSE), Statistics.BOSE,
                        eps=10.0)


def test_tmatrix_empty_pair_basis():
    # one fermionic mode holds no pair state
    modes = box_modes(GEOM, 1)
    t_on = onshell_tmatrix(modes, np.zeros((0, 0)), Statistics.FERMI, eps=0.1)
    assert t_on.shape == (0, 0)


def test_tmatrix_zero_potential():
    modes = box_modes(GEOM, 3)
    zero = np.zeros((3, 3, 3, 3))
    _, _, t = pair_tmatrix(modes, zero, 1.0 + 1e-2j)
    assert np.linalg.norm(t) == 0.0
    assert collision_time_estimate(t) == np.inf


def test_tmatrix_matches_direct_inversion():
    modes = box_modes(GEOM, 3)
    tensor = contact_tensor(modes, Contact(g=0.6), GEOM)
    z = 11.0 + 0.05j
    energies, v_pair, t = pair_tmatrix(modes, tensor, z)
    g0 = np.diag(1.0 / (z - energies))
    oracle = v_pair @ np.linalg.inv(np.eye(len(energies)) - g0 @ v_pair)
    assert np.max(np.abs(t - oracle)) < 1e-10


def test_tmatrix_offshell_unitarity():
    modes = box_modes(GEOM, 3)
    tensor = contact_tensor(modes, Contact(g=0.9), GEOM)
    for z in (8.0 + 0.3j, 20.0 + 0.05j):
        energies, _, t = pair_tmatrix(modes, tensor, z)
        g0 = np.diag(1.0 / (z - energies))
        lhs = t - t.conj().T
        rhs = t @ (g0 - g0.conj().T) @ t.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_tmatrix_born_scaling():
    # Born regime needs the coupling well below the energy resolution eps,
    # otherwise the resonant 1/eps term of G0 dominates
    modes = box_modes(GEOM, 3)
    rel = []
    for g in (1e-4, 5e-5):
        tensor = contact_tensor(modes, Contact(g=g), GEOM)
        v_pair = pair_matrix_from_tensor(tensor, Statistics.BOSE)
        t = onshell_tmatrix(modes, v_pair, Statistics.BOSE, eps=0.1)
        rel.append(np.linalg.norm(t - v_pair) / np.linalg.norm(v_pair))
    assert rel[0] < 0.05
    assert rel[1] == pytest.approx(0.5 * rel[0], rel=0.15)


def test_tmatrix_condition_guard():
    modes = box_modes(GEOM, 3)
    tensor = contact_tensor(modes, Contact(g=50.0), GEOM)
    pairs = pair_basis(3, Statistics.BOSE)
    energies = pair_energies(modes, pairs)
    with pytest.raises(ValueError, match="epsilon"):
        pair_tmatrix(modes, tensor, float(energies[0]) + 1e-13j)


def test_collision_time_scaling_and_correlation():
    modes = box_modes(GEOM, 3)
    taus = []
    for g in (1e-4, 2e-4):
        tensor = contact_tensor(modes, Contact(g=g), GEOM)
        v_pair = pair_matrix_from_tensor(tensor, Statistics.BOSE)
        t_on = onshell_tmatrix(modes, v_pair, Statistics.BOSE, eps=0.1)
        taus.append(collision_time_estimate(t_on))
    assert taus[1] == pytest.approx(0.5 * taus[0], rel=0.05)

    # independent oracle: the memory time of the interaction, defined as the
    # area under |<[V(t), V]>| divided by its peak, should agree with tau0
    # within a factor of 3 once the energy resolution blurs the level spacing
    basis = build_basis(3, 2, Statistics.BOSE)
    w = mode_energies(modes)
    h0 = np.diag([float(w @ occ) for occ in basis.states]).astype(complex)
    unit = contact_tensor(modes, Contact(g=1.0), GEOM)
    v_unit = dense_two_body(basis, unit.astype(complex))
    dim = basis.dim
    rho = np.eye(dim) / dim
    times = np.linspace(0.0, 1.5, 400)
    corr = []
    for t in times:
        vt = heisenberg_evolve(h0, v_unit, float(t))
        corr.append(abs(np.trace(rho @ comm(vt, v_unit))))
    corr = np.array(corr)
    trapz = getattr(np, "trapezoid", None) or np.trapz
    tau_corr = float(trapz(corr, times) / corr.max())
    for g in (2.0, 4.0):
        tensor = contact_tensor(modes, Contact(g=g), GEOM)
        v_pair = pair_matrix_from_tensor(tensor, Statistics.BOSE)
        tau0 = collision_time_estimate(onshell_tmatrix(modes, v_pair, Statistics.BOSE, eps=10.0))
        assert 1.0 / 3.0 < tau0 / tau_corr < 3.0


def test_coarse_window_bounds_and_cap():
    win = coarse_window(tau0=0.1, w_h=2.0, w_k=2.0)
    assert win.t_max == np.inf
    assert win.times[0] == pytest.approx(0.5)
    assert win.times[-1] == pytest.approx(5.0)  # 50 * tau0
    win2 = coarse_window(tau0=1e-3, w_h=1.0, w_k=1.2)
    assert win2.times[-1] <= (1.0 / 0.2) / 5.0 + 1e-12
    assert win2.times[0] >= 5e-3 - 1e-15


def test_coarse_window_empty_raises():
    # off-diagonal 1D bilinears at weak coupling: phase time shorter than
    # five collision times on either side
    with pytest.raises(WindowError, match="no coarse-grained regime"):
        coarse_window(tau0=1.0, w_h=0.0 + 1.0, w_k=3.0)
    with pytest.raises(WindowError):
        coarse_window(tau0=np.inf, w_h=1.0, w_k=1.0)


def unit_kernel(n, h, k):
    unit = np.zeros((n, n))
    unit[h, k] = 1.0
    return unit


def test_coarse_grained_check_free_case():
    # with V = 0 and the bare commutator as generator the discrepancy is the
    # second-order Taylor remainder, so delta(t) = O(t)
    modes = box_modes(GEOM, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    h0 = free_hamiltonian(basis, modes)
    h_idx, k_idx = 0, 1
    x = one_body_operator(basis, unit_kernel(3, h_idx, k_idx))
    lmat = BlockDiagonal(basis.sectors, tuple(1j * comm(hb, xb) for hb, xb in h0.pairs(x)))
    win = CoarseWindow(tau0=1e-3, t_max=np.inf, times=np.array([2e-3, 1e-3, 5e-4]))
    rep = coarse_grained_check(basis, h0, h_idx, k_idx, win, lmat)
    assert rep.deltas[1] == pytest.approx(0.5 * rep.deltas[0], rel=0.05)
    assert rep.deltas[2] == pytest.approx(0.25 * rep.deltas[0], rel=0.05)


def coarse_case(statistics, coupling, n_max):
    """Four modes (1D or the pair3d box), their basis, H and the generator."""
    geom = PAIR3D_GEOM if coupling == "3d gaussian" else GEOM
    modes = box_modes(geom, 4)
    if coupling == "1d contact":
        vt = contact_tensor(modes, Contact(0.7), geom)
    else:
        vt = potential_tensor(modes, Gaussian(1.0, 0.25), geom, order=8)
    vt = pair_matrix_from_tensor(vt, statistics)
    t_on = onshell_tmatrix(modes, vt, statistics, 5.0)
    coeffs = build_coefficients(modes, t_on, statistics, 8.0)
    basis = build_basis(4, n_max, statistics)
    return basis, hamiltonian(basis, modes, vt), Lprime(basis, coeffs), coeffs


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("coupling", ["1d contact", "1d gaussian", "3d gaussian"])
@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_coarse_grained_check_matches_the_dense_path(statistics, coupling, n_max):
    basis, ham, lp, _ = coarse_case(statistics, coupling, n_max)
    times = np.array([0.05, 0.5, 5.0])
    window = CoarseWindow(0.01, np.inf, times)
    for h, k in ((0, 0), (2, 2), (0, 1), (3, 1)):
        image = lp.apply(unit_kernel(4, h, k))
        if image.norm() == 0.0:
            # a diagonal bilinear commutes with H0, and it has no collisions at
            # n_max 1 or under a Fermi contact coupling (which vanishes)
            assert h == k and (n_max == 1 or statistics is Statistics.FERMI)
            with pytest.raises(ValueError, match="vanishes"):
                coarse_grained_check(basis, ham, h, k, window, image)
            continue
        rep = coarse_grained_check(basis, ham, h, k, window, image)
        want = dense_coarse_deltas(basis, ham.dense(), h, k, times, image.dense())
        assert np.array_equal(rep.times, times) and (rep.h, rep.k) == (h, k)
        assert np.max(np.abs(rep.deltas - want) / want) <= 1e-12


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_coarse_grained_check_diagonalises_only_sector_blocks(statistics, monkeypatch):
    basis, ham, lp, _ = coarse_case(statistics, "1d gaussian", 3)
    assert sum(s.stop > s.start for s in basis.sectors) > 1
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    window = CoarseWindow(1.0, np.inf, np.array([1.0, 2.0]))
    coarse_grained_check(basis, ham, 0, 1, window, lp.apply(unit_kernel(4, 0, 1)))
    assert shapes == [(s.stop - s.start,) * 2 for s in basis.sectors]


def test_coarse_grained_check_rejects_a_vanishing_image_and_a_nonhermitian_block():
    basis, ham, lp, _ = coarse_case(Statistics.BOSE, "1d contact", 2)
    window = CoarseWindow(1.0, np.inf, np.array([1.0, 2.0]))
    image = lp.apply(unit_kernel(4, 0, 1))
    with pytest.raises(ValueError, match="vanishes"):
        coarse_grained_check(basis, ham, 0, 1, window, image - image)
    skew = np.triu(np.ones_like(ham.blocks[2]), 1)
    bent = BlockDiagonal(ham.slices, ham.blocks[:2] + (ham.blocks[2] + 0.1j * skew,)
                         + ham.blocks[3:])
    with pytest.raises(ValueError, match="hermitian"):
        coarse_grained_check(basis, bent, 0, 1, window, image)


def test_scaling_exponent_fit():
    gs = [1.0, 0.5, 0.25]
    deltas = [4.0, 1.0, 0.25]  # slope 2 in log-log
    assert scaling_exponent(gs, deltas) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_exponent([1.0], [1.0])
