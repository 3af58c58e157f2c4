import warnings

import numpy as np
import pytest
from dense_oracles import difference_quad_tensor, parity_forbidden, state_index

from boxgas import fieldmodel
from boxgas.fieldmodel import (
    _axis_overlap_matrices,
    HBAR,
    MASS,
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    SoftLennardJones,
    Zero,
    box_modes,
    cell_overlaps,
    contact_tensor,
    energy_density_op,
    free_hamiltonian,
    hamiltonian,
    mass_density_op,
    mode_energies,
    mode_numbers,
    modes_from_numbers,
    momentum_density_op,
    potential_tensor,
    potential_tensor_error,
    quadrature_gram_defect,
    whole_box_grid,
)
from boxgas.fock import Statistics, build_basis, one_body_operator, pair_matrix_from_tensor

GEOM_1D = BoxGeometry((1.0,))
GEOM_3D = BoxGeometry((1.0, 1.0, 1.0))


def gl_integral(func, lo, hi, order=200):
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    pts = half * (x + 1.0) + lo
    return half * float(np.sum(w * func(pts)))


def u(f, length):
    return lambda x: np.sqrt(2.0 / length) * np.sin(f * np.pi * x / length)


def du(f, length):
    return lambda x: np.sqrt(2.0 / length) * (f * np.pi / length) * np.cos(f * np.pi * x / length)


def test_box_modes_1d_spectrum():
    modes = box_modes(GEOM_1D, 3)
    assert [m.numbers for m in modes] == [(1,), (2,), (3,)]
    assert np.allclose(mode_energies(modes), [np.pi ** 2 / 2, 2 * np.pi ** 2, 4.5 * np.pi ** 2])


def test_box_modes_3d_ground_and_tie_break():
    modes = box_modes(GEOM_3D, 4)
    assert modes[0].numbers == (1, 1, 1)
    assert modes[0].w == pytest.approx(1.5 * np.pi ** 2)
    assert [m.numbers for m in modes[1:]] == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_box_modes_anisotropic_ordering():
    geom = BoxGeometry((2.0, 1.0, 1.0))
    modes = box_modes(geom, 3)
    # the long axis is cheapest to excite
    assert [m.numbers for m in modes] == [(1, 1, 1), (2, 1, 1), (3, 1, 1)]


def overlap_s(f, g, lo, hi, length):
    return _axis_overlap_matrices(np.array([f, g]), lo, hi, length)[0][0, 1]


def overlap_g(f, g, lo, hi, length):
    return _axis_overlap_matrices(np.array([f, g]), lo, hi, length)[1][0, 1]


def overlap_x(f, g, lo, hi, length):
    return _axis_overlap_matrices(np.array([f, g]), lo, hi, length)[2][0, 1]


def test_interval_overlaps_match_quadrature():
    rng = np.random.default_rng(2)
    length = 1.3
    for _ in range(12):
        f, g = rng.integers(1, 6, size=2)
        lo, hi = np.sort(rng.uniform(0.0, length, size=2))
        s_ref = gl_integral(lambda x: u(f, length)(x) * u(g, length)(x), lo, hi)
        g_ref = gl_integral(lambda x: du(f, length)(x) * du(g, length)(x), lo, hi)
        x_ref = gl_integral(lambda x: u(f, length)(x) * du(g, length)(x), lo, hi)
        assert overlap_s(f, g, lo, hi, length) == pytest.approx(s_ref, abs=1e-12)
        assert overlap_g(f, g, lo, hi, length) == pytest.approx(g_ref, abs=1e-11)
        assert overlap_x(f, g, lo, hi, length) == pytest.approx(x_ref, abs=1e-11)


def test_full_box_overlaps():
    length = 2.0
    for f in range(1, 5):
        for g in range(1, 5):
            s = overlap_s(f, g, 0.0, length, length)
            assert s == pytest.approx(1.0 if f == g else 0.0, abs=1e-13)
            gg = overlap_g(f, g, 0.0, length, length)
            expect = (f * np.pi / length) ** 2 if f == g else 0.0
            assert gg == pytest.approx(expect, abs=1e-12)
    # momentum-type overlap is antisymmetric over the whole box
    assert overlap_x(2, 3, 0.0, length, length) == pytest.approx(
        -overlap_x(3, 2, 0.0, length, length), abs=1e-13
    )


def test_contact_tensor_matches_quadrature():
    modes = box_modes(GEOM_1D, 3)
    pot = Contact(g=0.7)
    tensor = contact_tensor(modes, pot, GEOM_1D)
    for idx in [(0, 0, 0, 0), (0, 1, 1, 0), (2, 1, 0, 1), (1, 1, 2, 2)]:
        l1, l2, f2, f1 = idx
        ref = 0.7 * gl_integral(
            lambda x: u(l1 + 1, 1.0)(x) * u(l2 + 1, 1.0)(x) * u(f2 + 1, 1.0)(x) * u(f1 + 1, 1.0)(x),
            0.0,
            1.0,
        )
        assert tensor[idx] == pytest.approx(ref, abs=1e-12)
    assert np.max(np.abs(tensor - tensor.transpose(1, 0, 3, 2))) < 1e-13
    assert np.max(np.abs(tensor - tensor.transpose(3, 2, 1, 0))) < 1e-13


def loop_contact_tensor(modes, potential, geom):
    """Oracle: the whole-box contact tensor, one mode quadruple at a time."""
    length = geom.lengths[0]
    numbers = mode_numbers(modes)[:, 0]
    nf = len(modes)

    def cos_overlap(m: int, n: int) -> float:
        # integral over [0,1] of cos(m pi t) cos(n pi t)
        if m == n == 0:
            return 1.0
        if m == n:
            return 0.5
        return 0.0

    tensor = np.empty((nf, nf, nf, nf))
    for i1, a in enumerate(numbers):
        for i2, b in enumerate(numbers):
            for j2, c in enumerate(numbers):
                for j1, d in enumerate(numbers):
                    tensor[i1, i2, j2, j1] = (
                        cos_overlap(abs(a - d), abs(b - c))
                        - cos_overlap(abs(a - d), b + c)
                        - cos_overlap(a + d, abs(b - c))
                        + cos_overlap(a + d, b + c)
                    )
    return potential.g / length * tensor


@pytest.mark.parametrize("numbers,length,g", [((1, 2, 3), 1.0, 0.7), ((1, 2, 3, 4, 5, 6), 1.3, -0.45),
                                              ((2, 3, 5, 7, 8), 2.5, 3.1)])
def test_contact_tensor_equals_loop_oracle(numbers, length, g):
    geom = BoxGeometry((length,))
    modes = modes_from_numbers(geom, [(k,) for k in numbers])
    pot = Contact(g=g)
    assert np.array_equal(contact_tensor(modes, pot, geom), loop_contact_tensor(modes, pot, geom))


def loop_contact_cell_tensor(modes, potential, geom, grid, cell):
    """Oracle: the cell-restricted contact tensor, one mode quadruple at a time."""
    length = geom.lengths[0]
    numbers = mode_numbers(modes)[:, 0]
    (lo, hi), = grid.bounds(cell)
    a, b = lo / length, hi / length

    def cos_primitive(k):
        # integral over [a, b] of cos(k pi theta) d theta
        if k == 0:
            return b - a
        return (np.sin(k * np.pi * b) - np.sin(k * np.pi * a)) / (k * np.pi)

    def quad_sin(m1, m2, m3, m4):
        total = 0.0
        for s2, k2 in ((1.0, m1 - m4), (-1.0, m1 + m4)):
            for s3, k3 in ((1.0, m2 - m3), (-1.0, m2 + m3)):
                for s4, k4 in ((0.5, k2 - k3), (0.5, k2 + k3)):
                    total += 0.25 * s2 * s3 * s4 * cos_primitive(abs(k4))
        return total

    nf = len(modes)
    tensor = np.empty((nf, nf, nf, nf))
    for i1, m1 in enumerate(numbers):
        for i2, m2 in enumerate(numbers):
            for j2, m3 in enumerate(numbers):
                for j1, m4 in enumerate(numbers):
                    tensor[i1, i2, j2, j1] = quad_sin(m1, m2, m3, m4)
    return 4.0 * potential.g / length * tensor


@pytest.mark.parametrize("numbers,cells", [((1, 2, 3), 2), ((1, 2, 3, 4, 5), 2),
                                           ((2, 3, 5, 7), 3)])
def test_contact_cell_tensor_matches_loop_oracle(numbers, cells):
    geom = BoxGeometry((1.3,))
    modes = modes_from_numbers(geom, [(k,) for k in numbers])
    grid = CellGrid(geom, (cells,))
    pot = Contact(g=0.7)
    for cell in range(cells):
        got = contact_tensor(modes, pot, (grid, cell))
        want = loop_contact_cell_tensor(modes, pot, geom, grid, cell)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_contact_energy_density_in_3d_box_is_rejected():
    geom = BoxGeometry((1.0, 1.1, 1.2))
    modes = box_modes(geom, 2)
    basis = build_basis(2, 2, Statistics.BOSE)
    grid = CellGrid(geom, (2, 1, 1))
    with pytest.raises(ValueError, match="contact potential is 1D only"):
        energy_density_op(basis, modes, grid, 0, Contact(g=0.5))


def test_zero_potential_tensor():
    modes = box_modes(GEOM_1D, 2)
    tensor = potential_tensor(modes, Zero(), GEOM_1D)
    assert np.all(tensor == 0.0)


def test_gaussian_tensor_refinement():
    modes = box_modes(GEOM_1D, 2)
    pot = Gaussian(g=1.0, sigma=0.25)
    coarse = potential_tensor(modes, pot, GEOM_1D, order=8)
    fine = potential_tensor(modes, pot, GEOM_1D, order=24)
    est = potential_tensor_error(modes, pot, GEOM_1D, order=8)
    assert np.max(np.abs(coarse - fine)) <= max(est * 4.0, 1e-12)
    assert np.max(np.abs(coarse - coarse.transpose(1, 0, 3, 2))) == 0.0
    assert np.max(np.abs(coarse - coarse.conj().transpose(3, 2, 1, 0))) == 0.0


def test_soft_lennard_jones_finite_at_origin():
    pot = SoftLennardJones(epsilon=0.3, sigma=0.2, r_core=0.05)
    vals = pot(np.array([0.0, 0.01, 0.05, 0.2, 1.0]))
    assert np.all(np.isfinite(vals))
    assert vals[0] == vals[1] == vals[2]


def test_hamiltonian_free_and_one_particle_sector():
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    h0 = hamiltonian(basis, modes, np.zeros((6, 6))).dense()
    w = mode_energies(modes)
    expected = np.array([float(w @ occ) for occ in basis.states])
    assert np.allclose(h0, np.diag(expected), atol=1e-12)
    # interacting hamiltonian restricted to single-particle states stays diag(W)
    pot = Contact(g=0.9)
    v_pair = pair_matrix_from_tensor(contact_tensor(modes, pot, GEOM_1D), basis.statistics)
    h = hamiltonian(basis, modes, v_pair).dense()
    singles = [state_index(basis, tuple(np.eye(3, dtype=int)[k])) for k in range(3)]
    sub = h[np.ix_(singles, singles)]
    assert np.allclose(sub, np.diag(w), atol=1e-12)


def test_hamiltonian_matches_independent_assembly():
    modes = box_modes(GEOM_1D, 2)
    basis = build_basis(2, 2, Statistics.BOSE)
    pot = Contact(g=0.8)
    tensor = contact_tensor(modes, pot, GEOM_1D)
    h = hamiltonian(basis, modes, pair_matrix_from_tensor(tensor, basis.statistics)).dense()

    from test_fock import brute_two_body

    w = mode_energies(modes)
    direct = np.diag([float(w @ occ) for occ in basis.states]).astype(complex)
    direct += brute_two_body(basis, tensor.astype(complex))
    assert np.max(np.abs(h - direct)) < 1e-12
    assert np.allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(direct), atol=1e-12)


def test_mass_density_cells_sum_to_total():
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    grid = CellGrid(GEOM_1D, (4,))
    total = sum(mass_density_op(basis, modes, grid, c).dense() for c in range(grid.n_cells))
    mass = one_body_operator(basis, MASS * np.eye(basis.n_modes)).dense()
    assert np.max(np.abs(total - mass)) < 1e-13
    vac = state_index(basis, (0, 0, 0))
    for c in range(grid.n_cells):
        assert mass_density_op(basis, modes, grid, c).dense()[vac, vac] == pytest.approx(0.0)


def test_mass_density_half_cell_value():
    modes = box_modes(GEOM_1D, 2)
    basis = build_basis(2, 1, Statistics.BOSE)
    grid = CellGrid(GEOM_1D, (2,))
    state = state_index(basis, (1, 0))
    for c in range(2):
        lo, hi = grid.bounds(c)[0]
        ref = gl_integral(lambda x: u(1, 1.0)(x) ** 2, lo, hi)
        val = mass_density_op(basis, modes, grid, c).dense()[state, state]
        assert val == pytest.approx(ref, abs=1e-12)


def test_energy_density_whole_box_equals_hamiltonian():
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    pot = Gaussian(g=0.6, sigma=0.3)
    grid = whole_box_grid(GEOM_1D)
    tensor = fieldmodel._pair_tensor(modes, pot, grid, None, 8)
    h = hamiltonian(basis, modes, pair_matrix_from_tensor(tensor, basis.statistics)).dense()
    e = energy_density_op(basis, modes, grid, 0, pot, order=8).dense()
    assert np.max(np.abs(e - h)) < 1e-11


def test_energy_density_cells_tile_hamiltonian():
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    grid = CellGrid(GEOM_1D, (2,))
    for pot in [Gaussian(g=0.6, sigma=0.3), Contact(g=0.5), Zero()]:
        tensor = fieldmodel._pair_tensor(modes, pot, grid, None, 8)
        h = hamiltonian(basis, modes, pair_matrix_from_tensor(tensor, basis.statistics)).dense()
        total = sum(
            energy_density_op(basis, modes, grid, c, pot, order=8).dense()
            for c in range(grid.n_cells)
        )
        assert np.max(np.abs(total - h)) < 1e-11
    free_total = sum(
        energy_density_op(basis, modes, grid, c, Zero()).dense()
        for c in range(grid.n_cells)
    )
    assert np.max(np.abs(free_total - free_hamiltonian(basis, modes).dense())) < 1e-11


def test_energy_density_kinetic_kernel_matches_quadrature():
    # oracle: numerically integrate |-i d/dx u|^2 / 2 over the cell
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 1, Statistics.BOSE)
    grid = CellGrid(GEOM_1D, (2,))
    cell = 0
    lo, hi = grid.bounds(cell)[0]
    singles = [state_index(basis, tuple(np.eye(3, dtype=int)[k])) for k in range(3)]
    built = energy_density_op(basis, modes, grid, cell, Zero()).dense()
    for i, h_idx in enumerate(singles):
        for j, k_idx in enumerate(singles):
            def integrand(x, fi=i + 1, fj=j + 1):
                dh = -1j * du(fi, 1.0)(x)
                dk = -1j * du(fj, 1.0)(x)
                return (np.conj(dh) * dk).real / 2.0
            ref_re = gl_integral(integrand, lo, hi)

            def integrand_im(x, fi=i + 1, fj=j + 1):
                dh = -1j * du(fi, 1.0)(x)
                dk = -1j * du(fj, 1.0)(x)
                return (np.conj(dh) * dk).imag / 2.0
            ref_im = gl_integral(integrand_im, lo, hi)
            assert built[h_idx, k_idx] == pytest.approx(ref_re + 1j * ref_im, abs=1e-10)


def test_momentum_density_full_box_is_total_momentum():
    modes = box_modes(GEOM_1D, 4)
    basis = build_basis(4, 1, Statistics.BOSE)
    grid = whole_box_grid(GEOM_1D)
    p_op = momentum_density_op(basis, modes, grid, 0)[0].dense()
    singles = [state_index(basis, tuple(np.eye(4, dtype=int)[k])) for k in range(4)]
    sub = p_op[np.ix_(singles, singles)]
    for i in range(4):
        for j in range(4):
            f, g = i + 1, j + 1
            if (f + g) % 2 == 1:
                expected = -1j * 4.0 * f * g / (f * f - g * g)
            else:
                expected = 0.0
            assert sub[i, j] == pytest.approx(expected, abs=1e-12)
    assert np.max(np.abs(p_op - p_op.conj().T)) < 1e-13
    vac = state_index(basis, (0, 0, 0, 0))
    assert p_op[vac, vac] == pytest.approx(0.0)


def test_momentum_density_diagonal_states_carry_none():
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    grid = whole_box_grid(GEOM_1D)
    p_op = momentum_density_op(basis, modes, grid, 0)[0].dense()
    assert np.max(np.abs(np.diag(p_op))) < 1e-13


def test_momentum_density_superposition_matches_wavefunction():
    modes = box_modes(GEOM_1D, 2)
    basis = build_basis(2, 1, Statistics.BOSE)
    grid = whole_box_grid(GEOM_1D)
    p_op = momentum_density_op(basis, modes, grid, 0)[0].dense()
    c1, c2 = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[state_index(basis, (1, 0))] = c1
    psi[state_index(basis, (0, 1))] = c2
    got = np.vdot(psi, p_op @ psi)

    def wave(x):
        return c1 * u(1, 1.0)(x) + c2 * u(2, 1.0)(x)

    def dwave(x):
        return c1 * du(1, 1.0)(x) + c2 * du(2, 1.0)(x)

    ref = gl_integral(lambda x: (np.conj(wave(x)) * -1j * dwave(x)).real, 0.0, 1.0)
    assert got.real == pytest.approx(ref, abs=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


# phase_space_op warns when less of the packet norm than this lies in the box
PACKET_NORM_FLOOR = 0.99


def phase_space_op(basis, modes, geom, x, p, sigma, order=48):
    """Husimi-style phase-space density at (x, p), smeared at width sigma.

    Built from a Gaussian packet truncated to the box and renormalized;
    positive semidefinite by construction.  Warns when the truncation
    removes more than 1 - PACKET_NORM_FLOOR of the packet mass.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    d = geom.dimension
    if x.shape != (d,) or p.shape != (d,):
        raise ValueError("x and p must match the geometry dimension")
    numbers = mode_numbers(modes)
    coeff = np.ones(len(modes), dtype=complex)
    mass_inside = 1.0
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    for ax in range(d):
        nodes, wts = fieldmodel._gauss_panels(np.array([0.0, geom.lengths[ax]]), base_x, base_w)
        packet = (np.pi * sigma ** 2) ** -0.25 * np.exp(
            -((nodes - x[ax]) ** 2) / (2.0 * sigma ** 2) + 1j * p[ax] * nodes / HBAR
        )
        mass_inside *= float(np.sum(wts * np.abs(packet) ** 2))
        u_vals = fieldmodel._axis_mode_values(numbers[:, ax], nodes, geom.lengths[ax])
        coeff *= u_vals @ (wts * packet)
    if mass_inside < PACKET_NORM_FLOOR:
        warnings.warn(
            f"packet mass inside the box is {mass_inside:.4f}; "
            f"deficit {1.0 - mass_inside:.3e}",
            stacklevel=2,
        )
    coeff = coeff / np.sqrt(mass_inside)
    kernel = (MASS / (2.0 * np.pi * HBAR) ** d) * np.outer(coeff, coeff.conj())
    return one_body_operator(basis, kernel)


def test_phase_space_op_basic_properties():
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 2, Statistics.BOSE)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(0.3, 0.7, size=1)
        p = rng.uniform(-20.0, 20.0, size=1)
        f_op = phase_space_op(basis, modes, GEOM_1D, x, p, sigma=0.1).dense()
        vac = state_index(basis, (0, 0, 0))
        assert f_op[vac, vac] == pytest.approx(0.0)
        evals = np.linalg.eigvalsh(f_op)
        assert evals.min() > -1e-13


def test_phase_space_op_warns_on_leaky_packet():
    modes = box_modes(GEOM_1D, 2)
    basis = build_basis(2, 1, Statistics.BOSE)
    with pytest.warns(UserWarning, match="packet mass"):
        phase_space_op(basis, modes, GEOM_1D, [0.01], [0.0], sigma=0.2)


def test_phase_space_completeness_on_mode_span():
    # integrating f over (x, p) should reproduce the mass operator up to
    # packet leakage through the walls
    modes = box_modes(GEOM_1D, 3)
    basis = build_basis(3, 1, Statistics.BOSE)
    sigma = 0.15
    hbar = 1.0
    n_x, n_p = 60, 80
    xs, wx = np.polynomial.legendre.leggauss(n_x)
    xs = 0.5 * (xs + 1.0)
    wx = 0.5 * wx
    p_max = hbar * np.pi * 3.0 + 6.0 * hbar / sigma
    ps, wp = np.polynomial.legendre.leggauss(n_p)
    ps = p_max * ps
    wp = p_max * wp
    acc = np.zeros((basis.dim, basis.dim), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for xi, wxi in zip(xs, wx):
            for pi, wpi in zip(ps, wp):
                acc += wxi * wpi * phase_space_op(
                    basis, modes, GEOM_1D, [xi], [pi], sigma=sigma, order=64
                ).dense()
    mass = one_body_operator(basis, MASS * np.eye(basis.n_modes)).dense()
    defect = np.max(np.abs(acc - mass))

    # independent bound: analytic p-integration leaves the kernel
    # K(x, y) = exp(-(y-x)^2/sigma^2) / (sqrt(pi) sigma N(x)); the defect of
    # sum_x w_x K/N from 1 controls every matrix element
    ys = np.linspace(0.0, 1.0, 400)
    w_of_y = np.zeros_like(ys)
    nodes, wts = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * (nodes + 1.0)
    wts = 0.5 * wts
    for xi, wxi in zip(xs, wx):
        norm = float(np.sum(wts * np.exp(-((nodes - xi) ** 2) / sigma ** 2) / (np.sqrt(np.pi) * sigma)))
        w_of_y += wxi * np.exp(-((ys - xi) ** 2) / sigma ** 2) / (np.sqrt(np.pi) * sigma * norm)
    bound = float(np.max(np.abs(1.0 - w_of_y)))
    assert defect <= bound + 1e-6


def test_quadrature_gram_matrix_is_identity():
    modes = box_modes(GEOM_1D, 4)
    assert quadrature_gram_defect(modes, GEOM_1D, order=24) < 1e-12
    modes3 = box_modes(GEOM_3D, 4)
    assert quadrature_gram_defect(modes3, GEOM_3D, order=16) < 1e-12


def test_legendre_rule_matches_leggauss():
    # against 40-digit values, leggauss's weights are off by up to about 18 eps
    # by order 40 and the Golub-Welsch ones by about 3 eps, so the weight bound
    # grows with the order
    eps = np.finfo(float).eps
    for order in range(1, 41):
        x, w = fieldmodel._legendre_rule(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(x - ref_x)) <= 4 * eps, order
        assert np.max(np.abs(w - ref_w)) <= order * eps, order
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), order
        assert abs(w.sum() - 2.0) <= 4 * eps, order
        assert not (x.flags.writeable or w.flags.writeable)


def test_3d_tensor_small_case_runs_and_is_symmetric():
    modes = box_modes(GEOM_3D, 2)
    pot = Gaussian(g=0.5, sigma=0.4)
    tensor = potential_tensor(modes, pot, GEOM_3D, order=6)
    assert tensor.shape == (2, 2, 2, 2)
    assert np.max(np.abs(tensor - tensor.transpose(1, 0, 3, 2))) == 0.0
    assert np.max(np.abs(tensor - tensor.conj().transpose(3, 2, 1, 0))) == 0.0
    assert abs(tensor[0, 0, 0, 0]) > 1e-4


PAIR3D_BOX = BoxGeometry((1.0, 1.07, 1.13))
ORACLE_GRIDS = {  # geometry, cells, modes, order
    "1d-1": (BoxGeometry((1.3,)), (1,), 4, 8),
    "1d-1-odd": (BoxGeometry((1.3,)), (1,), 5, 7),
    "1d-2": (BoxGeometry((1.3,)), (2,), 4, 8),
    "1d-3": (BoxGeometry((1.3,)), (3,), 4, 8),
    "1d-3-odd": (BoxGeometry((1.3,)), (3,), 5, 5),
    "pair3d": (PAIR3D_BOX, (1, 1, 1), 12, 8),
    "3d-111-odd": (PAIR3D_BOX, (1, 1, 1), 6, 5),
    "3d-211": (PAIR3D_BOX, (2, 1, 1), 4, 4),
    "3d-222": (PAIR3D_BOX, (2, 2, 2), 4, 3),
    "3d-333": (PAIR3D_BOX, (3, 3, 3), 4, 2),
}


@pytest.mark.parametrize("block_elements", [None, 3000])
@pytest.mark.parametrize("potential", [Gaussian(0.8, 0.25), SoftLennardJones(0.5, 0.2, 0.1)],
                         ids=["gaussian", "soft-lj"])
@pytest.mark.parametrize("case", list(ORACLE_GRIDS))
def test_quadrature_tensors_equal_difference_array_oracle(monkeypatch, case, potential,
                                                          block_elements):
    # the kernel sweep's parity fold and, for a Gaussian, the product of
    # per-axis sums add the same terms as the point-pair difference array in
    # other orders, so all three agree to round-off: at most 1e-13 max|V|,
    # over the whole box and in every cell (x restricted, as energy_density_op
    # takes it).  _pair_tensor symmetrizes the product for a Gaussian and the
    # sweep otherwise; the whole-box product keeps the forbidden entries at 0
    geom, cells, n_modes, order = ORACLE_GRIDS[case]
    if block_elements is not None:
        monkeypatch.setattr(fieldmodel, "_BLOCK_ELEMENTS", block_elements)
    modes = box_modes(geom, n_modes)
    grid = CellGrid(geom, cells)
    for cell in [None, *range(grid.n_cells)]:
        ref = difference_quad_tensor(modes, potential, grid, order, cell)
        bound = 1e-13 * np.max(np.abs(ref))
        sweep = fieldmodel._quad_tensor(modes, potential, grid, order, cell)
        assert np.max(np.abs(sweep - ref)) <= bound
        raw = sweep
        if isinstance(potential, Gaussian):
            raw = fieldmodel._gaussian_tensor(modes, potential, grid, order, cell)
            assert np.max(np.abs(raw - ref)) <= bound
            assert np.max(np.abs(raw - sweep)) <= bound
            if cell is None:
                assert np.all(raw[parity_forbidden(modes)] == 0.0)
        assert np.array_equal(fieldmodel._pair_tensor(modes, potential, grid, cell, order),
                              fieldmodel._symmetrize_tensor(raw))


SUM_GRIDS = {  # geometry, cells, modes, order
    "1d-1-odd": (BoxGeometry((1.3,)), (1,), 5, 7),
    "1d-2": (BoxGeometry((1.3,)), (2,), 5, 8),
    "1d-3-odd": (BoxGeometry((1.3,)), (3,), 5, 5),
    "3d-211": (PAIR3D_BOX, (2, 1, 1), 6, 4),
    "3d-211-odd": (PAIR3D_BOX, (2, 1, 1), 6, 3),
    "3d-222": (PAIR3D_BOX, (2, 2, 2), 5, 4),
    "3d-222-odd": (PAIR3D_BOX, (2, 2, 2), 5, 3),
}


@pytest.mark.parametrize("case", list(SUM_GRIDS))
def test_cell_pair_tensors_sum_to_whole_box_tensor(case):
    # the cells partition the x nodes, so their tensors tile the whole-box one;
    # an odd order puts a node on the box centre of an axis with one or three
    # cells, which is its own mirror in the whole-box fold
    geom, cells, n_modes, order = SUM_GRIDS[case]
    modes = box_modes(geom, n_modes)
    grid = CellGrid(geom, cells)
    potential = Gaussian(0.8, 0.25)
    whole = fieldmodel._pair_tensor(modes, potential, grid, None, order)
    tiled = sum(fieldmodel._pair_tensor(modes, potential, grid, c, order)
                for c in range(grid.n_cells))
    assert np.max(np.abs(tiled - whole)) <= 1e-13 * np.max(np.abs(whole))


@pytest.mark.parametrize("defect", ["nodes", "weights"])
def test_quadrature_rejects_panels_that_do_not_mirror(monkeypatch, defect):
    # the fold pairs node i with node m-1-i; panels that break the mirror
    # would fold wrong values, so the tensor is refused
    panels = fieldmodel._gauss_panels

    def shifted(edges, base_x, base_w):
        nodes, wts = panels(edges, base_x, base_w)
        if defect == "nodes":
            return nodes + 1e-6, wts
        return nodes, wts * np.linspace(1.0, 1.0 + 1e-6, len(wts))

    monkeypatch.setattr(fieldmodel, "_gauss_panels", shifted)
    modes = box_modes(GEOM_1D, 3)
    with pytest.raises(ValueError, match="must mirror about the centre of each axis"):
        potential_tensor(modes, Gaussian(0.8, 0.25), GEOM_1D, 8)
    with pytest.raises(ValueError, match="must mirror about the centre of each axis"):
        energy_density_op(build_basis(3, 2, Statistics.BOSE), modes, CellGrid(GEOM_1D, (2,)),
                          0, Gaussian(0.8, 0.25), 8)


def test_cell_grid_bounds_cover_box():
    grid = CellGrid(GEOM_3D, (2, 1, 2))
    assert grid.n_cells == 4
    vols = []
    for c in range(4):
        b = grid.bounds(c)
        vols.append(np.prod([hi - lo for lo, hi in b]))
    assert sum(vols) == pytest.approx(1.0)


def test_modes_from_numbers_validates_dimension():
    with pytest.raises(ValueError):
        modes_from_numbers(GEOM_1D, [(1, 2)])
    modes = modes_from_numbers(GEOM_1D, [(2,), (5,)])
    assert mode_energies(modes)[1] == pytest.approx(12.5 * np.pi ** 2)
