"""Structural invariants on random small systems.

Hypothesis draws the mode set (1D or 3D, 1-4 modes), the statistics, n_max
<= 3, the cell grid and the coupling, and every draw must keep: hermitian H
and cell operators, a block-built H equal to its dense oracle with no entry
outside the number sectors, mass conservation of L', and the ladder algebra
of acceptance check 1.  A second draw of box, modes, potential and uniform
grid must keep the reflection selection rule of the whole-box quadrature
tensor.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxgas.fieldmodel import (
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    SoftLennardJones,
    _pair_tensor,
    _symmetrize_tensor,
    contact_tensor,
    hamiltonian,
    mode_energies,
    modes_from_numbers,
    momentum_density_op,
    potential_tensor,
)
from boxgas.fock import Statistics, build_basis, ladder_ops, pair_matrix_from_tensor
from boxgas.generator import Lprime, build_coefficients
from boxgas.gibbs import cell_observables
from boxgas.matrixutil import hermiticity_defect
from boxgas.scattering import onshell_tmatrix
from dense_oracles import (
    dense_one_body,
    dense_two_body,
    difference_quad_tensor,
    parity_forbidden,
    split_blocks,
)


@st.composite
def systems(draw):
    dim = draw(st.sampled_from((1, 3)))
    numbers = draw(st.lists(st.lists(st.integers(1, 3), min_size=dim, max_size=dim),
                            min_size=1, max_size=4, unique_by=tuple))
    statistics = draw(st.sampled_from(tuple(Statistics)))
    n_max = draw(st.integers(1, 3 if statistics is Statistics.BOSE else min(3, len(numbers))))
    cells = (draw(st.integers(1, 2)),) + (1,) * (dim - 1)
    strength = draw(st.floats(-1.0, 1.0))
    if dim == 1 and draw(st.booleans()):
        potential = Contact(strength)
    else:
        potential = Gaussian(strength, draw(st.floats(0.1, 0.5)))
    return BoxGeometry((1.0,) * dim), numbers, statistics, n_max, cells, potential


def ladder_algebra_defect(basis):
    """Largest violation of the CCR or CAR; [a, a†] is read below n_max
    unless the truncation cuts no shell (fermions with n_max = mode count)."""
    a = ladder_ops(basis)
    adag = a.conj().transpose(0, 2, 1)
    sign = 1.0 if basis.statistics is Statistics.BOSE else -1.0
    cut = sign > 0 or basis.n_max < basis.n_modes
    cols = basis.totals() < basis.n_max if cut else np.ones(basis.dim, dtype=bool)
    eye = np.eye(basis.dim)
    worst = 0.0
    for f in range(basis.n_modes):
        for g in range(basis.n_modes):
            mixed = a[f] @ adag[g] - sign * adag[g] @ a[f] - (f == g) * eye
            pair = a[f] @ a[g] - sign * a[g] @ a[f]
            worst = max(worst, np.max(np.abs(mixed[:, cols])), np.max(np.abs(pair)))
    return worst


@settings(max_examples=100, deadline=None)
@given(system=systems())
def test_structure_of_random_systems(system):
    geom, numbers, statistics, n_max, cells, potential = system
    modes = modes_from_numbers(geom, numbers)
    basis = build_basis(len(modes), n_max, statistics)
    grid = CellGrid(geom, cells)
    vtensor = potential_tensor(modes, potential, geom, order=4)
    v_pair = pair_matrix_from_tensor(vtensor, statistics)
    h = hamiltonian(basis, modes, v_pair)
    obs = cell_observables(basis, modes, grid, potential, order=4)
    momentum = [p for c in range(grid.n_cells) for p in momentum_density_op(basis, modes, grid, c)]
    for op in [h, *obs.blocks, *momentum]:
        dense = op.dense()
        assert hermiticity_defect(dense) <= 1e-12 * max(1.0, float(np.max(np.abs(dense))))
    # H conserves the particle number: its dense oracle from the loop ladders
    # has no entry outside the number sectors (split_blocks rejects any), and
    # the block-built H matches it
    oracle = (dense_one_body(basis, np.diag(mode_energies(modes)))
              + dense_two_body(basis, vtensor))
    split_blocks(oracle, basis.sectors, ["H oracle"])
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(h.dense() - oracle)) <= 1e-12 * scale

    coeffs = build_coefficients(modes, onshell_tmatrix(modes, v_pair, statistics, 10.0),
                                statistics, 2.0)
    assert Lprime(basis, coeffs).apply(np.eye(len(modes))).norm() <= 1e-10

    assert ladder_algebra_defect(basis) <= 1e-12


@st.composite
def reflection_even_tensors(draw):
    """A whole-box quadrature set-up: box lengths, modes, a Gaussian or soft
    Lennard-Jones potential, a uniform cell grid and a Gauss-Legendre order."""
    dim = draw(st.sampled_from((1, 3)))
    lengths = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    top = 6 if dim == 1 else 3
    numbers = draw(st.lists(st.lists(st.integers(1, top), min_size=dim, max_size=dim),
                            min_size=2, max_size=6 if dim == 1 else 4, unique_by=tuple))
    sigma = draw(st.floats(0.1, 0.5))
    if draw(st.booleans()):
        potential = Gaussian(draw(st.floats(-1.0, 1.0)), sigma)
    else:
        potential = SoftLennardJones(draw(st.floats(0.1, 1.0)), sigma, 0.5 * sigma)
    cells = tuple(draw(st.integers(1, 3 if dim == 1 else 2)) for _ in range(dim))
    return BoxGeometry(lengths), numbers, potential, cells, draw(st.integers(2, 6))


@settings(max_examples=40, deadline=None)
@given(setup=reflection_even_tensors())
# subnormal strengths: max|V| is about 6e-313, where 1e-13 of it is below the
# smallest subnormal; the two sums differ by one or two steps of 5e-324 on
# the 1D box and by five on the 3D one, whose oracle sums 64 terms an entry
@example(setup=(BoxGeometry((1.0,)), [[1], [2]], Gaussian(2.2250738585e-313, 0.5), (1,), 2))
@example(setup=(BoxGeometry((2.0, 1.7578125, 1.6029041891567404)), [[1, 1, 1], [1, 1, 2]],
                Gaussian(2.2250738585e-313, 0.3125), (1, 1, 1), 2))
def test_parity_forbidden_entries_vanish_on_uniform_panels(setup):
    # the sum over every pair of grid points is reflection-even up to
    # round-off; potential_tensor assembles one parity class block at a time,
    # so its forbidden entries are exact zeros and its allowed ones agree with
    # that sum to round-off.
    # Round-off is 1e-13 of the scale, and never less than a few ulps of it.
    # Below the normal range every rounding of the oracle's sum is a fixed
    # step, the smallest subnormal, so the floor counts its terms, one per
    # pair of grid points; the floor is itself subnormal, so it never
    # loosens a bound in the normal range
    geom, numbers, potential, cells, order = setup
    modes = modes_from_numbers(geom, numbers)
    grid = CellGrid(geom, cells)
    forbidden = parity_forbidden(modes)
    oracle = _symmetrize_tensor(difference_quad_tensor(modes, potential, grid, order, None))
    scale = np.max(np.abs(oracle))
    terms = math.prod(c * order for c in cells) ** 2
    floor = 2 * terms * np.nextafter(0.0, 1.0)
    assert floor < np.finfo(float).smallest_normal
    bound = max(1e-13 * scale, 4 * np.spacing(scale), floor)
    assert np.max(np.abs(oracle[forbidden]), initial=0.0) <= bound
    tensor = _pair_tensor(modes, potential, grid, None, order)
    assert np.all(tensor[forbidden] == 0.0)
    assert np.max(np.abs(tensor - oracle)) <= bound


def test_parity_mask_spares_cell_restricted_and_keeps_contact_tensors():
    # a cell breaks the reflection: its tensor, as energy_density_op uses it,
    # keeps its forbidden entries; the analytic contact tensor is exact already
    geom = BoxGeometry((1.0,))
    modes = modes_from_numbers(geom, [(n,) for n in range(1, 6)])
    forbidden = parity_forbidden(modes)
    cell = _pair_tensor(modes, Gaussian(1.0, 0.25), CellGrid(geom, (2,)), 0, 8)
    assert np.max(np.abs(cell[forbidden])) > 1e-2 * np.max(np.abs(cell))
    contact = Contact(0.7)
    whole = contact_tensor(modes, contact, geom)
    assert np.all(whole[forbidden] == 0.0)
    assert np.array_equal(potential_tensor(modes, contact, geom), whole)
