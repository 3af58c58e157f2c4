"""Creator index maps, the operators scattered from them and their contractions
against dense oracles.

Hypothesis draws the mode count (1-5), the statistics and n_max <= 3; one
fixed Bose case at n_max 2 runs 12 modes.  Ladders must match the oracle bit
for bit, and the dense per-sector lowering blocks of the creator and pair
creator maps (`sector_blocks`) the loop ladders and the normalized pair
annihilators to 1e-12.  Every operator assembled from the maps must match its
dense formula to 1e-12 of its scale: the two-body operator and the generator
against the n^4 tensor forms.  The scatter by index is compared with the GEMM
scatter over those blocks (`gemm_scatter`) at dims 495 (Bose) and 386
(Fermi), one- and two-body, for real and complex non-hermitian matrices.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgas.fieldmodel import (
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    _pair_tensor,
    box_modes,
    modes_from_numbers,
)
from boxgas.fock import (
    Statistics,
    _scatter,
    build_basis,
    ladder_ops,
    one_body_operator,
    pair_matrix_from_tensor,
    two_body_operator,
)
from boxgas.generator import Lprime, build_coefficients
from boxgas.scattering import pair_basis
from dense_oracles import (
    dense_channel_ops,
    dense_gamma,
    dense_one_body,
    dense_parts,
    dense_two_body,
    einsum_pair_stack,
    gemm_scatter,
    loop_ladders,
    sector_blocks,
    state_index,
    tensor_from_pair_matrix,
    tensor_two_body_operator,
)
from test_generator import ordered_channels

GEOM = BoxGeometry((1.0,))


def assert_close(built, oracle):
    scale = max(1.0, float(np.max(np.abs(oracle), initial=0.0)))
    assert np.max(np.abs(built - oracle), initial=0.0) <= 1e-12 * scale


def sector_view(basis, oracle, n, lower):
    """The rows of sector n - lower and the columns of sector n of a dense stack."""
    rows = basis.sectors[n - lower] if n >= lower else slice(0, 0)
    return oracle[..., rows, basis.sectors[n]]


def check_against_oracles(n_modes, n_max, statistics, seed):
    basis = build_basis(n_modes, n_max, statistics)
    rng = np.random.default_rng(seed)

    stack = ladder_ops(basis)
    assert stack.dtype == np.float64 and not stack.flags.writeable
    assert np.array_equal(stack, loop_ladders(basis))
    for n, block in enumerate(sector_blocks(basis, basis.creators, 1)):
        assert np.array_equal(block, sector_view(basis, stack, n, 1))

    # A_q = n_q a_q2 a_q1 over pair_basis, from the dense pair stack P[f, g] = a_f a_g
    plist = pair_basis(n_modes, statistics)
    norms = [1.0 / np.sqrt(2.0) if statistics is Statistics.BOSE and q1 == q2 else 1.0
             for q1, q2 in plist]
    stack = einsum_pair_stack(basis)
    pairs = np.array([norm * stack[q2, q1] for norm, (q1, q2) in zip(norms, plist)])
    pairs = pairs.reshape((len(plist),) + stack.shape[2:])
    outside = np.ones(pairs.shape, dtype=bool)
    sectors = basis.sectors
    for n, block in enumerate(sector_blocks(basis, basis.pair_creators(), 2)):
        rows = sectors[n - 2] if n >= 2 else slice(0, 0)
        assert block.shape == (len(plist), rows.stop - rows.start,
                               sectors[n].stop - sectors[n].start)
        assert_close(block, sector_view(basis, pairs, n, 2))
        outside[:, rows, sectors[n]] = False
    assert not np.any(pairs[outside])

    kernel = rng.normal(size=(n_modes,) * 2) + 1j * rng.normal(size=(n_modes,) * 2)
    assert_close(one_body_operator(basis, kernel).dense(), dense_one_body(basis, kernel))
    # a random hermitian pair matrix against the dense operator of its canonical tensor
    raw = rng.normal(size=(len(plist),) * 2) + 1j * rng.normal(size=(len(plist),) * 2)
    m = 0.5 * (raw + raw.conj().T)
    tensor = tensor_from_pair_matrix(m, plist, statistics, n_modes)
    assert_close(two_body_operator(basis, m).dense(), dense_two_body(basis, tensor))

    modes = modes_from_numbers(GEOM, [(k,) for k in range(1, n_modes + 1)])
    t_on = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    coeffs = build_coefficients(modes, t_on, statistics, delta=5.0)
    # the ordered channels R_kl of the family maps are the channels
    # sum jump[k, l, f2, f1] a_f2 a_f1 of the coefficient tensors
    channels = dense_channel_ops(basis, coeffs, t_on)
    lp = Lprime(basis, coeffs)
    for n, block in enumerate(ordered_channels(lp)):
        assert_close(block, sector_view(basis, channels, n, 2))
    assert_close(lp.gamma.dense(), dense_gamma(channels))
    parts = dense_parts(basis, coeffs, t_on, kernel)
    for built, oracle in zip(lp.parts(kernel), (parts[0], parts[1] + parts[2])):
        assert_close(built.dense(), oracle)
    assert_close(lp.apply(kernel).dense(), sum(parts))


@st.composite
def bases(draw):
    n_modes = draw(st.integers(1, 5))
    statistics = draw(st.sampled_from(tuple(Statistics)))
    top = 3 if statistics is Statistics.BOSE else min(3, n_modes)
    return n_modes, draw(st.integers(0, top)), statistics, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(case=bases())
def test_sector_blocks_match_dense_oracles(case):
    check_against_oracles(*case)


def test_sector_blocks_match_dense_oracles_at_twelve_modes():
    check_against_oracles(12, 2, Statistics.BOSE, seed=3)


def test_creator_maps_are_cached_and_read_only():
    basis = build_basis(3, 3, Statistics.FERMI)
    assert all(not array.flags.writeable for array in basis.creators)
    assert basis.creators is basis.creators


def test_creators_beyond_int64_keys():
    # 70 Bose modes at n_max 1: base-2 occupation keys would need 70 bits
    basis = build_basis(70, 1, Statistics.BOSE)
    cols, amps = basis.creators
    for f in (0, 35, 69):
        col = state_index(basis, np.eye(70, dtype=int)[f])
        assert cols[0, f] == col and amps[0, f] == 1.0
        assert np.all(cols[1:, f] == -1) and np.all(amps[1:, f] == 0.0)


@pytest.mark.parametrize("n_modes, statistics", [(8, Statistics.BOSE), (10, Statistics.FERMI)],
                         ids=["bose-495", "fermi-386"])
@pytest.mark.parametrize("lift", [1, 2], ids=["one-body", "two-body"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_scatter_matches_the_gemm_scatter(n_modes, statistics, lift, kind):
    basis = build_basis(n_modes, 4, statistics)
    creators = basis.creators if lift == 1 else basis.pair_creators()
    size = creators[0].shape[1]
    rng = np.random.default_rng(lift)
    m = rng.normal(size=(size, size))
    if kind == "complex":
        m = m + 1j * rng.normal(size=(size, size))
    got = _scatter(basis, m, lift)
    want = gemm_scatter(basis, sector_blocks(basis, creators, lift), m)
    for g, w in want.pairs(got):
        assert g.dtype == w.dtype
        assert_close(g, w)


PAIR3D_GEOM = BoxGeometry((1.0, 1.07, 1.13))


@pytest.mark.parametrize("region", ["whole box", "cell"])
@pytest.mark.parametrize("coupling", ["1d contact", "1d gaussian", "3d gaussian"])
@pytest.mark.parametrize("statistics", tuple(Statistics))
def test_pair_matrix_two_body_matches_the_canonical_tensor(statistics, coupling, region):
    # the interaction tensors as `hamiltonian` and `energy_density_op` project
    # them: the whole-box tensor, and one cell's of a two-cell grid
    geom = PAIR3D_GEOM if coupling == "3d gaussian" else GEOM
    modes = box_modes(geom, 5)
    potential = Contact(0.7) if coupling == "1d contact" else Gaussian(1.0, 0.25)
    grid = CellGrid(geom, (2,) + (1,) * (geom.dimension - 1))
    if region == "whole box":
        tensor = _pair_tensor(modes, potential, grid, None, 8)
    else:
        tensor = _pair_tensor(modes, potential, grid, 0, 8)
    pairs = pair_basis(5, statistics)
    m = pair_matrix_from_tensor(tensor, statistics)
    basis = build_basis(5, 3, statistics)
    got = two_body_operator(basis, m)
    want = tensor_two_body_operator(basis, tensor_from_pair_matrix(m, pairs, statistics, 5))
    assert np.max(np.abs(m)) > 0.0 or (statistics is Statistics.FERMI
                                       and coupling == "1d contact")
    for g, w in want.pairs(got):
        assert_close(g, w)
    # only the tensor's exchange-(anti)symmetric part acts, so it gives the same operator
    assert_close(got.dense(), dense_two_body(basis, tensor))
