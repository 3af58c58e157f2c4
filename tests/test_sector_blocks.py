"""Sector-blocked ladders, pair annihilators and their contractions against dense oracles.

Hypothesis draws the mode count (1-5), the statistics and n_max <= 3; one
fixed Bose case at n_max 2 runs 12 modes.  Ladders and pair blocks must match
the oracle bit for bit, and every operator assembled from them must match its
dense formula to 1e-12 of its scale.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgas.fieldmodel import BoxGeometry, modes_from_numbers
from boxgas.fock import Statistics, build_basis, ladder_ops, one_body_operator, two_body_operator
from boxgas.generator import Lprime, build_coefficients, channel_blocks
from boxgas.scattering import pair_basis
from dense_oracles import (
    dense_channel_ops,
    dense_gamma,
    dense_one_body,
    dense_parts,
    dense_two_body,
    einsum_pair_stack,
    loop_ladders,
    state_index,
)

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
    assert stack.dtype == complex
    assert np.array_equal(stack, loop_ladders(basis))

    pairs = einsum_pair_stack(basis)
    outside = np.ones(pairs.shape, dtype=bool)
    sectors = basis.sectors
    for n, block in enumerate(basis.pair_blocks):
        rows = sectors[n - 2] if n >= 2 else slice(0, 0)
        assert block.shape == (n_modes, n_modes, rows.stop - rows.start,
                               sectors[n].stop - sectors[n].start)
        assert np.array_equal(block, sector_view(basis, pairs, n, 2))
        outside[:, :, rows, sectors[n]] = False
    assert not np.any(pairs[outside])

    kernel = rng.normal(size=(n_modes,) * 2) + 1j * rng.normal(size=(n_modes,) * 2)
    assert_close(one_body_operator(basis, kernel).dense(), dense_one_body(basis, kernel))
    raw = rng.normal(size=(n_modes,) * 4) + 1j * rng.normal(size=(n_modes,) * 4)
    tensor = 0.5 * (raw + raw.conj().transpose(3, 2, 1, 0))
    assert_close(two_body_operator(basis, tensor).dense(), dense_two_body(basis, tensor))

    modes = modes_from_numbers(GEOM, [(k,) for k in range(1, n_modes + 1)])
    n_pairs = len(pair_basis(n_modes, statistics))
    t_on = rng.normal(size=(n_pairs, n_pairs)) + 1j * rng.normal(size=(n_pairs, n_pairs))
    coeffs = build_coefficients(modes, t_on, statistics, delta=5.0)
    channels = dense_channel_ops(basis, coeffs)
    for n, block in enumerate(channel_blocks(basis, coeffs)):
        assert_close(block, sector_view(basis, channels, n, 2))
    lp = Lprime(basis, coeffs)
    assert_close(lp.gamma.dense(), dense_gamma(channels))
    for built, oracle in zip(lp.parts(kernel), dense_parts(basis, coeffs, kernel)):
        assert_close(built.dense(), oracle)


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


def test_sector_blocks_are_cached_and_read_only():
    basis = build_basis(3, 3, Statistics.FERMI)
    for blocks in (basis.ladder_blocks, basis.pair_blocks):
        assert all(not b.flags.writeable for b in blocks)
    assert basis.pair_blocks is basis.pair_blocks
    assert basis.lowering is basis.lowering


def test_lowering_beyond_int64_keys():
    # 70 Bose modes at n_max 1: base-2 occupation keys would need 70 bits
    basis = build_basis(70, 1, Statistics.BOSE)
    target, amp = basis.lowering
    for f in (0, 35, 69):
        col = state_index(basis, np.eye(70, dtype=int)[f])
        assert target[f, col] == 0 and amp[f, col] == 1.0
        assert np.all(target[f, np.arange(basis.dim) != col] == -1)
