"""Gibbs states of one-body exponents K = dGamma(k) against the sector-block path.

Hypothesis draws the statistics, 1-5 modes, n_max <= 4 and a hermitian
kernel: real, complex, zero, or with a repeated eigenvalue.  The mode-space
construction (one eigendecomposition of k) must match the block path (one
eigendecomposition per number sector of the second-quantized K) to 1e-12 of
scale: ln Z, the probabilities, the weight blocks and the entropy of the
state, the values and the Kubo-Mori susceptibility of a kernel family, and
its mass bounds.  The mode rotation Gamma(U) must be unitary and diagonalise
dGamma(k).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgas.fieldmodel import BoxGeometry, CellGrid
from boxgas.fock import Statistics, build_basis, mode_rotation, one_body_operator
from boxgas.gibbs import (
    CellKernels,
    CellObservables,
    chi_matrix,
    entropy,
    gibbs_from_kernel,
    gibbs_from_operator,
)
from boxgas.matrixutil import BlockDiagonal

KINDS = ("real", "complex", "zero", "repeated")


def assert_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(np.asarray(got) - want), initial=0.0) <= 1e-12 * scale


def random_kernel(rng, n, kind, complex_=True):
    raw = rng.standard_normal((n, n))
    if complex_:
        raw = raw + 1j * rng.standard_normal((n, n))
    k = 0.5 * (raw + raw.conj().T)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "repeated":
        eps = rng.standard_normal(n)
        eps[: max(2, n - 1)] = eps[0]  # at least a double eigenvalue
        _, u = np.linalg.eigh(k)
        return (u * eps) @ u.conj().T
    return k


@st.composite
def cases(draw):
    statistics = draw(st.sampled_from(tuple(Statistics)))
    n_modes = draw(st.integers(1, 5))
    top = 4 if statistics is Statistics.BOSE else min(4, n_modes)
    n_max = draw(st.integers(0, top))
    return statistics, n_modes, n_max, draw(st.sampled_from(KINDS)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_mode_spectrum_matches_sector_blocks(case):
    statistics, n_modes, n_max, kind, seed = case
    basis = build_basis(n_modes, n_max, statistics)
    rng = np.random.default_rng(seed)
    k = random_kernel(rng, n_modes, kind, complex_=kind != "real")

    state = gibbs_from_kernel(basis, k)
    oracle = gibbs_from_operator(one_body_operator(basis, k))
    assert_close(state.log_z, oracle.log_z)
    assert_close(np.sort(state.probabilities), np.sort(oracle.probabilities))
    for got, want in zip(state.weight_blocks.blocks, oracle.weight_blocks.blocks):
        assert_close(got, want)
    assert_close(entropy(state), entropy(oracle))

    # a family of four constraint kernels, two of them "masses"
    kernels = np.array([random_kernel(rng, n_modes, kind, complex_=kind != "real")
                        for _ in range(4)])
    family = CellKernels(basis, kernels)
    blocks = BlockDiagonal.stack(one_body_operator(basis, kc) for kc in kernels)
    assert_close(family.values(state), blocks.trace_with(oracle.weight_blocks).real)
    assert_close(family.chi(state), chi_matrix(oracle, blocks))
    obs = CellObservables(CellGrid(BoxGeometry((1.0,)), (2,)), blocks)
    assert_close(family.mass_bounds, obs.mass_bounds)

    # Gamma(U) is unitary and carries the occupation rows to the eigenvectors
    gamma = mode_rotation(basis, state.spectrum.vectors).dense()
    assert_close(gamma.conj().T @ gamma, np.eye(basis.dim))
    rotated = gamma.conj().T @ one_body_operator(basis, k).dense() @ gamma
    assert_close(rotated, np.diag(basis.states @ state.spectrum.energies))


def test_kernel_state_builds_the_rotation_only_when_read():
    basis = build_basis(4, 3, Statistics.FERMI)
    k = random_kernel(np.random.default_rng(4), 4, "complex")
    state = gibbs_from_kernel(basis, k)
    assert "vector_blocks" not in vars(state.spectrum)
    assert "exponent" not in vars(state.spectrum)
    state.weight_blocks
    assert "vector_blocks" in vars(state.spectrum)
    assert "exponent" not in vars(state.spectrum)
    assert_close(state.k_matrix, one_body_operator(basis, k).dense())


def test_kernel_state_rejects_a_non_hermitian_kernel():
    basis = build_basis(3, 2, Statistics.BOSE)
    k = random_kernel(np.random.default_rng(2), 3, "complex")
    with pytest.raises(ValueError, match="not hermitian"):
        gibbs_from_kernel(basis, k + 1e-6j * np.eye(3))
