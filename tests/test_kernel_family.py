"""Gibbs states of one-body exponents K = dGamma(k) against the sector-block path.

Hypothesis draws the statistics, 1-5 modes, n_max <= 4 and a hermitian
kernel: real, complex, zero, or with a repeated eigenvalue.  The mode-space
construction (one eigendecomposition of k) must match the block path (one
eigendecomposition per number sector of the second-quantized K) to 1e-12 of
scale: ln Z, the probabilities, the weight and the entropy of the state, the
values and the Kubo-Mori susceptibility of a kernel family, and its mass
bounds.  The weight of the mode state comes from the dense mode rotation
Gamma(U) of `dense_oracles`, which must be unitary and diagonalise dGamma(k).

The generator images of one-body kernels are checked against the dense
images of `dense_parts` (loop ladders and n^4 coefficient tensors): with k1
and the P x P pair matrix k2 from `reduced_images`, dGamma(k1) +
`two_body_operator`(k2) and `Lprime.apply` must equal them on every sector
at n_max 3 and 4 (a wrong loss factor shows only on N >= 3), and
`TwoBodyKernels` must read them at a mode Gibbs state as the trace against
the block-path weight.  Both draw Bose and Fermi, contact and gaussian
couplings, and include the one-mode Fermi basis, which has no pair sector.
k1 and k2 must also match the kernels read off the dense images on an n_max
2 basis at 12 modes, and
`TwoBodyKernels` the formula that contracts the direct and the exchange
layout of k2's canonical tensor separately, on 1D and 3D modes.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxgas.fieldmodel import (
    BoxGeometry,
    Contact,
    Gaussian,
    box_modes,
    contact_tensor,
    modes_from_numbers,
    potential_tensor,
)
from boxgas.fock import (
    Statistics,
    build_basis,
    one_body_operator,
    pair_basis,
    pair_matrix_from_tensor,
    two_body_operator,
)
from boxgas.generator import Lprime, build_coefficients, reduced_images
from boxgas.gibbs import (
    _kernel_gibbs,
    CellKernels,
    CellObservables,
    ConstraintSet,
    GibbsState,
    LagrangeFields,
    ModeSpectrum,
    TwoBodyKernels,
    chi_matrix,
    entropy,
    gibbs_from_operator,
    maxent_fit,
)
from boxgas.matrixutil import BlockDiagonal
from boxgas.scattering import onshell_tmatrix
from dense_oracles import (
    dense_mode_rotation,
    dense_parts,
    dense_reduced_images,
    mode_weight,
    tensor_from_pair_matrix,
    two_layout_kernel_values,
)

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

    state = _kernel_gibbs(basis, k, None)
    oracle = gibbs_from_operator(one_body_operator(basis, k))
    assert_close(state.log_z, oracle.log_z)
    assert_close(np.sort(state.probabilities), np.sort(oracle.probabilities))
    assert_close(mode_weight(state), oracle.weight)
    assert_close(entropy(state), entropy(oracle))

    # a family of four constraint kernels, two of them "masses"
    kernels = np.array([random_kernel(rng, n_modes, kind, complex_=kind != "real")
                        for _ in range(4)])
    family = CellKernels(basis, kernels)
    blocks = BlockDiagonal.stack(one_body_operator(basis, kc) for kc in kernels)
    assert_close(family.values(state), blocks.trace_with(oracle.weight_blocks).real)
    assert_close(family.chi(state), chi_matrix(oracle, blocks))
    obs = CellObservables(blocks)
    assert_close(family.mass_bounds, obs.mass_bounds)

    # Gamma(U) is unitary and carries the occupation rows to the eigenvectors
    gamma = dense_mode_rotation(basis, state.spectrum.vectors)
    assert_close(gamma.conj().T @ gamma, np.eye(basis.dim))
    rotated = gamma.conj().T @ one_body_operator(basis, k).dense() @ gamma
    assert_close(rotated, np.diag(basis.states @ state.spectrum.energies))


def test_kernel_state_rejects_a_non_hermitian_kernel():
    basis = build_basis(3, 2, Statistics.BOSE)
    k = random_kernel(np.random.default_rng(2), 3, "complex")
    with pytest.raises(ValueError, match="not hermitian"):
        CellKernels(basis, (k + 1e-6j * np.eye(3))[None])


def test_kernel_family_rejects_a_non_hermitian_kernel():
    basis = build_basis(3, 2, Statistics.BOSE)
    rng = np.random.default_rng(3)
    kernels = np.array([random_kernel(rng, 3, "complex") for _ in range(3)])
    kernels[1] = kernels[1] + 1e-6j * np.eye(3)
    with pytest.raises(ValueError, match="constraint kernel 1 is not hermitian"):
        CellKernels(basis, kernels)


@pytest.mark.parametrize("statistics", tuple(Statistics))
def test_kernel_family_state_and_shared_rotation(statistics):
    # a family state is the mode-space state of the combined kernel, bit
    # for bit; values and chi read at alternating states, sharing the rotation
    # each state keeps, equal those of a fresh family, which rotates afresh.
    # Warm maxent fits are states too: the moments their state carries, the
    # values, chi and two-body values there equal those read by a fresh
    # family at a fresh state of the same probabilities and eigenvectors
    basis = build_basis(4, 3, statistics)
    rng = np.random.default_rng(4)
    kernels = np.array([random_kernel(rng, 4, "complex") for _ in range(4)])
    family = CellKernels(basis, kernels)
    ys = rng.standard_normal((2, 4))
    states = [family.state(y) for y in ys]
    for y, state in zip(ys, states):
        want = _kernel_gibbs(basis, np.tensordot(y, kernels, axes=1), None)
        assert state.log_z == want.log_z
        assert np.array_equal(state.probabilities, want.probabilities)
        assert np.array_equal(state.spectrum.vectors, want.spectrum.vectors)
    ys[:, :2] = np.abs(ys[:, :2])  # positive beta, so the fits' fields exist
    targets = [ConstraintSet(*family.values(family.state(y)).reshape(2, 2)) for y in ys]
    fits = [maxent_fit(basis, family, targets[0], init=LagrangeFields(ys[0] + 0.01))]
    fits.append(maxent_fit(basis, family, targets[1], init=fits[0].state))
    assert all("mode_occupations" in vars(fit.state) for fit in fits)
    n_pairs = len(pair_basis(4, statistics))
    rates = TwoBodyKernels(np.array([random_kernel(rng, 4, "complex") for _ in range(2)]),
                           np.array([random_kernel(rng, n_pairs, "complex") for _ in range(2)]),
                           statistics)
    for state in states + states[::-1] + [fit.state for fit in fits]:
        values, chi = family.values(state), family.chi(state)
        fresh = CellKernels(basis, kernels.copy())
        spectrum = state.spectrum
        again = GibbsState(state.fields, state.log_z, state.probabilities.copy(),
                           ModeSpectrum(basis, spectrum.energies.copy(), spectrum.vectors.copy()))
        for got, want in [(state.mode_occupations, again.mode_occupations),
                          (state.mode_correlations, again.mode_correlations),
                          (values, fresh.values(again)), (chi, fresh.chi(again)),
                          (rates.values(state), rates.values(again))]:
            assert np.array_equal(got, want)


GEOM = BoxGeometry((1.0,))
ONE_FERMI = (Statistics.FERMI, (2,), "gaussian", 4, 0)


@st.composite
def generator_cases(draw):
    """Statistics, distinct 1D mode numbers, coupling kind, n_max and a seed."""
    statistics = draw(st.sampled_from(tuple(Statistics)))
    top = 4 if statistics is Statistics.BOSE else 6
    numbers = draw(st.lists(st.integers(1, 9), min_size=1, max_size=top, unique=True))
    n_max = draw(st.integers(3, 4))
    return (statistics, tuple(sorted(numbers)), draw(st.sampled_from(("contact", "gaussian"))),
            n_max, draw(st.integers(0, 2 ** 32 - 1)))


def generator_setup(case):
    """Coefficients, the on-shell T they were built from, the basis (Fermi
    n_max capped at the mode count) and a rng."""
    statistics, numbers, coupling, n_max, seed = case
    modes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    if coupling == "contact":
        vt = contact_tensor(modes, Contact(0.7), GEOM)
    else:
        vt = potential_tensor(modes, Gaussian(1.0, 0.25), GEOM)
    t_on = onshell_tmatrix(modes, pair_matrix_from_tensor(vt, statistics), statistics, 5.0)
    if statistics is Statistics.FERMI:
        n_max = min(n_max, len(numbers))
    return (build_coefficients(modes, t_on, statistics, 8.0), t_on,
            build_basis(len(numbers), n_max, statistics), np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(case=generator_cases())
@example(case=ONE_FERMI)
def test_reduced_images_match_lprime_on_every_sector(case):
    coeffs, t_on, basis, rng = generator_setup(case)
    n = basis.n_modes
    kernels = np.array([random_kernel(rng, n, "complex") for _ in range(2)])
    k1, k2 = reduced_images(coeffs, kernels)
    n_pairs = len(pair_basis(n, basis.statistics))
    assert k1.shape == (2, n, n) and k2.shape == (2, n_pairs, n_pairs)
    lp = Lprime(basis, coeffs)
    for kernel, one, two in zip(kernels, k1, k2):
        want = sum(dense_parts(basis, coeffs, t_on, kernel))
        scale = max(1.0, float(np.max(np.abs(want))))
        for got in (one_body_operator(basis, one) + two_body_operator(basis, two),
                    lp.apply(kernel)):
            assert np.max(np.abs(got.dense() - want)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(case=generator_cases(), kind=st.sampled_from(KINDS))
@example(case=ONE_FERMI, kind="complex")
def test_kernel_rates_match_the_fock_space_trace(case, kind):
    coeffs, t_on, basis, rng = generator_setup(case)
    n = basis.n_modes
    kernels = np.array([random_kernel(rng, n, "complex") for _ in range(3)])
    rates = TwoBodyKernels(*reduced_images(coeffs, kernels), basis.statistics)
    k = random_kernel(rng, n, kind, complex_=kind != "real")
    weight = gibbs_from_operator(one_body_operator(basis, k)).weight_blocks
    images = np.array([sum(dense_parts(basis, coeffs, t_on, kernel)) for kernel in kernels])
    want = np.einsum("ij,mji->m", weight.dense(), images)
    assert_close(rates.values(_kernel_gibbs(basis, k, None)), want.real)


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 1.07, 1.13)])
@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_folded_kernel_values_match_the_two_layout_formula(statistics, lengths):
    # five modes of a 1D box or of the pair3d box, Gibbs states of every kernel kind
    geom = BoxGeometry(lengths)
    modes = box_modes(geom, 5)
    vt = potential_tensor(modes, Gaussian(1.0, 0.25), geom, order=8)
    v_pair = pair_matrix_from_tensor(vt, statistics)
    coeffs = build_coefficients(modes, onshell_tmatrix(modes, v_pair, statistics, 5.0),
                                statistics, 8.0)
    basis = build_basis(5, 3, statistics)
    rng = np.random.default_rng(len(lengths))
    k1, k2 = reduced_images(coeffs, np.array([random_kernel(rng, 5, "complex") for _ in range(3)]))
    rates = TwoBodyKernels(k1, k2, statistics)
    # k2 as the canonical (anti)symmetric tensor
    pairs = pair_basis(5, statistics)
    tensors = np.array([tensor_from_pair_matrix(m, pairs, statistics, 5) for m in k2])
    for kind in KINDS:
        state = _kernel_gibbs(basis, random_kernel(rng, 5, kind, complex_=kind != "real"), None)
        assert_close(rates.values(state), two_layout_kernel_values(statistics, k1, tensors, state))


@pytest.mark.parametrize("coupling", ["1d contact", "1d gaussian", "3d gaussian"])
@pytest.mark.parametrize("statistics", tuple(Statistics))
def test_pair_space_images_match_the_auxiliary_basis_oracle(statistics, coupling):
    # k1 and the pair matrix k2 from pair-space algebra against the kernels read
    # off the dense images on an n_max 2 basis, at 12 modes; the sums run in another
    # order, and the largest difference seen is 5e-13 of the scale
    geom = BoxGeometry((1.0, 1.07, 1.13)) if coupling == "3d gaussian" else GEOM
    modes = box_modes(geom, 12)
    if coupling == "1d contact":
        vt = contact_tensor(modes, Contact(0.7), geom)
    else:
        vt = potential_tensor(modes, Gaussian(1.0, 0.25), geom)
    t_on = onshell_tmatrix(modes, pair_matrix_from_tensor(vt, statistics), statistics, 5.0)
    coeffs = build_coefficients(modes, t_on, statistics, 8.0)
    rng = np.random.default_rng(0)
    kernels = np.array([random_kernel(rng, 12, "complex") for _ in range(3)])
    k1, k2 = reduced_images(coeffs, kernels)
    want1, want2 = dense_reduced_images(coeffs, t_on, kernels)
    want2 = np.array([pair_matrix_from_tensor(t, statistics) for t in want2])
    assert_close(k1, want1)
    scale = max(1.0, float(np.max(np.abs(want2))))
    assert np.max(np.abs(k2 - want2)) <= 2e-12 * scale
