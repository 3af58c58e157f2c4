import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from boxgas import gibbs
from boxgas.fieldmodel import (
    HBAR,
    MASS,
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    Zero,
    box_modes,
    energy_density_op,
    mass_density_op,
    modes_from_numbers,
    momentum_density_op,
    whole_box_grid,
)
from boxgas.fock import Statistics, build_basis, one_body_operator, pair_basis, two_body_operator
from boxgas.generator import PositivityReport
from boxgas.gibbs import (
    MAX_ITER,
    _km_kernel,
    _totals_start,
    CellObservables,
    ConstraintSet,
    FitError,
    FitResult,
    LagrangeFields,
    cell_kernel_family,
    cell_observables,
    chi_matrix,
    constraint_values,
    entropy,
    expectation,
    gibbs_from_operator,
    gibbs_state,
    maxent_fit,
    targets_vector,
)
from boxgas.matrixutil import BlockDiagonal, frob
from dense_oracles import (
    constrained_perturbation,
    dense_vectors,
    kubo_mori_susceptibility,
    one_block,
    sector_totals_start,
    split_blocks,
    weight_entropy,
)

GEOM = BoxGeometry((1.0,))
UNIT = 0.5 * math.pi ** 2  # lowest box level for L = m = hbar = 1


def make_system(numbers=(1, 2, 3), n_max=2, cells=1, potential=None,
                statistics=Statistics.BOSE):
    potential = Zero() if potential is None else potential
    modes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    basis = build_basis(len(numbers), n_max, statistics)
    grid = whole_box_grid(GEOM) if cells == 1 else CellGrid(GEOM, (cells,))
    obs = cell_observables(basis, modes, grid, potential)
    return modes, basis, grid, obs


def uniform_fields(n_cells, beta, mu):
    return LagrangeFields.from_beta_mu(beta=np.full(n_cells, float(beta)), mu=np.full(n_cells, float(mu)))


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.conj().T)


def diagonal_oracle(basis, beta, mu, mass=MASS):
    """Free-gas probabilities by direct scalar sums over occupation vectors."""
    energies = np.array([UNIT * k * k for k in (1, 2, 3)])
    weights = []
    for occ in basis.states:
        e = float(occ @ energies)
        n = float(occ.sum())
        weights.append(math.exp(-beta * (e - mu * mass * n)))
    weights = np.array(weights)
    return weights / weights.sum(), energies


# ---------------------------------------------------------------------------
# fields, targets, observables


def test_fields_hold_the_multipliers_bit_for_bit():
    assert uniform_fields(3, beta=2.0, mu=-0.5).n_cells == 3
    y = np.array([0.7, 1.3, -0.1 / 3.0, 0.29])
    fields = LagrangeFields(y)
    assert np.array_equal(fields.multipliers, y)
    assert fields.n_cells == 2
    assert np.array_equal(fields.beta, y[:2])
    assert np.array_equal(fields.mu, -y[2:] / y[:2])
    assert np.array_equal(LagrangeFields(fields.multipliers).multipliers, y)
    built = LagrangeFields.from_beta_mu([0.7, 1.3], [0.2, -0.1])
    assert np.array_equal(built.multipliers, [0.7, 1.3, -0.7 * 0.2, 1.3 * 0.1])


@pytest.mark.parametrize("beta, mu, match", [
    ([1.0, 0.0], [0.0, 0.0], "positive"),
    ([1.0, -0.5], [0.0, 0.0], "positive"),
    ([1.0, np.inf], [0.0, 1.0], "finite"),
    ([1.0, 1.0], [0.0, np.nan], "finite"),
    ([1.0], [0.0, 0.0], "cell"),
    ([[1.0]], [[0.0]], "cell"),
])
def test_field_validation(beta, mu, match):
    with pytest.raises(ValueError, match=match):
        LagrangeFields.from_beta_mu(beta, mu)


@pytest.mark.parametrize("y, match", [
    ([1.0, 0.0, 0.0], "pair per cell"),
    ([[1.0, 0.0]], "pair per cell"),
    ([1.0, np.nan], "finite"),
    ([0.0, 0.0], "positive"),
])
def test_fields_reject_bad_multipliers(y, match):
    with pytest.raises(ValueError, match=match):
        LagrangeFields(np.array(y))


def test_fit_above_the_infinite_temperature_energy_raises_fit_error():
    # at fixed mass the cell energy falls as beta grows, so an energy above
    # its beta -> 0 mean is met only at beta < 0: Newton lands there and the
    # fit raises FitError, the error that makes `integrate` halve its step
    _, basis, _, obs = make_system()
    energy, mass = obs.values(obs.state(np.array([0.0, 0.0])))
    with pytest.raises(FitError, match="non-positive inverse temperature") as info:
        maxent_fit(basis, obs, ConstraintSet(np.array([1.2 * energy]), np.array([mass])))
    assert info.type is FitError


def test_array_holders_compare_by_identity_and_records_keep_their_fields():
    # field-wise == and hash() of array fields would raise ("truth value ...
    # ambiguous", "unhashable type"), so states and operators compare as objects
    _, basis, _, obs = make_system()
    fields = uniform_fields(1, beta=0.7, mu=0.1)
    first, second = (gibbs_state(basis, obs, fields) for _ in range(2))
    for a, b in ((first, second), (first.weight_blocks, second.weight_blocks)):
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
    assert FitResult._fields == ("fields", "state", "iterations", "residual_norms")
    assert PositivityReport._fields == ("n_samples", "tau_max", "min_real", "max_imag",
                                        "passed", "worst_sample", "worst_tau")


def test_constraint_set_validation():
    with pytest.raises(ValueError, match="cell"):
        ConstraintSet(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        ConstraintSet(np.array([np.inf]), np.array([1.0]))
    t = ConstraintSet(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert np.allclose(targets_vector(t), [1.0, 2.0, 0.5, 0.5])


def test_boosted_operators_match_field_builders():
    # the constraint stack is the direct cell energies, then the cell masses,
    # and the Gibbs exponent is sum_c beta_c E_c - beta_c mu_c N_c on them
    modes, basis, grid, obs = make_system(cells=2, potential=Contact(0.8))
    direct = np.array([energy_density_op(basis, modes, grid, c, Contact(0.8)).dense()
                       for c in range(2)]
                      + [mass_density_op(basis, modes, grid, c).dense() for c in range(2)])
    scale = max(frob(direct), 1.0)
    assert frob(obs.blocks.dense() - direct) <= 1e-12 * scale
    fields = LagrangeFields.from_beta_mu(np.array([0.7, 1.2]), np.array([0.1, -0.2]))
    want = sum(fields.beta[c] * direct[c] - fields.beta[c] * fields.mu[c] * direct[2 + c]
               for c in range(2))
    k = gibbs_state(basis, obs, fields).spectrum.exponent.dense()
    assert frob(k - want) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# state construction


def test_weight_invariants_and_commutation():
    _, basis, _, obs = make_system(potential=Contact(0.7))
    fields = uniform_fields(1, beta=0.8, mu=0.1)
    state = gibbs_state(basis, obs, fields)
    w, k = state.weight, state.spectrum.exponent.dense()
    assert abs(np.trace(w).real - 1.0) <= 1e-12
    assert frob(w - w.conj().T) <= 1e-12 * frob(w)
    assert np.min(np.linalg.eigvalsh(w)) >= -1e-14
    scale = frob(k) * frob(w) + 1e-300
    assert frob(k @ w - w @ k) <= 1e-12 * scale


def test_infinite_temperature_limit():
    _, basis, _, obs = make_system()
    fields = uniform_fields(1, beta=1e-9, mu=0.0)
    state = gibbs_state(basis, obs, fields)
    assert frob(state.weight - np.eye(basis.dim) / basis.dim) <= 1e-6


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_free_gas_matches_diagonal_oracle(statistics):
    _, basis, _, obs = make_system(statistics=statistics)
    beta, mu = 0.4, -0.2
    state = gibbs_state(basis, obs, uniform_fields(1, beta, mu))
    probs, energies = diagonal_oracle(basis, beta, mu)
    for f in range(3):
        op = split_blocks(np.diag(basis.states[:, f].astype(complex)), basis.sectors, ["n_f"])
        want = float(probs @ basis.states[:, f])
        assert abs(expectation(state, op) - want) <= 1e-12 * (1.0 + abs(want))
    e_op = split_blocks(np.diag((basis.states @ energies).astype(complex)), basis.sectors, ["E"])
    assert abs(expectation(state, e_op) - float(probs @ (basis.states @ energies))) <= 1e-10


def test_state_basis_mismatch_errors():
    _, basis, _, obs = make_system()
    other = build_basis(3, 1, Statistics.BOSE)
    with pytest.raises(ValueError, match="different basis"):
        gibbs_state(other, obs, uniform_fields(1, 1.0, 0.0))
    with pytest.raises(ValueError, match="cell count"):
        gibbs_state(build_basis(3, 2, Statistics.BOSE), obs,
                    uniform_fields(2, 1.0, 0.0))


# ---------------------------------------------------------------------------
# expectations and entropy


def test_expectation_reality_guard():
    _, basis, _, obs = make_system()
    # one block over the whole space, so a dense operator pairs with the state
    k = gibbs_state(basis, obs, uniform_fields(1, 0.5, 0.0)).spectrum.exponent.dense()
    state = gibbs_from_operator(one_block(k))
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, basis.dim)
    val = expectation(state, one_block(h))
    assert isinstance(val, float)
    skew = 1j * h  # anti-hermitian argument must be rejected
    with pytest.raises(ValueError, match="imaginary"):
        expectation(state, one_block(skew + np.eye(basis.dim)))


def test_mass_on_maximally_mixed():
    _, basis, _, obs = make_system()
    state = gibbs_from_operator(one_block(np.zeros((basis.dim, basis.dim))))
    want = MASS * basis.totals().mean()
    mass = one_body_operator(basis, MASS * np.eye(basis.n_modes)).dense()
    assert abs(expectation(state, one_block(mass)) - want) <= 1e-12 * (1 + want)


def test_momentum_vanishes_at_zero_velocity():
    # why no velocity field is carried: every cell of a fitted (beta, mu)
    # state holds zero momentum, so a velocity re-solved from it stays zero
    geom_3d = BoxGeometry((1.0, 1.07, 1.13))
    cases = [(GEOM, [(1,), (2,), (3,)], (2,), Contact(0.9)),
             (geom_3d, [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)], (2, 1, 1),
              Gaussian(0.8, 0.25))]
    true_fields = LagrangeFields.from_beta_mu(np.array([0.3, 0.2]), np.array([0.2, -0.1]))
    for geom, numbers, cells, potential in cases:
        modes = modes_from_numbers(geom, numbers)
        grid = CellGrid(geom, cells)
        for statistics in (Statistics.BOSE, Statistics.FERMI):
            basis = build_basis(len(numbers), 2, statistics)
            obs = cell_observables(basis, modes, grid, potential)
            targets = ConstraintSet(*constraint_values(gibbs_state(basis, obs, true_fields), obs))
            state = maxent_fit(basis, obs, targets).state
            for c in range(grid.n_cells):
                for p_op in momentum_density_op(basis, modes, grid, c):
                    assert abs(expectation(state, p_op)) <= 1e-12


def test_entropy_limits_and_blocks():
    dim = 4
    assert abs(weight_entropy(np.eye(dim) / dim) - math.log(dim)) <= 1e-12
    pure = np.zeros((dim, dim))
    pure[0, 0] = 1.0
    assert abs(weight_entropy(pure)) <= 1e-12
    rng = np.random.default_rng(5)
    blocks = []
    for d in (2, 3):
        h = random_hermitian(rng, d)
        w = gibbs_from_operator(one_block(h)).weight
        blocks.append(w)
    joint = np.kron(blocks[0], blocks[1])
    want = weight_entropy(blocks[0]) + weight_entropy(blocks[1])
    assert abs(weight_entropy(joint) - want) <= 1e-12 * (1.0 + want)
    with pytest.raises(ValueError, match="negative"):
        weight_entropy(np.diag([1.1, -0.1]))


def test_entropy_of_gibbs_state_object():
    _, basis, _, obs = make_system()
    state = gibbs_state(basis, obs, uniform_fields(1, 0.7, 0.0))
    assert abs(entropy(state) - weight_entropy(state.weight)) <= 1e-10


# ---------------------------------------------------------------------------
# susceptibility


def test_chi_metric_properties():
    _, basis, _, obs = make_system(potential=Contact(0.5))
    state = gibbs_state(basis, obs, uniform_fields(1, 0.6, -0.1))
    rng = np.random.default_rng(11)
    eye = np.eye(basis.dim, dtype=complex)
    for _ in range(5):
        a = random_hermitian(rng, basis.dim)
        b = random_hermitian(rng, basis.dim)
        assert kubo_mori_susceptibility(state, a, a) >= -1e-12
        asym = abs(kubo_mori_susceptibility(state, a, b)
                   - kubo_mori_susceptibility(state, b, a))
        assert asym <= 1e-10
        assert abs(kubo_mori_susceptibility(state, eye, b)) <= 1e-12


def test_chi_matches_finite_difference():
    _, basis, _, obs = make_system(potential=Contact(0.5))
    state = gibbs_state(basis, obs, uniform_fields(1, 0.6, -0.1))
    rng = np.random.default_rng(21)
    a = random_hermitian(rng, basis.dim)
    b = random_hermitian(rng, basis.dim)
    chi = kubo_mori_susceptibility(state, a, b)
    h = 1e-4
    k = state.spectrum.exponent.dense()
    up = expectation(gibbs_from_operator(one_block(k + h * b)), one_block(a))
    dn = expectation(gibbs_from_operator(one_block(k - h * b)), one_block(a))
    deriv = (up - dn) / (2.0 * h)
    assert abs(deriv + chi) <= 1e-6 * (1.0 + abs(chi))


def test_chi_matches_integral_definition():
    # quadrature on the defining s-integral, including a near-degenerate pair
    rng = np.random.default_rng(31)
    evals = np.array([0.0, 1e-7, 0.9, 2.0, 3.5])
    raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(raw)
    k = (u * evals) @ u.conj().T
    state = gibbs_from_operator(one_block(k))
    a = random_hermitian(rng, 5)
    b = random_hermitian(rng, 5)
    vectors = dense_vectors(state)
    at = vectors.conj().T @ a @ vectors
    bt = vectors.conj().T @ b @ vectors
    nodes, wts = leggauss(64)
    s = 0.5 * (nodes + 1.0)
    p = state.probabilities
    total = 0.0
    for si, wi in zip(s, wts):
        total += 0.5 * wi * np.einsum("i,j,ij,ji->", p ** si, p ** (1.0 - si), at, bt)
    mean_a = float(np.trace(state.weight @ a).real)
    mean_b = float(np.trace(state.weight @ b).real)
    want = float(total.real) - mean_a * mean_b
    got = kubo_mori_susceptibility(state, a, b)
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_chi_matrix_symmetric_psd():
    _, basis, _, obs = make_system(cells=2, potential=Contact(0.8))
    fields = LagrangeFields.from_beta_mu(np.array([1.0, 0.8]), np.array([0.1, 0.0]))
    state = gibbs_state(basis, obs, fields)
    chi = chi_matrix(state, obs.blocks)
    assert np.allclose(chi, chi.T, atol=1e-12 * (1 + np.max(np.abs(chi))))
    assert np.min(np.linalg.eigvalsh(chi)) >= -1e-10 * max(1.0, np.max(np.abs(chi)))


# ---------------------------------------------------------------------------
# maximum-entropy fit


def test_maxent_round_trip_two_cells():
    _, basis, _, obs = make_system(cells=2, potential=Contact(0.8))
    true_fields = LagrangeFields.from_beta_mu(np.array([1.1, 0.9]), np.array([0.2, -0.1]))
    true_state = gibbs_state(basis, obs, true_fields)
    energy, mass_vals = constraint_values(true_state, obs)
    targets = ConstraintSet(energy, mass_vals)
    result = maxent_fit(basis, obs, targets)
    assert isinstance(result, FitResult)
    assert result.iterations <= 50
    assert result.residual_norms[-1] <= 1e-8
    assert np.max(np.abs(result.fields.beta - true_fields.beta)
                  / true_fields.beta) <= 1e-6
    assert np.max(np.abs(result.fields.mu - true_fields.mu)) <= 1e-6 * (
        1.0 + np.max(np.abs(true_fields.mu)))
    assert frob(result.state.weight - true_state.weight) <= 1e-8
    fit_e, fit_m = constraint_values(result.state, obs)
    assert np.max(np.abs(fit_e - energy)) <= 1e-8 * (1 + np.max(np.abs(energy)))
    assert np.max(np.abs(fit_m - mass_vals)) <= 1e-8


def test_maxent_warm_start_round_trip():
    _, basis, _, obs = make_system(cells=2, potential=Contact(0.8))
    true_fields = LagrangeFields.from_beta_mu(np.array([1.3, 0.7]), np.array([0.0, 0.1]))
    energy, mass_vals = constraint_values(gibbs_state(basis, obs, true_fields), obs)
    init = LagrangeFields.from_beta_mu(np.array([1.2, 0.8]), np.array([0.05, 0.05]))
    result = maxent_fit(basis, obs, ConstraintSet(energy, mass_vals), init=init)
    assert np.max(np.abs(result.fields.beta - true_fields.beta)) <= 1e-6 * 1.3
    assert result.iterations <= 50


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_maxent_warm_state_and_chi_change_no_bit(statistics):
    # handing a fit the state of its warm-start fields, and chi at exactly
    # that state, skips their recomputation and nothing else
    modes, basis, grid, _ = make_system(numbers=(1, 2, 3, 4), n_max=3, cells=2,
                                        statistics=statistics)
    family = cell_kernel_family(basis, modes, grid)
    true_fields = LagrangeFields.from_beta_mu(np.array([0.25, 0.2]), np.array([0.1, -0.2]))
    targets = ConstraintSet(*constraint_values(gibbs_state(basis, family, true_fields),
                                               family))
    init = LagrangeFields.from_beta_mu(np.array([0.23, 0.21]), np.array([0.05, -0.1]))
    warm = gibbs_state(basis, family, init)
    plain = maxent_fit(basis, family, targets, init=init)
    assert plain.iterations >= 2
    for seeded in (maxent_fit(basis, family, targets, init=warm),
                   maxent_fit(basis, family, targets, init=warm, chi=family.chi(warm))):
        assert np.array_equal(seeded.fields.beta, plain.fields.beta)
        assert np.array_equal(seeded.fields.mu, plain.fields.mu)
        assert seeded.iterations == plain.iterations
        assert np.array_equal(seeded.residual_norms, plain.residual_norms)
    with pytest.raises(ValueError, match="warm-start state"):
        maxent_fit(basis, family, targets, init=init, chi=family.chi(warm))


def test_maxent_free_gas_scalar_inversion():
    # one mode: K reduces to c N with c = beta (W - mu m); root-find c directly
    modes = modes_from_numbers(GEOM, [(1,)])
    basis = build_basis(1, 3, Statistics.BOSE)
    grid = whole_box_grid(GEOM)
    obs = cell_observables(basis, modes, grid, Zero())
    w1 = UNIT
    beta_true, mu_true = 0.7, -0.3
    c_true = beta_true * (w1 - mu_true * MASS)

    def mean_number(c):
        ns = np.arange(4)
        p = np.exp(-c * ns)
        return float((ns * p).sum() / p.sum())

    n_target = mean_number(c_true)
    targets = ConstraintSet(np.array([w1 * n_target]), np.array([MASS * n_target]))
    c_root = brentq(lambda c: mean_number(c) - n_target, 1e-8, 60.0, xtol=1e-14)
    assert abs(c_root - c_true) <= 1e-10
    result = maxent_fit(basis, obs, targets)
    fitted = result.fields
    c_fit = fitted.beta[0] * (w1 - fitted.mu[0] * MASS)
    assert abs(c_fit - c_root) <= 1e-6 * c_root
    p_exact = np.exp(-c_root * np.arange(4))
    p_exact /= p_exact.sum()
    assert frob(result.state.weight - np.diag(p_exact)) <= 1e-8


def test_maxent_infeasible_mass_target():
    _, basis, _, obs = make_system()
    with pytest.raises(ValueError, match="infeasible mass target"):
        maxent_fit(basis, obs, ConstraintSet(np.array([1.0]), np.array([100.0])))


def test_maxent_inconsistent_targets_error():
    # degenerate observables with conflicting targets cannot converge
    modes = modes_from_numbers(GEOM, [(1,)])
    basis = build_basis(1, 3, Statistics.BOSE)
    obs = cell_observables(basis, modes, whole_box_grid(GEOM), Zero())
    bad = ConstraintSet(np.array([UNIT * 1.8]), np.array([MASS * 1.2]))
    with pytest.raises(ValueError, match="did not converge|unbounded dual step"):
        maxent_fit(basis, obs, bad, max_iter=40)


def test_maxent_unattainable_energy_target():
    _, basis, _, obs = make_system()
    feasible_mass = np.array([1.0])
    with pytest.raises(ValueError, match="unbounded dual step|did not converge"):
        maxent_fit(basis, obs, ConstraintSet(np.array([1e4]), feasible_mass))


def test_maximality_against_constrained_perturbations():
    _, basis, _, obs = make_system(cells=2, potential=Contact(0.8))
    true_fields = LagrangeFields.from_beta_mu(np.array([1.1, 0.9]), np.array([0.2, -0.1]))
    energy, mass_vals = constraint_values(gibbs_state(basis, obs, true_fields), obs)
    targets = ConstraintSet(energy, mass_vals)
    result = maxent_fit(basis, obs, targets)
    state = result.state
    ops = obs.blocks.dense()
    t_vec = targets_vector(targets)
    s_star = entropy(state)
    rng = np.random.default_rng(3)
    for _ in range(20):
        w_prime = constrained_perturbation(state, obs.blocks, rng, scale=1e-5)
        values = np.array([float(np.trace(w_prime @ op).real) for op in ops])
        assert np.max(np.abs(values - t_vec) / np.maximum(1.0, np.abs(t_vec))) <= 1e-8
        assert s_star >= weight_entropy(w_prime) - 1e-9



def test_fit_failures_raise_fit_error():
    _, basis, _, obs = make_system()
    with pytest.raises(FitError, match="infeasible mass target"):
        maxent_fit(basis, obs, ConstraintSet(np.array([1.0]), np.array([100.0])))
    with pytest.raises(FitError, match="unbounded dual step|did not converge"):
        maxent_fit(basis, obs, ConstraintSet(np.array([1e4]), np.array([1.0])))


class RisingFamily:
    """A constraint family whose ln Z rises at every state it builds, with a
    fixed residual and a positive definite chi: every Newton step passes the
    descent check, and no halving of it lowers the dual."""

    def __init__(self):
        self.built = 0

    def state(self, y):
        self.built += 1
        return SimpleNamespace(log_z=float(self.built))

    def values(self, state):
        return np.array([1.0, -0.5])

    def chi(self, state):
        return np.array([[2.0, 0.5], [0.5, 1.0]])


def test_exhausted_line_search_raises_fit_error():
    family = RisingFamily()
    with pytest.raises(FitError, match="line search failed: 40 halvings"):
        gibbs._newton_fit(family, np.zeros(2), np.array([1.0, 0.0]), tol=1e-8, max_iter=5)
    assert family.built == 1 + 40  # the start, then every trial of the first step


# box, modes, potential and the scale of beta of the cold-start systems
COLD_START_BOXES = {
    "1d contact": (GEOM, [(k,) for k in (1, 2, 3, 4)], Contact(0.8), 0.5),
    "1d gaussian": (GEOM, [(k,) for k in (1, 2, 3, 4)], Gaussian(0.8, 0.25), 0.5),
    "3d gaussian": (BoxGeometry((1.0, 1.07, 1.13)), None, Gaussian(0.8, 0.25), 0.1),
}


def cold_start_system(box, statistics, cells):
    """Basis, modes, grid, potential, box and unequal cell fields, at n_max 2."""
    geom, numbers, potential, beta = COLD_START_BOXES[box]
    modes = box_modes(geom, 4) if numbers is None else modes_from_numbers(geom, numbers)
    basis = build_basis(len(modes), 2, statistics)
    grid = CellGrid(geom, (cells,) + (1,) * (geom.dimension - 1))
    fields = LagrangeFields.from_beta_mu(beta * np.array([1.0, 0.8])[:cells], np.array([0.3, -0.2])[:cells])
    return basis, modes, grid, potential, geom, fields


@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("statistics", tuple(Statistics))
@pytest.mark.parametrize("box", sorted(COLD_START_BOXES))
def test_totals_start_matches_the_sector_oracle(box, statistics, cells):
    # the fit on the fixed levels of the commuting totals lands where Newton
    # over the summed family lands, which diagonalises y0 H + y1 M each step
    basis, modes, grid, potential, geom, fields = cold_start_system(box, statistics, cells)
    for obs in (cell_observables(basis, modes, grid, potential),
                cell_kernel_family(basis, modes, grid)):
        targets = ConstraintSet(*constraint_values(gibbs_state(basis, obs, fields), obs))
        got = _totals_start(basis, obs, targets, MAX_ITER)
        want = sector_totals_start(obs, targets)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("statistics", tuple(Statistics))
@pytest.mark.parametrize("box", sorted(COLD_START_BOXES))
def test_cell_masses_sum_to_mass_times_number(box, statistics, cells):
    # the identity that lets the cold start give each level of sum_c E_c the
    # mass MASS N of its sector
    basis, modes, grid, potential, geom, _ = cold_start_system(box, statistics, cells)
    obs = cell_observables(basis, modes, grid, potential)
    for number, block in enumerate(obs.blocks.blocks):
        total = block[obs.n_cells:].sum(axis=0)
        assert np.max(np.abs(total - MASS * number * np.eye(len(total)))) <= 1e-12 * max(1, number)
    kernels = cell_kernel_family(basis, modes, grid).kernels
    assert np.max(np.abs(kernels[cells:].sum(axis=0) - MASS * np.eye(len(modes)))) <= 1e-12


@pytest.mark.parametrize("statistics", tuple(Statistics))
def test_cold_start_diagonalises_each_sector_block_of_the_total_energy_once(statistics,
                                                                            monkeypatch):
    # before the per-cell fit, the only decompositions are one eigvalsh per
    # sector block of sum_c E_c and the PSD checks of the 2 x 2 totals chi;
    # no sector here has dim 2 (dims 1, 3, 6 and 1, 4, 6), so they are told apart
    numbers = (1, 2, 3) if statistics is Statistics.BOSE else (1, 2, 3, 4)
    _, basis, _, obs = make_system(numbers=numbers, cells=2, potential=Contact(0.8),
                                   statistics=statistics)
    assert 2 not in [s.stop - s.start for s in basis.sectors]
    fields = LagrangeFields.from_beta_mu(np.array([1.1, 0.9]), np.array([0.2, -0.1]))
    targets = ConstraintSet(*constraint_values(gibbs_state(basis, obs, fields), obs))
    assert obs.mass_bounds.shape == (2, 2)  # the feasibility check's spectra, read beforehand
    seen, cell_fit_from = [], []

    def counted(real):
        def decompose(a, *args, **kwargs):
            seen.append(np.array(a))
            return real(a, *args, **kwargs)
        return decompose

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    real_newton = gibbs._newton_fit

    def newton(family, *args, **kwargs):
        if family is obs:
            cell_fit_from.append(len(seen))
        return real_newton(family, *args, **kwargs)

    monkeypatch.setattr(gibbs, "_newton_fit", newton)
    fit = maxent_fit(basis, obs, targets)
    assert len(cell_fit_from) == 1
    cold = [a for a in seen[:cell_fit_from[0]] if a.shape != (2, 2)]
    total_energy = [b[:obs.n_cells].sum(axis=0) for b in obs.blocks.blocks]
    assert len(cold) == len(total_energy)
    for got, want in zip(cold, total_energy):
        assert np.array_equal(got, want)
    assert fit.residual_norms[-1] <= 1e-8


def test_mass_bounds_match_dense_spectrum():
    _, _, _, obs = make_system(cells=2, potential=Contact(0.8))
    for c in range(obs.n_cells):
        evals = np.linalg.eigvalsh(obs.blocks[obs.n_cells + c].dense())
        assert np.allclose(obs.mass_bounds[c], [evals[0], evals[-1]], atol=1e-13)


# ---------------------------------------------------------------------------
# number-sector blocks against the dense oracle

SECTOR_CASES = [(Statistics.BOSE, 2, 3), (Statistics.BOSE, 3, 2), (Statistics.BOSE, 3, 3),
                (Statistics.BOSE, 4, 2), (Statistics.FERMI, 3, 2), (Statistics.FERMI, 4, 3),
                (Statistics.FERMI, 5, 2)]


def random_conserving(basis, rng, two_body=True):
    """Random hermitian one-body plus two-body operator, in sector blocks."""
    f = basis.n_modes
    op = one_body_operator(basis, random_hermitian(rng, f))
    if two_body:
        n_pairs = len(pair_basis(f, basis.statistics))
        raw = rng.standard_normal((n_pairs,) * 2) + 1j * rng.standard_normal((n_pairs,) * 2)
        op = op + two_body_operator(basis, 0.5 * (raw + raw.conj().T))
    return op


def dense_gibbs_oracle(k):
    """The single-eigh construction: weight, ln Z and probabilities."""
    evals, vecs = np.linalg.eigh(k)
    probs = np.exp(-(evals - evals[0]))
    probs /= probs.sum()
    return (vecs * probs) @ vecs.conj().T, float(scipy.special.logsumexp(-evals)), probs, vecs


def dense_chi_oracle(k, ops):
    weight, _, probs, vecs = dense_gibbs_oracle(k)
    transformed = np.array([vecs.conj().T @ op @ vecs for op in ops])
    corr = np.einsum("ab,iab,jba->ij", _km_kernel(probs), transformed, transformed)
    means = np.array([np.trace(weight @ op) for op in ops])
    chi = corr - np.outer(means, means)
    return (0.5 * (chi + chi.conj().T)).real


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SECTOR_CASES), seed=st.integers(0, 2 ** 32 - 1))
def test_sector_blocks_match_dense_oracle(case, seed):
    statistics, n_modes, n_max = case
    basis = build_basis(n_modes, n_max, statistics)
    rng = np.random.default_rng(seed)
    k_blocks = random_conserving(basis, rng)
    k = k_blocks.dense()
    op_blocks = BlockDiagonal.stack(random_conserving(basis, rng, two_body=False)
                                    for _ in range(3))
    ops = op_blocks.dense()
    state = gibbs_from_operator(k_blocks)
    weight, log_z, probs, _ = dense_gibbs_oracle(k)
    assert np.max(np.abs(state.weight - weight)) <= 1e-12
    assert abs(state.log_z - log_z) <= 1e-12 * (1.0 + abs(log_z))
    assert np.max(np.abs(np.sort(state.probabilities) - np.sort(probs))) <= 1e-12
    assert np.max(np.abs(state.spectrum.exponent.dense() - k)) == 0.0
    chi_want = dense_chi_oracle(k, ops)
    scale = max(1.0, float(np.max(np.abs(chi_want))))
    assert np.max(np.abs(chi_matrix(state, op_blocks) - chi_want)) <= 1e-12 * scale
    for op, blocks in zip(ops, op_blocks):
        want = float(np.trace(weight @ op).real)
        assert abs(expectation(state, blocks) - want) <= 1e-12 * (1.0 + abs(want))


def test_block_stack_combine_and_dense():
    basis = build_basis(3, 2, Statistics.FERMI)
    rng = np.random.default_rng(9)
    items = [random_conserving(basis, rng) for _ in range(3)]
    ops = np.array([item.dense() for item in items])
    blocks = BlockDiagonal.stack(items)
    assert isinstance(blocks, BlockDiagonal) and len(blocks) == 3
    assert np.array_equal(blocks.dense(), ops)
    assert np.array_equal(split_blocks(ops, basis.sectors, ["a", "b", "c"]).dense(), ops)
    y = rng.standard_normal(3)
    assert np.max(np.abs(blocks.combine(y).dense() - np.einsum("i,iab->ab", y, ops))) <= 1e-13
    assert np.array_equal(blocks[1].dense(), ops[1])
    assert np.array_equal((items[0] + items[1]).dense(), ops[0] + ops[1])
    assert np.array_equal((items[0] - items[2]).dense(), ops[0] - ops[2])
    assert abs(blocks.norm() - frob(ops)) <= 1e-13 * frob(ops)
    assert abs(items[1].norm() - frob(ops[1])) <= 1e-13 * frob(ops[1])
    # operators over different slices do not pair
    other = random_conserving(build_basis(3, 3, Statistics.FERMI), rng)
    whole = gibbs_from_operator(one_block(ops[0]))
    with pytest.raises(ValueError, match="different slices"):
        items[0] + other
    with pytest.raises(ValueError, match="different slices"):
        blocks.trace_with(whole.weight_blocks)
    with pytest.raises(ValueError, match="different slices"):
        chi_matrix(whole, blocks)
