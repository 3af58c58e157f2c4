import numpy as np
import pytest

from boxgas.gibbs import gibbs_from_operator
from boxgas.microsystem import (
    JointState,
    MicroModeSet,
    charge_defect,
    embed_joint,
    one_body_micro,
    reduce_expectation,
)
from dense_oracles import (
    joint_annihilator,
    ladder_joint_weight,
    ladder_one_body_micro,
    micro_annihilator,
    one_block,
)


def random_state_matrix(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = m @ m.conj().T
    return w / np.trace(w).real


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def test_mode_set_validation():
    with pytest.raises(ValueError, match="at least one"):
        MicroModeSet(0)
    mset = MicroModeSet(3)
    assert mset.micro_dim == 4


def test_ladder_algebra_on_vacuum_sector():
    mset = MicroModeSet(3)
    vac = np.zeros(mset.micro_dim)
    vac[0] = 1.0
    for q in range(3):
        b_q = micro_annihilator(mset, q)
        assert np.all(b_q @ vac == 0.0)
        one = b_q.conj().T @ vac
        assert np.linalg.norm(one) == 1.0
        for p in range(3):
            b_p = micro_annihilator(mset, p)
            comm = b_p @ b_q.conj().T - b_q.conj().T @ b_p
            want = (1.0 if p == q else 0.0) * vac
            assert np.allclose(comm @ vac, want, atol=0.0)
    q_op = one_body_micro(np.eye(3), mset, 1)
    for q in range(3):
        one = micro_annihilator(mset, q).conj().T @ vac
        assert np.allclose(q_op @ one, one, atol=0.0)
    assert np.all(q_op @ vac == 0.0)


def test_micro_commutes_with_macro():
    rng = np.random.default_rng(5)
    mset = MicroModeSet(2)
    macro = random_hermitian(rng, 6) + 1j * rng.standard_normal((6, 6))
    lifted = np.kron(macro, np.eye(mset.micro_dim))
    for q in range(2):
        b = joint_annihilator(mset, 6, q)
        assert np.all(lifted @ b - b @ lifted == 0.0)
    # real factors, so each entry of either product is one exact real product
    ahat = one_body_micro(rng.standard_normal((2, 2)), mset, 6)
    lifted = lifted.real
    assert np.all(lifted @ ahat - ahat @ lifted == 0.0)


def test_embed_single_mode_trivial():
    rng = np.random.default_rng(11)
    mset = MicroModeSet(1)
    macro = random_state_matrix(rng, 5)
    state = embed_joint(macro, np.array([[1.0]]), mset)
    want = np.kron(macro, np.diag([0.0, 1.0]))
    assert np.max(np.abs(state.weight - want)) <= 1e-15
    assert abs(np.trace(state.weight).real - 1.0) <= 1e-12


def test_embed_matches_product_form():
    rng = np.random.default_rng(23)
    mset = MicroModeSet(3)
    macro = random_state_matrix(rng, 6)
    rho = random_state_matrix(rng, 3)
    state = embed_joint(macro, rho, mset)
    block = np.zeros((4, 4), dtype=complex)
    block[1:, 1:] = rho
    want = np.kron(macro, block)
    assert np.max(np.abs(state.weight - want)) <= 1e-14


def test_embed_invariants_random():
    rng = np.random.default_rng(31)
    for q_dim, macro_dim in [(1, 3), (2, 5), (3, 4), (4, 3)]:
        mset = MicroModeSet(q_dim)
        rho = random_state_matrix(rng, q_dim)
        state = embed_joint(random_state_matrix(rng, macro_dim), rho, mset)
        w = state.weight
        assert abs(np.trace(w).real - 1.0) <= 1e-12
        assert np.max(np.abs(w - w.conj().T)) <= 1e-13
        assert np.linalg.eigvalsh(w)[0] >= -1e-12
        q_op = one_body_micro(np.eye(q_dim), mset, macro_dim)
        assert np.max(np.abs(q_op @ w - w)) <= 1e-12


def test_embed_preconditions():
    rng = np.random.default_rng(7)
    mset = MicroModeSet(2)
    macro = random_state_matrix(rng, 4)
    good = random_state_matrix(rng, 2)
    with pytest.raises(ValueError, match="Q_dim x Q_dim"):
        embed_joint(macro, np.eye(3) / 3.0, mset)
    with pytest.raises(ValueError, match="unit trace"):
        embed_joint(macro, 2.0 * good, mset)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        embed_joint(macro, np.diag([1.5, -0.5]), mset)
    with pytest.raises(ValueError, match="one-particle matrix is not hermitian"):
        embed_joint(macro, good + 1e-3j * np.array([[0.0, 1.0], [1.0, 0.0]]), mset)


@pytest.mark.parametrize("weight, message", [
    (np.full((4, 3), 1.0 / 3.0), "square"),
    (np.full(4, 0.25), "square"),
    (np.diag([0.5, 0.5, 0.5, -0.5]), "negative eigenvalue"),
    (0.5 * np.eye(4) / 4.0, "unit trace"),
    (np.eye(4) / 4.0 + 1e-3j * np.diag(np.ones(3), 1), "gas weight is not hermitian"),
])
def test_embed_checks_the_gas_weight(weight, message):
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match=message):
        embed_joint(weight, random_state_matrix(rng, 2), MicroModeSet(2))


def test_kronecker_forms_equal_the_ladder_products_entry_for_entry():
    # each dense ladder product only moves entries, so every entry of the
    # weight and of the lift is the same single product as in the loops
    rng = np.random.default_rng(67)
    for _ in range(40):
        q_dim = int(rng.integers(1, 5))
        macro_dim = int(rng.integers(3, 8))
        mset = MicroModeSet(q_dim)
        gas, rho = random_state_matrix(rng, macro_dim), random_state_matrix(rng, q_dim)
        if q_dim % 2:  # a real gas weight, as a Gibbs state's
            gas = gas.real
        assert np.array_equal(embed_joint(gas, rho, mset).weight,
                              ladder_joint_weight(gas, rho, mset))
        a = rng.standard_normal((q_dim, q_dim)) + 1j * rng.standard_normal((q_dim, q_dim))
        assert np.array_equal(one_body_micro(a, mset, macro_dim),
                              ladder_one_body_micro(a, mset, macro_dim))


def test_reduce_identity_and_pure_state():
    rng = np.random.default_rng(41)
    mset = MicroModeSet(3)
    gas = random_state_matrix(rng, 5)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    rho = np.outer(u, u.conj())
    state = embed_joint(gas, rho, mset)
    assert reduce_expectation(np.eye(3), state)[0] == pytest.approx(1.0, abs=1e-12)
    a = random_hermitian(rng, 3)
    want = complex(u.conj() @ a @ u)
    assert reduce_expectation(a, state)[0] == pytest.approx(want, abs=1e-12)


def test_reduce_matches_full_trace_oracle():
    rng = np.random.default_rng(53)
    for q_dim, macro_dim in [(1, 4), (2, 6), (3, 5), (4, 3)]:
        mset = MicroModeSet(q_dim)
        # a thermal-looking macro weight instead of a bare random one
        w_macro = gibbs_from_operator(one_block(random_hermitian(rng, macro_dim))).weight
        rho = random_state_matrix(rng, q_dim)
        state = embed_joint(w_macro, rho, mset)
        a = rng.standard_normal((q_dim, q_dim)) + 1j * rng.standard_normal((q_dim, q_dim))
        # block form of the one-body lift, independent of the ladder loops
        block = np.zeros((mset.micro_dim,) * 2, dtype=complex)
        block[1:, 1:] = a
        full = complex(np.trace(np.kron(np.eye(macro_dim), block) @ state.weight))
        got, joint_trace = reduce_expectation(a, state)
        assert joint_trace == pytest.approx(full, abs=1e-12)
        assert got == pytest.approx(full, abs=1e-12)
        assert got == pytest.approx(complex(np.trace(a @ rho)), abs=1e-12)


def test_charge_defect_matches_the_dense_product():
    # the charge fixes every joint weight exactly: the factors and the dense
    # joint product give the same defect, bit for bit
    rng = np.random.default_rng(67)
    for q_dim, macro_dim in [(1, 4), (2, 6), (3, 5), (4, 3)]:
        mset = MicroModeSet(q_dim)
        gas = gibbs_from_operator(one_block(random_hermitian(rng, macro_dim))).weight
        joint = embed_joint(gas, random_state_matrix(rng, q_dim), mset)
        charge = one_body_micro(np.eye(q_dim), mset, macro_dim)
        dense = float(np.max(np.abs(charge @ joint.weight - joint.weight)))
        assert charge_defect(joint) == dense


def test_one_body_micro_shape_guard():
    mset = MicroModeSet(2)
    with pytest.raises(ValueError, match="Q_dim x Q_dim"):
        one_body_micro(np.eye(3), mset, 4)


def test_joint_state_macro_dim():
    rng = np.random.default_rng(61)
    mset = MicroModeSet(2)
    state = embed_joint(random_state_matrix(rng, 7), random_state_matrix(rng, 2), mset)
    assert isinstance(state, JointState)
    assert state.macro_dim == 7
