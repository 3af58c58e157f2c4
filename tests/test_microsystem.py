import numpy as np
import pytest

from boxgas.gibbs import gibbs_from_operator
from boxgas.microsystem import (
    JointState,
    MicroModeSet,
    embed_joint,
    joint_annihilator,
    micro_vacuum_weight,
    one_body_micro,
    reduce_expectation,
)
from dense_oracles import one_block


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
    with pytest.raises(ValueError, match="out of range"):
        mset.annihilator(3)
    with pytest.raises(ValueError, match="out of range"):
        mset.annihilator(-1)


def test_ladder_algebra_on_vacuum_sector():
    mset = MicroModeSet(3)
    vac = np.zeros(mset.micro_dim)
    vac[0] = 1.0
    for q in range(3):
        b_q = mset.annihilator(q)
        assert np.all(b_q @ vac == 0.0)
        one = b_q.conj().T @ vac
        assert np.linalg.norm(one) == 1.0
        for p in range(3):
            b_p = mset.annihilator(p)
            comm = b_p @ b_q.conj().T - b_q.conj().T @ b_p
            want = (1.0 if p == q else 0.0) * vac
            assert np.allclose(comm @ vac, want, atol=0.0)
    q_op = one_body_micro(np.eye(3), mset, 1)
    for q in range(3):
        one = mset.annihilator(q).conj().T @ vac
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


def test_embed_single_mode_trivial():
    rng = np.random.default_rng(11)
    mset = MicroModeSet(1)
    macro = random_state_matrix(rng, 5)
    state = embed_joint(micro_vacuum_weight(macro, mset),
                        np.array([[1.0]]), mset)
    want = np.kron(macro, np.diag([0.0, 1.0]))
    assert np.max(np.abs(state.weight - want)) <= 1e-15
    assert abs(np.trace(state.weight).real - 1.0) <= 1e-12


def test_embed_matches_product_form():
    rng = np.random.default_rng(23)
    mset = MicroModeSet(3)
    macro = random_state_matrix(rng, 6)
    rho = random_state_matrix(rng, 3)
    state = embed_joint(micro_vacuum_weight(macro, mset), rho, mset)
    block = np.zeros((4, 4), dtype=complex)
    block[1:, 1:] = rho
    want = np.kron(macro, block)
    assert np.max(np.abs(state.weight - want)) <= 1e-14


def test_embed_invariants_random():
    rng = np.random.default_rng(31)
    for q_dim, macro_dim in [(1, 3), (2, 5), (3, 4), (4, 3)]:
        mset = MicroModeSet(q_dim)
        w_m = micro_vacuum_weight(random_state_matrix(rng, macro_dim), mset)
        rho = random_state_matrix(rng, q_dim)
        state = embed_joint(w_m, rho, mset)
        w = state.weight
        assert abs(np.trace(w).real - 1.0) <= 1e-12
        assert np.max(np.abs(w - w.conj().T)) <= 1e-13
        assert np.linalg.eigvalsh(w)[0] >= -1e-12
        q_op = one_body_micro(np.eye(q_dim), mset, macro_dim)
        assert np.max(np.abs(q_op @ w - w)) <= 1e-12
        assert np.max(np.abs(q_op @ w_m)) <= 1e-12


def test_embed_preconditions():
    rng = np.random.default_rng(7)
    mset = MicroModeSet(2)
    macro = random_state_matrix(rng, 4)
    w_m = micro_vacuum_weight(macro, mset)
    good = random_state_matrix(rng, 2)
    with pytest.raises(ValueError, match="Q_dim x Q_dim"):
        embed_joint(w_m, np.eye(3) / 3.0, mset)
    with pytest.raises(ValueError, match="unit trace"):
        embed_joint(w_m, 2.0 * good, mset)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        embed_joint(w_m, np.diag([1.5, -0.5]), mset)
    with pytest.raises(ValueError, match="micro_vacuum_weight"):
        embed_joint(macro, good, mset)
    occupied = np.kron(macro, np.diag([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError, match="occupies micro mode"):
        embed_joint(occupied, good, mset)


def test_reduce_identity_and_pure_state():
    rng = np.random.default_rng(41)
    mset = MicroModeSet(3)
    w_m = micro_vacuum_weight(random_state_matrix(rng, 5), mset)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    rho = np.outer(u, u.conj())
    state = embed_joint(w_m, rho, mset)
    assert reduce_expectation(np.eye(3), state) == pytest.approx(1.0, abs=1e-12)
    a = random_hermitian(rng, 3)
    want = complex(u.conj() @ a @ u)
    assert reduce_expectation(a, state) == pytest.approx(want, abs=1e-12)


def test_reduce_matches_full_trace_oracle():
    rng = np.random.default_rng(53)
    for q_dim, macro_dim in [(1, 4), (2, 6), (3, 5), (4, 3)]:
        mset = MicroModeSet(q_dim)
        # a thermal-looking macro weight instead of a bare random one
        w_macro = gibbs_from_operator(one_block(random_hermitian(rng, macro_dim))).weight
        w_m = micro_vacuum_weight(w_macro, mset)
        rho = random_state_matrix(rng, q_dim)
        state = embed_joint(w_m, rho, mset)
        a = rng.standard_normal((q_dim, q_dim)) + 1j * rng.standard_normal((q_dim, q_dim))
        # block form of the one-body lift, independent of the ladder loops
        block = np.zeros((mset.micro_dim,) * 2, dtype=complex)
        block[1:, 1:] = a
        full = complex(np.trace(np.kron(np.eye(macro_dim), block) @ state.weight))
        got = reduce_expectation(a, state)
        assert got == pytest.approx(full, abs=1e-12)
        assert got == pytest.approx(complex(np.trace(a @ rho)), abs=1e-12)


def test_one_body_micro_shape_guard():
    mset = MicroModeSet(2)
    with pytest.raises(ValueError, match="Q_dim x Q_dim"):
        one_body_micro(np.eye(3), mset, 4)


def test_joint_state_macro_dim():
    rng = np.random.default_rng(61)
    mset = MicroModeSet(2)
    w_m = micro_vacuum_weight(random_state_matrix(rng, 7), mset)
    state = embed_joint(w_m, random_state_matrix(rng, 2), mset)
    assert isinstance(state, JointState)
    assert state.macro_dim == 7
