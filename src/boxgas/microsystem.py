"""A single tracked particle riding on top of the gas.

The tracked particle lives in its own small mode set, modeled as a
distinct Bose species, so its ladder operators commute exactly with
everything built on the gas Fock basis.  Because the gas weight carries
no tracked-particle occupation, joint states close in the vacuum plus
single-occupation sector and every one-body observable of the tracked
particle reduces to plain matrix algebra on a Q_dim x Q_dim state.

On the joint space (gas) x (vacuum, one particle in mode q) the ladder
is b_q = 1 x |0><q+1|, which only moves entries.  So the joint weight
sum_qp rho[q, p] b_q^dag (w x |0><0|) b_p is w x lift(rho), and the
one-body lift sum_hk A[h, k] b_h^dag b_k is 1 x lift(A), where lift
places a Q_dim x Q_dim matrix on the occupied rows and columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrixutil import require_hermitian, trace_product

PSD_TOL = 1e-10
TRACE_TOL = 1e-8
REDUCTION_TOL = 1e-12


@dataclass(frozen=True)
class MicroModeSet:
    """Mode set of the tracked particle; q_dim one-particle amplitudes."""

    q_dim: int

    def __post_init__(self) -> None:
        if self.q_dim < 1:
            raise ValueError("micro mode set needs at least one mode")

    @property
    def micro_dim(self) -> int:
        # vacuum plus the single-occupation sector
        return self.q_dim + 1


class JointState(NamedTuple):
    mset: MicroModeSet
    gas_weight: np.ndarray
    micro_matrix: np.ndarray
    weight: np.ndarray

    @property
    def macro_dim(self) -> int:
        return self.gas_weight.shape[0]


def _require_state_matrix(rho: np.ndarray, name: str) -> None:
    require_hermitian(rho, tol=1e-10, name=name)
    evals = np.linalg.eigvalsh(rho)
    floor = -PSD_TOL * max(float(evals[-1]), 1.0)
    if evals[0] < floor:
        raise ValueError(f"{name} has negative eigenvalue {evals[0]:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} must have unit trace, got {tr:.12g}")


def _lift(matrix: np.ndarray, mset: MicroModeSet) -> np.ndarray:
    """A Q_dim x Q_dim matrix on the occupied rows and columns of the micro space."""
    out = np.zeros((mset.micro_dim,) * 2, dtype=complex)
    out[1:, 1:] = matrix
    return out


def embed_joint(gas_weight: np.ndarray, micro_matrix: np.ndarray,
                mset: MicroModeSet) -> JointState:
    """The joint weight sum_qp rho[q, p] b_q^dag (w x |0><0|) b_p = w x lift(rho)
    of the D x D gas weight w.

    The spectrum of w x |0><0| is that of w plus zeros, with the same
    trace and hermiticity defect, so w is checked as a state on its own.
    """
    rho = np.asarray(micro_matrix, dtype=complex)
    if rho.shape != (mset.q_dim, mset.q_dim):
        raise ValueError("one-particle matrix must be Q_dim x Q_dim")
    _require_state_matrix(rho, "one-particle matrix")

    w = np.asarray(gas_weight, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("gas weight must be a square matrix")
    _require_state_matrix(w, "gas weight")
    # np.kron(w, lift(rho)), with rho as the left factor of each complex
    # product as in rho[q, p] * (b_q^dag w_M b_p), so every entry keeps its bits
    dim = len(w) * mset.micro_dim
    weight = (_lift(rho, mset)[None, :, None, :] * w[:, None, :, None]).reshape(dim, dim)
    return JointState(mset, w, rho, weight)


def one_body_micro(a_matrix: np.ndarray, mset: MicroModeSet,
                   macro_dim: int) -> np.ndarray:
    """Joint operator sum_hk A[h, k] b_h^dag b_k = 1 x lift(A)."""
    a = np.asarray(a_matrix, dtype=complex)
    if a.shape != (mset.q_dim, mset.q_dim):
        raise ValueError("observable matrix must be Q_dim x Q_dim")
    return np.kron(np.eye(macro_dim), _lift(a, mset))


def charge_defect(joint: JointState) -> float:
    """max |Q W - W| for the tracked-particle number Q = 1 x lift(1).

    Q W = w x lift(1) lift(rho), so the defect is max|w| times
    max|lift(1) lift(rho) - lift(rho)|, read from the Kronecker factors
    without a joint-sized product.
    """
    lifted = _lift(joint.micro_matrix, joint.mset)
    micro = np.max(np.abs(_lift(np.eye(joint.mset.q_dim), joint.mset) @ lifted - lifted))
    return float(np.max(np.abs(joint.gas_weight)) * micro)


def reduce_expectation(a_matrix: np.ndarray, joint: JointState) -> tuple[complex, complex]:
    """Expectation of a one-body tracked-particle observable.

    Returns tr(A rho) on the one-particle space and the full joint-space
    trace tr(A_hat W) it was checked against.
    """
    a = np.asarray(a_matrix, dtype=complex)
    reduced = complex(trace_product(a, joint.micro_matrix))
    ahat = one_body_micro(a, joint.mset, joint.macro_dim)
    full = complex(trace_product(ahat, joint.weight))
    if abs(full - reduced) > REDUCTION_TOL * (1.0 + abs(reduced)):
        raise ValueError(
            f"reduction identity violated: joint trace {full:.12g} vs "
            f"one-particle trace {reduced:.12g}")
    return reduced, full
