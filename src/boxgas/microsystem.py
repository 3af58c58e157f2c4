"""A single tracked particle riding on top of the gas.

The tracked particle lives in its own small mode set, modeled as a
distinct Bose species, so its ladder operators commute exactly with
everything built on the gas Fock basis. Because the gas weight carries
no tracked-particle occupation, joint states close in the vacuum plus
single-occupation sector and every one-body observable of the tracked
particle reduces to plain matrix algebra on a Q_dim x Q_dim state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrixutil import dagger, frob, require_hermitian, trace_product

PSD_TOL = 1e-10
TRACE_TOL = 1e-8
SUPPORT_TOL = 1e-12
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

    def annihilator(self, q: int) -> np.ndarray:
        if not 0 <= q < self.q_dim:
            raise ValueError(f"micro mode index {q} out of range")
        mat = np.zeros((self.micro_dim, self.micro_dim))
        mat[0, q + 1] = 1.0
        return mat


def joint_annihilator(mset: MicroModeSet, macro_dim: int, q: int) -> np.ndarray:
    return np.kron(np.eye(macro_dim), mset.annihilator(q))


def micro_vacuum_weight(macro_weight: np.ndarray, mset: MicroModeSet) -> np.ndarray:
    """Place a gas weight on the joint space with the tracked mode empty."""
    proj = np.zeros((mset.micro_dim, mset.micro_dim))
    proj[0, 0] = 1.0
    return np.kron(np.asarray(macro_weight), proj)


class JointState(NamedTuple):
    mset: MicroModeSet
    macro_weight: np.ndarray
    micro_matrix: np.ndarray
    weight: np.ndarray

    @property
    def macro_dim(self) -> int:
        return self.weight.shape[0] // self.mset.micro_dim


def _require_state_matrix(rho: np.ndarray, name: str) -> None:
    require_hermitian(rho, tol=1e-10, name=name)
    evals = np.linalg.eigvalsh(rho)
    floor = -PSD_TOL * max(float(evals[-1]), 1.0)
    if evals[0] < floor:
        raise ValueError(f"{name} has negative eigenvalue {evals[0]:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} must have unit trace, got {tr:.12g}")


def embed_joint(macro_weight: np.ndarray, micro_matrix: np.ndarray,
                mset: MicroModeSet) -> JointState:
    """Assemble the joint weight sum_qp b_q^dag w_M b_p rho[q, p].

    macro_weight lives on the joint space and must annihilate every
    tracked-particle mode; micro_vacuum_weight lifts a bare gas weight
    into that form.
    """
    rho = np.asarray(micro_matrix, dtype=complex)
    if rho.shape != (mset.q_dim, mset.q_dim):
        raise ValueError("one-particle matrix must be Q_dim x Q_dim")
    _require_state_matrix(rho, "one-particle matrix")

    w_m = np.asarray(macro_weight, dtype=complex)
    if w_m.ndim != 2 or w_m.shape[0] != w_m.shape[1]:
        raise ValueError("macro weight must be a square matrix")
    if w_m.shape[0] % mset.micro_dim != 0:
        raise ValueError(
            "macro weight dimension is not a multiple of the joint sector size; "
            "lift it with micro_vacuum_weight first")
    macro_dim = w_m.shape[0] // mset.micro_dim
    _require_state_matrix(w_m, "macro weight")
    scale = max(frob(w_m), 1.0)
    lowering = [joint_annihilator(mset, macro_dim, q) for q in range(mset.q_dim)]
    for q, b in enumerate(lowering):
        leak = frob(b @ w_m)
        if leak > SUPPORT_TOL * scale:
            raise ValueError(
                f"macro weight occupies micro mode {q} (|b w| = {leak:.3e}); "
                "the gas state must be a tracked-particle vacuum")

    weight = np.zeros_like(w_m)
    for q, b_q in enumerate(lowering):
        for p, b_p in enumerate(lowering):
            if rho[q, p] != 0.0:
                weight += rho[q, p] * (dagger(b_q) @ w_m @ b_p)
    return JointState(mset, w_m, rho, weight)


def one_body_micro(a_matrix: np.ndarray, mset: MicroModeSet,
                   macro_dim: int) -> np.ndarray:
    """Joint operator sum_hk A[h, k] b_h^dag b_k."""
    a = np.asarray(a_matrix, dtype=complex)
    if a.shape != (mset.q_dim, mset.q_dim):
        raise ValueError("observable matrix must be Q_dim x Q_dim")
    total = np.zeros((macro_dim * mset.micro_dim,) * 2, dtype=complex)
    for h in range(mset.q_dim):
        b_h = joint_annihilator(mset, macro_dim, h)
        for k in range(mset.q_dim):
            if a[h, k] != 0.0:
                b_k = joint_annihilator(mset, macro_dim, k)
                total += a[h, k] * (dagger(b_h) @ b_k)
    return total


def reduce_expectation(a_matrix: np.ndarray, joint: JointState) -> complex:
    """Expectation of a one-body tracked-particle observable.

    Returns tr(A rho) on the one-particle space and checks it against
    the full joint-space trace before handing it back.
    """
    a = np.asarray(a_matrix, dtype=complex)
    reduced = complex(trace_product(a, joint.micro_matrix))
    ahat = one_body_micro(a, joint.mset, joint.macro_dim)
    full = complex(trace_product(ahat, joint.weight))
    if abs(full - reduced) > REDUCTION_TOL * (1.0 + abs(reduced)):
        raise ValueError(
            f"reduction identity violated: joint trace {full:.12g} vs "
            f"one-particle trace {reduced:.12g}")
    return reduced
