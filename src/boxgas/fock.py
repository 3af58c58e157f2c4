"""Truncated Fock space over a finite mode set, with ladder and field operators.

The truncation keeps every occupation vector whose total particle number does
not exceed ``n_max``.  Canonical commutation relations therefore hold exactly
only on the subspace of total number below ``n_max`` (the annihilator of the
top shell leaves the space, its adjoint re-enters it).  The same holds for
the fermion anticommutation relations, which are exact everywhere once
n_max equals the mode count and no shell is cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import comb, sqrt

import numpy as np

DIM_CAP = 200_000
HERM_TOL = 1e-12


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


def sector_dimension(n_modes: int, n: int, statistics: Statistics) -> int:
    """Number of occupation vectors with exactly n particles."""
    if statistics is Statistics.BOSE:
        return comb(n_modes + n - 1, n)
    return comb(n_modes, n)


def _occupations(n_modes: int, total: int, cap: int):
    """All occupation tuples with the given total, entries bounded by cap."""
    if n_modes == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _occupations(n_modes - 1, total - first, cap):
            yield (first,) + rest


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis, graded by total number then lexicographic.

    Attributes
    ----------
    n_modes : int
        Number of single-particle modes.
    n_max : int
        Largest total particle number kept.
    statistics : Statistics
        Bose or Fermi counting.
    states : np.ndarray
        Integer array of shape (dim, n_modes); row i is the i-th occupation
        vector.
    """

    n_modes: int
    n_max: int
    statistics: Statistics
    states: np.ndarray = field(repr=False)
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def state_index(self, occ) -> int:
        return self.index[tuple(int(n) for n in occ)]

    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)

    @cached_property
    def sectors(self) -> tuple[slice, ...]:
        """One index slice per total number 0..n_max; the graded order keeps each contiguous."""
        edges = np.cumsum(np.bincount(self.totals(), minlength=self.n_max + 1))
        return tuple(slice(int(lo), int(hi)) for lo, hi in zip((0, *edges[:-1]), edges))

    @cached_property
    def ladders(self) -> np.ndarray:
        """All annihilators stacked as a read-only (n_modes, dim, dim) array."""
        stack = np.stack([annihilation_op(self, f) for f in range(self.n_modes)])
        stack.setflags(write=False)
        return stack


def build_basis(n_modes: int, n_max: int, statistics: Statistics) -> FockBasis:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if statistics is Statistics.FERMI and n_max > n_modes:
        raise ValueError(f"fermionic n_max {n_max} exceeds mode count {n_modes}")
    per_mode_cap = 1 if statistics is Statistics.FERMI else n_max
    dim = sum(sector_dimension(n_modes, n, statistics) for n in range(n_max + 1))
    if dim > DIM_CAP:
        raise ValueError(f"basis dimension {dim} exceeds cap {DIM_CAP}")
    rows = []
    for total in range(n_max + 1):
        shell = sorted(_occupations(n_modes, total, per_mode_cap))
        rows.extend(shell)
    states = np.array(rows, dtype=np.int64)
    index = {tuple(int(x) for x in row): i for i, row in enumerate(states)}
    return FockBasis(n_modes=n_modes, n_max=n_max, statistics=statistics,
                     states=states, index=index)


def annihilation_op(basis: FockBasis, mode: int) -> np.ndarray:
    """Matrix of the annihilator for one mode.

    Bose amplitude sqrt(n); Fermi amplitude carries the Jordan-Wigner sign
    (-1)**(number of occupied modes before this one).
    """
    if not 0 <= mode < basis.n_modes:
        raise ValueError(f"mode {mode} outside 0..{basis.n_modes - 1}")
    dim = basis.dim
    a = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        n = occ[mode]
        if n == 0:
            continue
        target = occ.copy()
        target[mode] -= 1
        row = basis.index[tuple(int(x) for x in target)]
        if basis.statistics is Statistics.BOSE:
            amp = sqrt(n)
        else:
            amp = (-1.0) ** int(occ[:mode].sum())
        a[row, col] = amp
    return a


def creation_op(basis: FockBasis, mode: int) -> np.ndarray:
    return annihilation_op(basis, mode).conj().T


def ladder_ops(basis: FockBasis) -> np.ndarray:
    """All annihilators stacked as an (n_modes, dim, dim) array, built once per basis."""
    return basis.ladders


def number_op(basis: FockBasis) -> np.ndarray:
    return np.diag(basis.totals().astype(float)).astype(complex)


def one_body_operator(basis: FockBasis, kernel: np.ndarray) -> np.ndarray:
    """Second-quantized one-body operator sum_{hk} kernel[h,k] adag_h a_k."""
    kernel = np.asarray(kernel, dtype=complex)
    f = basis.n_modes
    if kernel.shape != (f, f):
        raise ValueError(f"kernel shape {kernel.shape} does not match mode count {f}")
    a = basis.ladders
    adag = a.conj().transpose(0, 2, 1)
    return np.einsum("hk,hab,kbc->ac", kernel, adag, a, optimize=True)


def two_body_operator(basis: FockBasis, tensor: np.ndarray) -> np.ndarray:
    """Second-quantized two-body operator.

    Returns (1/2) sum tensor[l1,l2,f2,f1] adag_l1 adag_l2 a_f2 a_f1.  The
    tensor must satisfy tensor[l1,l2,f2,f1] == conj(tensor[f1,f2,l2,l1]),
    which makes the operator hermitian.
    """
    tensor = np.asarray(tensor, dtype=complex)
    f = basis.n_modes
    if tensor.shape != (f, f, f, f):
        raise ValueError(f"tensor shape {tensor.shape} does not match mode count {f}")
    defect = np.max(np.abs(tensor - tensor.conj().transpose(3, 2, 1, 0)))
    if defect > HERM_TOL:
        raise ValueError(f"two-body tensor fails hermiticity: {defect:.3e} > {HERM_TOL:.1e}")
    a = basis.ladders
    dim = basis.dim
    # pair annihilators P[f2, f1] = a_f2 a_f1; creation pairs are their adjoints
    pairs = np.einsum("fab,gbc->fgac", a, a, optimize=True)
    pairs_flat = pairs.reshape(f * f, dim, dim)
    # adag_l1 adag_l2 = (a_l2 a_l1)^dag = pairs[l2, l1]^dag
    cre_flat = pairs.transpose(1, 0, 3, 2).conj().reshape(f * f, dim, dim)
    weights = tensor.reshape(f * f, f * f)
    mixed = np.einsum("pq,qbc->pbc", weights, pairs_flat, optimize=True)
    return 0.5 * np.einsum("pab,pbc->ac", cre_flat, mixed, optimize=True)
