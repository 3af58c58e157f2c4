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
from functools import cache, cached_property
from math import comb

import numpy as np

from .matrixutil import BlockDiagonal, require_hermitian

DIM_CAP = 200_000


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


def sector_dimension(n_modes: int, n: int, statistics: Statistics) -> int:
    """Number of occupation vectors with exactly n particles."""
    if statistics is Statistics.BOSE:
        return comb(n_modes + n - 1, n)
    return comb(n_modes, n)


def basis_dimension(n_modes: int, n_max: int, statistics: Statistics) -> int:
    """Number of occupation vectors with at most n_max particles, in closed
    form: C(n_modes + n_max, n_max) for Bose (the sum of C(n_modes + n - 1, n)
    over n <= n_max), and at most n_modes + 1 terms of `sector_dimension` for
    Fermi."""
    if statistics is Statistics.BOSE:
        return comb(n_modes + n_max, n_max)
    return sum(sector_dimension(n_modes, n, statistics) for n in range(min(n_max, n_modes) + 1))


@dataclass(frozen=True)
class PairFormat:
    """The normalized pair states |q> = n_q adag_{q1} adag_{q2} |0> that index the
    two-particle sector: every two-body operator is a P x P matrix over them.

    `q1` and `q2` hold the modes of the P pairs, q1 <= q2 (q1 < q2 for Fermi),
    and `p1`, `p2` the same as (P, 1) columns, for the row index of a P x P
    matrix.  `norms` holds n_q (1/sqrt 2 on a doubly occupied Bose mode, 1
    otherwise) and `norm_outer` n_p n_q; `sign` is the exchange sign, -1 for
    Fermi and +1 for Bose.  Every array is read-only.
    """

    q1: np.ndarray
    q2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    norms: np.ndarray
    norm_outer: np.ndarray
    sign: float

    def project(self, tensor: np.ndarray) -> np.ndarray:
        """`pair_matrix_from_tensor` of an (n, n, n, n) tensor over these pairs."""
        return self.norm_outer * (tensor[self.p1, self.p2, self.q2, self.q1]
                                  + self.sign * tensor[self.p1, self.p2, self.q1, self.q2])


@cache
def pair_format(n_modes: int, statistics: Statistics) -> PairFormat:
    """The one `PairFormat` of each mode count and statistics, built on first use."""
    q1, q2 = np.triu_indices(n_modes, 0 if statistics is Statistics.BOSE else 1)
    norms = np.where(q1 == q2, 1.0 / np.sqrt(2.0), 1.0)
    arrays = (q1, q2, q1[:, None], q2[:, None], norms, np.outer(norms, norms))
    for array in arrays:
        array.setflags(write=False)
    return PairFormat(*arrays, -1.0 if statistics is Statistics.FERMI else 1.0)


def pair_basis(n_modes: int, statistics: Statistics) -> list[tuple[int, int]]:
    """The (q1, q2) of every pair of `pair_format`, as a list of int tuples."""
    fmt = pair_format(n_modes, statistics)
    return list(zip(fmt.q1.tolist(), fmt.q2.tolist()))


def pair_matrix_from_tensor(tensor: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Matrix elements <p| (1/2) sum tensor[l1,l2,f2,f1] adag_l1 adag_l2 a_f2 a_f1 |q>
    between the normalized pair states of `pair_format`.

    Requires the exchange-symmetrized tensor, tensor[l1,l2,f2,f1] ==
    tensor[l2,l1,f1,f2]; the result is hermitian when the tensor is, and
    real when it is.
    """
    return pair_format(len(tensor), statistics).project(tensor)


def pair_one_body(kernel: np.ndarray, statistics: Statistics) -> np.ndarray:
    """<p| dGamma(kernel) |q> between the normalized pair states, for an n x n kernel:
    n_p n_q (K[p1,q1] d[p2,q2] + K[p2,q2] d[p1,q1] + s K[p2,q1] d[p1,q2]
    + s K[p1,q2] d[p2,q1]), with s the exchange sign."""
    fmt = pair_format(len(kernel), statistics)
    p1, p2, q1, q2 = fmt.p1, fmt.p2, fmt.q1, fmt.q2
    m = ((p2 == q2) * kernel[p1, q1] + (p1 == q1) * kernel[p2, q2]
         + fmt.sign * ((p1 == q2) * kernel[p2, q1] + (p2 == q1) * kernel[p1, q2]))
    return fmt.norm_outer * m


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

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def occupations(self) -> np.ndarray:
        """`states` as one read-only float64 array, for the sums over occupation rows."""
        rows = self.states.astype(float)
        rows.setflags(write=False)
        return rows

    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)

    @cached_property
    def sectors(self) -> tuple[slice, ...]:
        """One index slice per total number 0..n_max; the graded order keeps each contiguous."""
        edges = np.cumsum(np.bincount(self.totals(), minlength=self.n_max + 1))
        return tuple(slice(int(lo), int(hi)) for lo, hi in zip((0, *edges[:-1]), edges))

    @cached_property
    def lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """Index maps of the annihilators, each of shape (n_modes, dim).

        a_f takes basis state c to row `target[f, c]` with amplitude
        `amp[f, c]`: sqrt(n) for Bose, the Jordan-Wigner sign of the prefix
        sum for Fermi.  Where mode f is empty the target is -1 and the
        amplitude 0.  Each occupation row is one fixed-width byte key, and the
        lowered rows are found among them by argsort + searchsorted.  (Integer
        keys in base n_max + 1 would overflow int64 from 64 Bose modes at n_max 1.)
        """
        states = np.ascontiguousarray(self.states)
        key = np.dtype((np.void, states.itemsize * self.n_modes))
        keys = states.view(key)[:, 0]
        order = np.argsort(keys)
        mode, col = np.nonzero(states.T)
        lowered = states[col]
        lowered[np.arange(col.size), mode] -= 1
        target = np.full((self.n_modes, self.dim), -1, dtype=np.int64)
        target[mode, col] = order[np.searchsorted(keys[order], lowered.view(key)[:, 0])]
        if self.statistics is Statistics.BOSE:
            amp = np.sqrt(states.T.astype(float))
        else:
            before = (np.cumsum(states, axis=1) - states).T
            amp = np.where(target >= 0, 1.0 - 2.0 * (before % 2), 0.0)
        return target, amp

    @cached_property
    def ladder_blocks(self) -> tuple[np.ndarray, ...]:
        """Entry N: the read-only (n_modes, d_{N-1}, d_N) block of every a_f, sector N -> N-1."""
        return self._sector_blocks(*self.lowering, lower=1)

    @cached_property
    def pair_blocks(self) -> tuple[np.ndarray, ...]:
        """Entry N: the read-only (P, d_{N-2}, d_N) block of every pair annihilator A_q.

        A_q = n_q a_{q2} a_{q1} over the pairs q = (q1, q2) of `pair_format`,
        with its norms n_q, so A_q^dagger creates the normalized pair state
        |q>.  Composed from the index maps: a_{q1} first, then a_{q2}.
        Entries N < 2 have no rows.
        """
        target, amp = self.lowering
        fmt = pair_format(self.n_modes, self.statistics)
        first = target[fmt.q1]
        second = target[fmt.p2, first]  # row of a_{q2} applied to a_{q1}'s image
        valid = (first >= 0) & (second >= 0)
        scale = fmt.norms[:, None] * amp[fmt.q1]
        return self._sector_blocks(np.where(valid, second, -1),
                                   np.where(valid, scale * amp[fmt.p2, first], 0.0),
                                   lower=2)

    def _sector_blocks(self, target, amp, lower: int) -> tuple[np.ndarray, ...]:
        """Scatter column maps (..., dim) into one block per sector N, mapping N -> N - lower."""
        out = []
        for number, cols in enumerate(self.sectors):
            rows = self.sectors[number - lower] if number >= lower else slice(0, 0)
            t, a = target[..., cols], amp[..., cols]
            block = np.zeros(t.shape[:-1] + (rows.stop - rows.start, t.shape[-1]))
            hit = np.nonzero(t >= 0)
            block[hit[:-1] + (t[hit] - rows.start, hit[-1])] = a[hit]
            block.setflags(write=False)
            out.append(block)
        return tuple(out)


def build_basis(n_modes: int, n_max: int, statistics: Statistics) -> FockBasis:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if statistics is Statistics.FERMI and n_max > n_modes:
        raise ValueError(f"fermionic n_max {n_max} exceeds mode count {n_modes}")
    per_mode_cap = 1 if statistics is Statistics.FERMI else n_max
    dim = basis_dimension(n_modes, n_max, statistics)
    if dim > DIM_CAP:
        raise ValueError(f"basis dimension {dim} exceeds cap {DIM_CAP}")
    # one column per mode: each row branches into every occupation of the
    # next mode that the cap and the remaining number allow
    states = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        branches = np.minimum(per_mode_cap, n_max - states.sum(axis=1)) + 1
        parent = np.repeat(np.arange(len(states)), branches)
        first = np.cumsum(branches) - branches
        occupation = np.arange(parent.size) - first[parent]
        states = np.column_stack([states[parent], occupation])
    # graded: total number first, lexicographic within a shell
    order = np.lexsort((*states.T[::-1], states.sum(axis=1)))
    return FockBasis(n_modes=n_modes, n_max=n_max, statistics=statistics,
                     states=states[order])


def ladder_ops(basis: FockBasis) -> np.ndarray:
    """All annihilators stacked as a read-only float64 (n_modes, dim, dim) array,
    scattered from `basis.lowering`, whose amplitudes are all real.  Not cached,
    and no subcommand calls it: every operator is built from the sector blocks,
    and the negative-time witness maps the kernel of this stack without it.
    The tests read it as the dense oracle, and perfbench/tracer.py traces it."""
    target, amp = basis.lowering
    stack = np.zeros((basis.n_modes, basis.dim, basis.dim))
    mode, col = np.nonzero(target >= 0)
    stack[mode, target[mode, col], col] = amp[mode, col]
    stack.setflags(write=False)
    return stack


def one_body_operator(basis: FockBasis, kernel: np.ndarray) -> BlockDiagonal:
    """Second-quantized one-body operator sum_{hk} kernel[h,k] adag_h a_k: the
    `_scatter` of the kernel over the N -> N-1 ladder blocks.  A real kernel
    gives real blocks."""
    kernel = np.asarray(kernel)
    f = basis.n_modes
    if kernel.shape != (f, f):
        raise ValueError(f"kernel shape {kernel.shape} does not match mode count {f}")
    return _scatter(basis, basis.ladder_blocks, kernel)


def two_body_operator(basis: FockBasis, m: np.ndarray) -> BlockDiagonal:
    """Second-quantized two-body operator sum_pq m[p, q] A_p^dagger A_q, for the
    hermitian P x P matrix m of the operator between the normalized pair states
    of `pair_format` (`pair_matrix_from_tensor` of a two-body tensor): its
    `_scatter` over the pair annihilators of `FockBasis.pair_blocks`.  A real m
    gives real blocks."""
    m = np.asarray(m)
    n_pairs = len(basis.pair_blocks[0])
    if m.shape != (n_pairs, n_pairs):
        raise ValueError(f"pair matrix shape {m.shape} does not match {n_pairs} pair states")
    require_hermitian(m, name="two-body pair matrix")
    return _scatter(basis, basis.pair_blocks, m)


def _scatter(basis: FockBasis, lowering: tuple, m: np.ndarray) -> BlockDiagonal:
    """sum_pq m[p, q] L_p^dagger L_q for any matrix m, hermitian or not, over the
    real lowering blocks L of every sector (`ladder_blocks` or `pair_blocks`):
    two real GEMMs per sector, on the real and imaginary parts of m side by side."""
    m = np.asarray(m)
    parts = np.stack([m.real, m.imag], axis=1) if np.iscomplexobj(m) else m[:, None]
    blocks = []
    for low in lowering:
        flat = low.reshape(-1, low.shape[-1])  # rows (p, state of the sector below)
        lowered = np.tensordot(parts, low, axes=1).transpose(0, 2, 3, 1)  # (p, rows, cols, part)
        block = flat.T @ lowered.reshape(len(flat), parts.shape[1] * flat.shape[1])
        blocks.append(block.view(complex) if np.iscomplexobj(m) else block)
    return BlockDiagonal(basis.sectors, tuple(blocks))
