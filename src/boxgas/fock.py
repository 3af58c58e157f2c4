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
from typing import NamedTuple

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


class PairFormat(NamedTuple):
    """The normalized pair states |q> = n_q adag_{q1} adag_{q2} |0> that index the
    two-particle sector: every two-body operator is a P x P matrix over them.

    `q1` and `q2` hold the modes of the P pairs, q1 <= q2 (q1 < q2 for Fermi),
    `norms` holds n_q (1/sqrt 2 on a doubly occupied Bose mode, 1 otherwise),
    and `sign` is the exchange sign, -1 for Fermi and +1 for Bose.  Every
    array is read-only.
    """

    q1: np.ndarray
    q2: np.ndarray
    norms: np.ndarray
    sign: float


@cache
def pair_format(n_modes: int, statistics: Statistics) -> PairFormat:
    """The one `PairFormat` of each mode count and statistics, built on first use."""
    q1, q2 = np.triu_indices(n_modes, 0 if statistics is Statistics.BOSE else 1)
    norms = np.where(q1 == q2, 1.0 / np.sqrt(2.0), 1.0)
    for array in (q1, q2, norms):
        array.setflags(write=False)
    return PairFormat(q1, q2, norms, -1.0 if statistics is Statistics.FERMI else 1.0)


def pair_basis(n_modes: int, statistics: Statistics) -> list[tuple[int, int]]:
    """The (q1, q2) of every pair of `pair_format`, as a list of int tuples."""
    fmt = pair_format(n_modes, statistics)
    return list(zip(fmt.q1.tolist(), fmt.q2.tolist()))


def pair_matrix_from_tensor(tensor: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Matrix elements <p| (1/2) sum tensor[l1,l2,f2,f1] adag_l1 adag_l2 a_f2 a_f1 |q>
    between the normalized pair states of `pair_format`:
    n_p n_q (tensor[p1,p2,q2,q1] + s tensor[p1,p2,q1,q2]), s the exchange sign.

    Requires the exchange-symmetrized tensor, tensor[l1,l2,f2,f1] ==
    tensor[l2,l1,f1,f2]; the result is hermitian when the tensor is, and
    real when it is.
    """
    fmt = pair_format(len(tensor), statistics)
    p1, p2, q1, q2 = fmt.q1[:, None], fmt.q2[:, None], fmt.q1, fmt.q2
    return fmt.norms[:, None] * fmt.norms * (tensor[p1, p2, q2, q1]
                                             + fmt.sign * tensor[p1, p2, q1, q2])


def pair_one_body(kernel: np.ndarray, statistics: Statistics) -> np.ndarray:
    """<p| dGamma(kernel) |q> between the normalized pair states, for an n x n kernel:
    n_p n_q (K[p1,q1] d[p2,q2] + K[p2,q2] d[p1,q1] + s K[p2,q1] d[p1,q2]
    + s K[p1,q2] d[p2,q1]), with s the exchange sign."""
    fmt = pair_format(len(kernel), statistics)
    p1, p2, q1, q2 = fmt.q1[:, None], fmt.q2[:, None], fmt.q1, fmt.q2
    m = ((p2 == q2) * kernel[p1, q1] + (p1 == q1) * kernel[p2, q2]
         + fmt.sign * ((p1 == q2) * kernel[p2, q1] + (p2 == q1) * kernel[p1, q2]))
    return fmt.norms[:, None] * fmt.norms * m


@dataclass(frozen=True, eq=False)
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
    def creators(self) -> tuple[np.ndarray, np.ndarray]:
        """Index maps of the creators, each read-only of shape (dim, n_modes).

        adag_f takes basis state t to row `cols[t, f]` with amplitude
        `amps[t, f]`: sqrt(n_f + 1) for Bose, the Jordan-Wigner sign of the
        prefix sum for Fermi.  Where the raised state leaves the basis (from
        the top sector, or onto an occupied Fermi mode) the row is -1 and the
        amplitude 0.  Each occupation row is one fixed-width byte key, and the
        raised rows are found among them by argsort + searchsorted.  (Integer
        keys in base n_max + 1 would overflow int64 from 64 Bose modes at n_max 1.)
        """
        states = np.ascontiguousarray(self.states)
        key = np.dtype((np.void, states.itemsize * self.n_modes))
        keys = states.view(key)[:, 0]
        order = np.argsort(keys)
        cap = 1 if self.statistics is Statistics.FERMI else self.n_max
        row, mode = np.nonzero((self.totals() < self.n_max)[:, None] & (states < cap))
        raised = states[row]
        raised[np.arange(row.size), mode] += 1
        cols = np.full((self.dim, self.n_modes), -1, dtype=np.int64)
        cols[row, mode] = order[np.searchsorted(keys[order], raised.view(key)[:, 0])]
        if self.statistics is Statistics.BOSE:
            amps = np.where(cols >= 0, np.sqrt(states + 1.0), 0.0)
        else:
            before = np.cumsum(states, axis=1) - states
            amps = np.where(cols >= 0, 1.0 - 2.0 * (before % 2), 0.0)
        for array in (cols, amps):
            array.setflags(write=False)
        return cols, amps

    def pair_creators(self) -> tuple[np.ndarray, np.ndarray]:
        """Index maps of the pair creators A_q^dagger = n_q adag_{q1} adag_{q2} over
        the pairs q = (q1, q2) of `pair_format`, as `creators` but of shape
        (rows, P) over the rows of sectors 0..n_max-2 (from the others every
        pair leaves the basis).  With its norm n_q, A_q^dagger creates the
        normalized pair state |q> from the vacuum.  Composed from `creators`:
        adag_{q2} first, then adag_{q1}.  Where adag_{q2} leaves the basis its row -1 is the last
        state, of the top sector, so adag_{q1} reads -1 and 0 there as well.
        """
        cols, amps = self.creators
        fmt = pair_format(self.n_modes, self.statistics)
        rows = slice(0, self.sectors[max(self.n_max - 1, 0)].start)
        first = cols[rows, fmt.q2]
        return cols[first, fmt.q1], fmt.norms * amps[rows, fmt.q2] * amps[first, fmt.q1]


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
    a_f = adag_f^T scattered from `basis.creators`, whose amplitudes are all
    real.  Not cached, and no subcommand calls it: every operator is scattered
    from the creator maps, and the negative-time witness maps the kernel of
    this stack without it.  The tests read it as the dense oracle, and
    perfbench/tracer.py traces it."""
    cols, amps = basis.creators
    stack = np.zeros((basis.n_modes, basis.dim, basis.dim))
    state, mode = np.nonzero(cols >= 0)
    stack[mode, state, cols[state, mode]] = amps[state, mode]
    stack.setflags(write=False)
    return stack


def one_body_operator(basis: FockBasis, kernel: np.ndarray) -> BlockDiagonal:
    """Second-quantized one-body operator sum_{hk} kernel[h,k] adag_h a_k: the
    `_scatter` of the kernel over the creator maps.  A real kernel gives real
    blocks."""
    kernel = np.asarray(kernel)
    f = basis.n_modes
    if kernel.shape != (f, f):
        raise ValueError(f"kernel shape {kernel.shape} does not match mode count {f}")
    return _scatter(basis, kernel, 1)


def two_body_operator(basis: FockBasis, m: np.ndarray) -> BlockDiagonal:
    """Second-quantized two-body operator sum_pq m[p, q] A_p^dagger A_q, for the
    hermitian P x P matrix m of the operator between the normalized pair states
    of `pair_format` (`pair_matrix_from_tensor` of a two-body tensor): its
    `_scatter` over the pair creator maps of `FockBasis.pair_creators`.  A real
    m gives real blocks."""
    m = np.asarray(m)
    n_pairs = len(pair_format(basis.n_modes, basis.statistics).norms)
    if m.shape != (n_pairs, n_pairs):
        raise ValueError(f"pair matrix shape {m.shape} does not match {n_pairs} pair states")
    require_hermitian(m, name="two-body pair matrix")
    return _scatter(basis, m, 2)


def _scatter(basis: FockBasis, m: np.ndarray, lift: int) -> BlockDiagonal:
    """sum_pq m[p, q] L_p^dagger L_q for any matrix m, hermitian or not, over the
    creator maps (cols, amps) of the L_p^dagger that raise the number by `lift`
    (`FockBasis.creators` for 1, `pair_creators` for 2): block N adds
    amps[t, p] amps[t, q] m[p, q] at (cols[t, p], cols[t, q]) for every state t
    of sector N - lift, one `np.bincount` on the real and one on the imaginary
    part of m.  A -1 column has amplitude 0, so it may add at any index."""
    cols, amps = basis.creators if lift == 1 else basis.pair_creators()
    m = np.asarray(m)
    parts = (m.real, m.imag) if np.iscomplexobj(m) else (m,)
    blocks = []
    for number, s in enumerate(basis.sectors):
        below = basis.sectors[number - lift] if number >= lift else slice(0, 0)
        d = s.stop - s.start
        c = np.maximum(cols[below] - s.start, 0)
        flat = (c[:, :, None] * d + c[:, None, :]).ravel()
        weight = amps[below, :, None] * amps[below, None, :]
        # float: with no state below, bincount returns int zeros
        sums = [np.bincount(flat, (weight * part).ravel(), d * d).astype(float, copy=False)
                for part in parts]
        block = np.stack(sums, axis=-1).view(complex) if len(sums) == 2 else sums[0]
        blocks.append(block.reshape(d, d))
    return BlockDiagonal(basis.sectors, tuple(blocks))
