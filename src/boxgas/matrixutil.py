"""Small matrix helpers and the block-diagonal operator type shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag| over a matrix or a stack of them."""
    return float(np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), initial=0.0))


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> None:
    """Reject matrices whose anti-hermitian part exceeds tol relative to their scale."""
    defect = hermiticity_defect(a)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if defect > tol * scale:
        raise ValueError(f"{name} is not hermitian: max|A - A^dag| = {defect:.3e} > {tol:.1e}")


def trace_product(a: np.ndarray, b: np.ndarray):
    """tr(AB) as an O(n^2) elementwise sum; leading axes of either factor broadcast."""
    return np.einsum("...ij,...ji->...", a, b)


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """Block-diagonal matrix over contiguous index slices, or a stack of them.

    `blocks[s]` has shape (..., d_s, d_s) for `slices[s]`; the leading axes
    index a stack of operators that share the block structure.  Pairing two
    operators over different slices raises ValueError.
    """

    slices: tuple
    blocks: tuple

    @staticmethod
    def stack(items) -> BlockDiagonal:
        """One stack from a sequence of operators over the same slices."""
        items = list(items)
        if any(item.slices != items[0].slices for item in items):
            raise ValueError("block-diagonal operators over different slices")
        return BlockDiagonal(items[0].slices,
                             tuple(map(np.stack, zip(*(item.blocks for item in items)))))

    @property
    def dim(self) -> int:
        return self.slices[-1].stop

    def __len__(self) -> int:
        return self.blocks[0].shape[0]

    def __getitem__(self, index) -> BlockDiagonal:
        return BlockDiagonal(self.slices, tuple(b[index] for b in self.blocks))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def pairs(self, other: BlockDiagonal):
        """(own block, other block) for each slice; both must share the slices."""
        if other.slices != self.slices:
            raise ValueError("block-diagonal operators over different slices")
        return zip(self.blocks, other.blocks)

    def __add__(self, other: BlockDiagonal) -> BlockDiagonal:
        return BlockDiagonal(self.slices, tuple(a + b for a, b in self.pairs(other)))

    def __sub__(self, other: BlockDiagonal) -> BlockDiagonal:
        return BlockDiagonal(self.slices, tuple(a - b for a, b in self.pairs(other)))

    def norm(self) -> float:
        """Frobenius norm over every block (and every stacked operator)."""
        return float(np.sqrt(sum(np.vdot(b, b).real for b in self.blocks)))

    def combine(self, coeffs) -> BlockDiagonal:
        """Contract the leading stack axis with real `coeffs` (a vector or matrix rows)."""
        coeffs = np.asarray(coeffs, dtype=float)
        return BlockDiagonal(self.slices, tuple(
            (coeffs @ b.reshape(b.shape[0], -1)).reshape(coeffs.shape[:-1] + b.shape[1:])
            for b in self.blocks))

    def trace_with(self, weight: BlockDiagonal):
        """tr(W A) for every stacked A, block by block."""
        return sum(trace_product(w, b) for b, w in self.pairs(weight))

    def dense(self) -> np.ndarray:
        if len(self.blocks) == 1:
            return self.blocks[0]
        lead = self.blocks[0].shape[:-2]
        dtype = np.result_type(*self.blocks)
        out = np.zeros(lead + (self.dim, self.dim), dtype=dtype)
        for s, b in zip(self.slices, self.blocks):
            out[..., s, s] = b
        return out
