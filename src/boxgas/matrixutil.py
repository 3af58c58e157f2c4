"""Small dense-matrix helpers shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def dagger_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_i left[i]^dagger right[i] over the leading axes of two operator stacks."""
    return left.reshape(-1, left.shape[-1]).conj().T @ right.reshape(-1, right.shape[-1])


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T), initial=0.0))


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> None:
    """Reject matrices whose anti-hermitian part exceeds tol relative to their scale."""
    defect = hermiticity_defect(a)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if defect > tol * scale:
        raise ValueError(f"{name} is not hermitian: max|A - A^dag| = {defect:.3e} > {tol:.1e}")


def trace_product(a: np.ndarray, b: np.ndarray):
    """tr(AB) as an O(n^2) elementwise sum; leading axes of either factor broadcast."""
    return np.einsum("...ij,...ji->...", a, b)


@dataclass(frozen=True)
class BlockDiagonal:
    """Block-diagonal matrix over contiguous index slices, or a stack of them.

    `blocks[s]` has shape (..., d_s, d_s) for `slices[s]`; the leading axes
    index a stack of operators that share the block structure.
    """

    slices: tuple
    blocks: tuple

    @property
    def dim(self) -> int:
        return self.slices[-1].stop

    def __len__(self) -> int:
        return self.blocks[0].shape[0]

    def __getitem__(self, index) -> BlockDiagonal:
        return BlockDiagonal(self.slices, tuple(b[index] for b in self.blocks))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def combine(self, coeffs) -> BlockDiagonal:
        """Contract the leading stack axis with real `coeffs` (a vector or matrix rows).

        A complex result whose imaginary part is exactly zero is kept real.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        out = []
        for b in self.blocks:
            flat = coeffs @ b.reshape(b.shape[0], -1)
            mixed = flat.reshape(coeffs.shape[:-1] + b.shape[1:])
            out.append(mixed.real if np.iscomplexobj(mixed) and not mixed.imag.any() else mixed)
        return BlockDiagonal(self.slices, tuple(out))

    def trace_with(self, weight: np.ndarray):
        """tr(W A) for every stacked A, reading only the diagonal blocks of W."""
        return sum(trace_product(weight[s, s], b)
                   for s, b in zip(self.slices, self.blocks))

    def dense(self) -> np.ndarray:
        if len(self.blocks) == 1:
            return self.blocks[0]
        lead = self.blocks[0].shape[:-2]
        dtype = np.result_type(*self.blocks)
        out = np.zeros(lead + (self.dim, self.dim), dtype=dtype)
        for s, b in zip(self.slices, self.blocks):
            out[..., s, s] = b
        return out


def split_blocks(ops: np.ndarray, slices, names) -> BlockDiagonal:
    """Split a (stack of) dense matrices into diagonal blocks over `slices`.

    Every entry outside the blocks must be exactly zero; otherwise the
    offending operator is named in the ValueError.
    """
    ops = np.asarray(ops)
    stack = ops.reshape((-1,) + ops.shape[-2:])
    inside = np.zeros(ops.shape[-2:], dtype=bool)
    for s in slices:
        inside[s, s] = True
    leak = np.max(np.abs(stack[:, ~inside]), axis=1, initial=0.0)
    bad = np.flatnonzero(leak)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{names[i]} has entries outside its number sectors "
                         f"(max |off-sector| = {leak[i]:.3e})")
    return BlockDiagonal(tuple(slices), tuple(ops[..., s, s].copy() for s in slices))
