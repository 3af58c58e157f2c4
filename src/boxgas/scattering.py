"""The two-body T-matrix and the collision time.

The pair T matrix acts through the exact eigendecomposition of the pair
Hamiltonian, one reflection-parity class at a time, so identities that are
usually asymptotic statements become finite-dimensional linear algebra here.
"""

from __future__ import annotations

import numpy as np

from .fieldmodel import HBAR, mode_energies, mode_parities
from .fock import Statistics, pair_basis
from .matrixutil import require_hermitian

RECONSTRUCT_TOL = 1e-10


def _require_reconstructed(residual: float, peak: float) -> None:
    """The residual must stay below RECONSTRUCT_TOL times max(1, largest |E|)."""
    if residual > RECONSTRUCT_TOL * max(1.0, peak):
        raise ValueError(
            f"eigendecomposition residual {residual:.3e} exceeds {RECONSTRUCT_TOL:.1e}")


# ---------------------------------------------------------------------------
# two-particle states over `fock.pair_basis`

def pair_energies(modes, pairs) -> np.ndarray:
    w = mode_energies(modes)
    p1, p2 = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    return w[p1] + w[p2]


COND_CAP = 1e10


def pair_classes(modes, pairs) -> np.ndarray:
    """Reflection-parity class of each pair: the XOR of its two mode parities."""
    parity = mode_parities(modes)
    p1, p2 = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    return parity[p1] ^ parity[p2]


def _spectral_tmatrix(v_pair: np.ndarray, energies: np.ndarray, zs,
                      classes: np.ndarray) -> list[np.ndarray]:
    """T(z) = V + V (z - H_pair)^{-1} V with H_pair = diag(E) + V, for each z in zs.

    V must couple no two pair classes (a V that does is rejected), so H_pair
    and every T(z) are block diagonal over them: each class has one
    eigendecomposition, which serves every z, and T is exactly 0 between
    classes.  Classes of one size are solved as one stack.  A z may be one
    number or one value per column; column q is then taken at z[q].  The
    reconstruction residuals, summed in quadrature over the classes, must
    stay below RECONSTRUCT_TOL times the largest |eigenvalue| of any class.
    The condition number of z - H_pair is bounded by max_j |z - lambda_j| /
    Im z over every eigenvalue of every class and every column, and that
    bound must stay below COND_CAP.
    """
    leak = float(np.max(np.abs(v_pair[classes[:, None] != classes[None, :]]), initial=0.0))
    if leak > 0.0:
        raise ValueError(
            f"pair potential couples reflection-parity classes (max |V| {leak:.3e}); "
            "the tensor breaks the selection rule of potential_tensor"
        )
    order = np.argsort(classes, kind="stable")
    sizes = np.bincount(classes)
    starts = np.cumsum(sizes) - sizes
    stacks, residual2, lo, hi = [], 0.0, np.inf, -np.inf
    for size in sorted(set(sizes.tolist()) - {0}):
        # one row of pair indices per class with `size` members
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        block = (idx[:, :, None], idx[:, None, :])
        v = v_pair[block]
        h = v.copy()
        diag = np.arange(size)
        h[:, diag, diag] += energies[idx]
        require_hermitian(h, name="hamiltonian")
        lam, vec = np.linalg.eigh(h)
        vec_h = vec.conj().swapaxes(1, 2)
        miss = (vec * lam[:, None, :]) @ vec_h - h
        residual2 += np.vdot(miss, miss).real
        lo, hi = min(lo, float(lam.min())), max(hi, float(lam.max()))
        stacks.append((idx, block, v, lam, v @ vec, vec_h @ v))
    _require_reconstructed(float(np.sqrt(residual2)), max(-lo, hi))
    columns = [np.broadcast_to(z, energies.shape) for z in zs]
    for z in columns:
        # |z - lambda| over real lambda peaks at the smallest or largest one
        far = np.maximum(np.abs(z - lo), np.abs(z - hi))
        bound = float(np.max(far / z.imag, initial=0.0))
        if bound > COND_CAP:
            raise ValueError(
                f"resolvent condition bound {bound:.3e} exceeds {COND_CAP:.1e}; "
                "increase epsilon or weaken the coupling"
            )
    out = [np.zeros(v_pair.shape, dtype=complex) for _ in zs]
    for idx, block, v, lam, vu, uv in stacks:
        for z, t in zip(columns, out):
            t[block] = v + vu @ (uv / (z[idx][:, None, :] - lam[:, :, None]))
    return out


def onshell_tmatrix(modes, v_pair: np.ndarray, statistics: Statistics, eps: float) -> np.ndarray:
    """On-shell T from V over `pair_basis`: column q taken at z = E_q + i eps,
    with the linear-in-eps bias removed from two samples, T_on = 2 T(eps/2) - T(eps).

    Selection rule: a whole-box `potential_tensor` on uniform panels is even
    under the reflection of each axis about the box centre, so V couples a
    pair (p1, p2) only to pairs of its class p1 ^ p2 of mode parities
    (`pair_classes`), and so does T = V + V G V.  T is solved class by class
    and is exactly 0 between classes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pairs = pair_basis(len(modes), statistics)
    v_pair = np.asarray(v_pair, dtype=complex)
    if v_pair.shape != (len(pairs), len(pairs)):
        raise ValueError(
            f"pair potential shape {v_pair.shape} does not match {len(pairs)} pair states")
    energies = pair_energies(modes, pairs)
    half, full = _spectral_tmatrix(v_pair, energies,
                                   [energies + 0.5j * eps, energies + 1j * eps],
                                   pair_classes(modes, pairs))
    half *= 2.0  # in place: no third P x P array
    half -= full
    return half


def collision_time_estimate(t_onshell: np.ndarray) -> float:
    """tau0 = hbar / max |on-shell T|; infinite when there are no collisions."""
    peak = float(np.max(np.abs(t_onshell))) if t_onshell.size else 0.0
    if peak == 0.0:
        return float("inf")
    return HBAR / peak
