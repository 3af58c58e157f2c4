"""Heisenberg evolution, superoperator resolvents, and the two-body T-matrix.

The resolvent and the scattering map act on operators through the exact
eigendecomposition of the Hamiltonian, so identities that are usually
asymptotic statements become finite-dimensional linear algebra here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fieldmodel import HBAR, mode_energies
from .fock import Statistics, annihilation_op
from .matrixutil import require_hermitian

RECONSTRUCT_TOL = 1e-10
SINGULAR_GAP = 1e-12
WINDOW_FACTOR = 5.0
WINDOW_CAP = 50.0


class SingularQuery(ValueError):
    """Resolvent evaluated within SINGULAR_GAP of a generator eigenvalue."""


class WindowError(ValueError):
    """No time window between the collision scale and the phase scale."""


@dataclass(frozen=True)
class SpectralDecomposition:
    energies: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.energies) @ self.vectors.conj().T


def spectral_decomposition(h: np.ndarray, tol: float = RECONSTRUCT_TOL) -> SpectralDecomposition:
    require_hermitian(h, name="hamiltonian")
    energies, vectors = np.linalg.eigh(h)
    dec = SpectralDecomposition(energies, vectors)
    scale = max(1.0, float(np.max(np.abs(energies))))
    residual = np.linalg.norm(dec.reconstruct() - h)
    if residual > tol * scale:
        raise ValueError(f"eigendecomposition residual {residual:.3e} exceeds {tol:.1e}")
    return dec


def heisenberg_evolve(
    h: np.ndarray,
    x: np.ndarray,
    t: float,
    hbar: float = HBAR,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """exp(+iHt/hbar) X exp(-iHt/hbar)."""
    dec = spectral_decomposition(h) if decomp is None else decomp
    q = dec.vectors
    x_tilde = q.conj().T @ x @ q
    phase = np.exp(1j * dec.energies * t / hbar)
    return q @ (np.outer(phase, phase.conj()) * x_tilde) @ q.conj().T


def resolvent_apply(
    h: np.ndarray,
    z: complex,
    x: np.ndarray,
    hbar: float = HBAR,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Solve (z - (i/hbar)[H, .]) Y = X spectrally."""
    dec = spectral_decomposition(h) if decomp is None else decomp
    q = dec.vectors
    x_tilde = q.conj().T @ x @ q
    freq = 1j * (dec.energies[:, None] - dec.energies[None, :]) / hbar
    denom = z - freq
    gap = float(np.min(np.abs(denom)))
    if gap <= SINGULAR_GAP:
        raise SingularQuery(
            f"z = {z} lies within {gap:.3e} of a generator eigenvalue"
        )
    return q @ (x_tilde / denom) @ q.conj().T


def scattering_map_apply(
    h0: np.ndarray,
    v: np.ndarray,
    z: complex,
    x: np.ndarray,
    hbar: float = HBAR,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """T(z) X = V' X + V' (z - H')^{-1} V' X with V' = (i/hbar)[V, .]."""
    vx = (1j / hbar) * (v @ x - x @ v)
    inner = resolvent_apply(h0 + v, z, vx, hbar, decomp)
    return vx + (1j / hbar) * (v @ inner - inner @ v)


# ---------------------------------------------------------------------------
# two-particle pair basis

def pair_basis(n_modes: int, statistics: Statistics) -> list[tuple[int, int]]:
    """Ordered mode pairs indexing the two-particle sector."""
    if statistics is Statistics.BOSE:
        return [(f1, f2) for f1 in range(n_modes) for f2 in range(f1, n_modes)]
    return [(f1, f2) for f1 in range(n_modes) for f2 in range(f1 + 1, n_modes)]


def pair_energies(modes, pairs) -> np.ndarray:
    w = mode_energies(modes)
    return np.array([w[p1] + w[p2] for p1, p2 in pairs])


def _pair_norms(pairs, statistics: Statistics) -> np.ndarray:
    if statistics is Statistics.FERMI:
        return np.ones(len(pairs))
    return np.array([1.0 / np.sqrt(2.0) if p1 == p2 else 1.0 for p1, p2 in pairs])


def pair_matrix_from_tensor(tensor: np.ndarray, pairs, statistics: Statistics) -> np.ndarray:
    """Matrix elements of the two-body operator between normalized pair states.

    Requires the exchange-symmetrized tensor; the result is hermitian when
    the tensor is.
    """
    norms = _pair_norms(pairs, statistics)
    n = len(pairs)
    m = np.empty((n, n), dtype=complex)
    sign = -1.0 if statistics is Statistics.FERMI else 1.0
    for i, (p1, p2) in enumerate(pairs):
        for j, (q1, q2) in enumerate(pairs):
            m[i, j] = norms[i] * norms[j] * (
                tensor[p1, p2, q2, q1] + sign * tensor[p1, p2, q1, q2]
            )
    return m


def tensor_from_pair_matrix(m: np.ndarray, pairs, statistics: Statistics, n_modes: int) -> np.ndarray:
    """Canonical rank-4 tensor whose pair projection reproduces m.

    Bose: fully symmetric in (l1, l2) and in (f1, f2).  Fermi: antisymmetric
    in both pairs.  Inverse of pair_matrix_from_tensor on its image.
    """
    norms = _pair_norms(pairs, statistics)
    tensor = np.zeros((n_modes,) * 4, dtype=complex)
    fermi = statistics is Statistics.FERMI
    for i, (p1, p2) in enumerate(pairs):
        for j, (q1, q2) in enumerate(pairs):
            if fermi:
                half = 0.5 * m[i, j]
                for la, lb, ls in ((p1, p2, 1.0), (p2, p1, -1.0)):
                    for fa, fb, fs in ((q1, q2, 1.0), (q2, q1, -1.0)):
                        tensor[la, lb, fb, fa] = ls * fs * half
            else:
                val = 0.5 * m[i, j] / (norms[i] * norms[j])
                for la, lb in {(p1, p2), (p2, p1)}:
                    for fa, fb in {(q1, q2), (q2, q1)}:
                        tensor[la, lb, fb, fa] = val
    return tensor


@dataclass(frozen=True)
class TwoBodyTMatrix:
    pairs: tuple
    energies: np.ndarray
    z: complex
    matrix: np.ndarray
    v_pair: np.ndarray = field(repr=False)


COND_CAP = 1e10


def two_body_tmatrix(modes, vtensor, statistics: Statistics, z: complex,
                     cond_cap: float = COND_CAP) -> TwoBodyTMatrix:
    """Dense Lippmann-Schwinger solve T = V + V G0(z) T on the pair basis."""
    if np.imag(z) <= 0:
        raise ValueError("z must lie in the upper half plane")
    pairs = pair_basis(len(modes), statistics)
    energies = pair_energies(modes, pairs)
    v_pair = pair_matrix_from_tensor(vtensor, pairs, statistics)
    t = _solve_tmatrix(v_pair, energies, z, cond_cap)
    return TwoBodyTMatrix(tuple(pairs), energies, z, t, v_pair)


def _solve_tmatrix(v_pair: np.ndarray, energies: np.ndarray, z: complex, cond_cap: float) -> np.ndarray:
    g0 = 1.0 / (z - energies)
    lhs = np.eye(len(energies)) - v_pair * g0[None, :]
    cond = np.linalg.cond(lhs)
    if cond > cond_cap:
        raise ValueError(
            f"Lippmann-Schwinger system condition {cond:.3e} exceeds {cond_cap:.1e}; "
            "increase epsilon or weaken the coupling"
        )
    return np.linalg.solve(lhs, v_pair)


def onshell_tmatrix(modes, vtensor, statistics: Statistics, eps: float,
                    extrapolate: bool = True, cond_cap: float = COND_CAP) -> np.ndarray:
    """On-shell T: column q solved at z = E_q + i eps.

    With extrapolate=True the linear-in-eps bias is removed from two samples,
    T_on = 2 T(eps/2) - T(eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pairs = pair_basis(len(modes), statistics)
    energies = pair_energies(modes, pairs)
    v_pair = pair_matrix_from_tensor(vtensor, pairs, statistics)

    def solve_at(e: float) -> np.ndarray:
        t = np.empty_like(v_pair)
        for col_energy in np.unique(energies):
            cols = np.flatnonzero(np.abs(energies - col_energy) < 1e-12)
            full = _solve_tmatrix(v_pair, energies, col_energy + 1j * e, cond_cap)
            t[:, cols] = full[:, cols]
        return t

    if not extrapolate:
        return solve_at(eps)
    return 2.0 * solve_at(0.5 * eps) - solve_at(eps)


def collision_time_estimate(coeffs, hbar: float = HBAR) -> float:
    """tau0 = hbar / max |on-shell T|; infinite when there are no collisions."""
    t_on = np.asarray(getattr(coeffs, "t_onshell", coeffs))
    peak = float(np.max(np.abs(t_on))) if t_on.size else 0.0
    if peak == 0.0:
        return float("inf")
    return hbar / peak


# ---------------------------------------------------------------------------
# coarse-grained window

@dataclass(frozen=True)
class CoarseWindow:
    tau0: float
    t_max: float
    times: np.ndarray

    @property
    def mid_time(self) -> float:
        return float(np.exp(np.mean(np.log(self.times))))


def coarse_window(
    tau0: float,
    w_h: float,
    w_k: float,
    hbar: float = HBAR,
    n_samples: int = 5,
    factor: float = WINDOW_FACTOR,
    cap: float = WINDOW_CAP,
) -> CoarseWindow:
    """Sample times with factor*tau0 <= t <= t_max/factor, t_max = hbar/|W_h - W_k|.

    Degenerate bilinears have no phase scale; their window is capped at
    cap*tau0.  An empty window raises WindowError.
    """
    if not np.isfinite(tau0) or tau0 <= 0:
        raise WindowError("no coarse-grained regime at these parameters: no collision scale")
    gap = abs(w_h - w_k)
    t_max = float("inf") if gap == 0.0 else hbar / gap
    lo = factor * tau0
    hi = min(t_max / factor, cap * tau0)
    if lo >= hi:
        raise WindowError(
            "no coarse-grained regime at these parameters: "
            f"{factor}*tau0 = {lo:.3e} is not below t_max/{factor} = {t_max / factor:.3e}"
        )
    times = np.exp(np.linspace(np.log(lo), np.log(hi), n_samples))
    return CoarseWindow(tau0, t_max, times)


@dataclass(frozen=True)
class CoarseReport:
    h: int
    k: int
    window: CoarseWindow
    times: np.ndarray
    deltas: np.ndarray


def coarse_grained_check(
    basis,
    h0: np.ndarray,
    v_op: np.ndarray,
    h: int,
    k: int,
    window: CoarseWindow,
    lprime_image: np.ndarray,
    hbar: float = HBAR,
) -> CoarseReport:
    """Compare exact Heisenberg motion of adag_h a_k against its generator image.

    delta(t) = ||U'(t)X - X - t L'(X)||_F / ||t L'(X)||_F for each window time.
    """
    x = annihilation_op(basis, h).conj().T @ annihilation_op(basis, k)
    h_full = h0 + v_op
    dec = spectral_decomposition(h_full)
    scale = np.linalg.norm(lprime_image)
    if scale == 0.0:
        raise ValueError("generator image vanishes; discrepancy is undefined")
    deltas = []
    for t in window.times:
        drift = heisenberg_evolve(h_full, x, float(t), hbar, dec) - x - t * lprime_image
        deltas.append(float(np.linalg.norm(drift) / (t * scale)))
    return CoarseReport(h, k, window, window.times, np.array(deltas))


def scaling_exponent(couplings, deltas) -> float:
    """Least-squares slope of log delta against log coupling."""
    g = np.log(np.asarray(couplings, dtype=float))
    d = np.log(np.asarray(deltas, dtype=float))
    if len(g) < 2:
        raise ValueError("need at least two couplings")
    return float(np.polyfit(g, d, 1)[0])
