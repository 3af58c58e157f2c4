"""Box eigenmodes, interaction tensors, and density observables.

Everything lives in a hard-walled rectangular box with Dirichlet modes
u_f(x) = prod_i sqrt(2/L_i) sin(f_i pi x_i / L_i).  Mode overlap integrals
are analytic; interaction tensors use Gauss-Legendre product quadrature
with panels that can be aligned to a spatial cell grid so that per-cell
operators sum exactly to their global counterparts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockBasis, one_body_operator, pair_matrix_from_tensor, two_body_operator
from .matrixutil import BlockDiagonal

# Units are fixed at hbar = m = 1; every formula reads these two constants.
HBAR = 1.0
MASS = 1.0


@dataclass(frozen=True)
class BoxGeometry:
    """Rectangular box with Dirichlet walls; 1 or 3 axes."""

    lengths: tuple[float, ...]

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) not in (1, 3):
            raise ValueError("geometry must be 1D or 3D")
        if any(v <= 0 for v in lengths):
            raise ValueError("box lengths must be positive")

    @property
    def dimension(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class Mode:
    """Single Dirichlet eigenmode: quantum numbers and eigenvalue w."""

    numbers: tuple[int, ...]
    w: float

    def __post_init__(self):
        if any(n < 1 for n in self.numbers):
            raise ValueError("mode numbers start at 1")
        if not self.w > 0:
            raise ValueError("mode energy must be positive")


def mode_energy(geom: BoxGeometry, numbers) -> float:
    acc = 0.0
    for n, length in zip(numbers, geom.lengths):
        acc += (n / length) ** 2
    return (HBAR * np.pi) ** 2 / (2.0 * MASS) * acc


def modes_from_numbers(geom: BoxGeometry, numbers_list) -> list[Mode]:
    out = []
    for numbers in numbers_list:
        numbers = tuple(int(n) for n in numbers)
        if len(numbers) != geom.dimension:
            raise ValueError("mode numbers do not match geometry dimension")
        out.append(Mode(numbers, mode_energy(geom, numbers)))
    return out


def box_modes(geom: BoxGeometry, count: int) -> list[Mode]:
    """Lowest `count` modes ordered by energy, ties by lexicographic numbers."""
    if count < 1:
        raise ValueError("count must be at least 1")
    cap = 1
    while True:
        cap += 1
        candidates = [
            tuple(c)
            for c in itertools.product(range(1, cap + 1), repeat=geom.dimension)
        ]
        candidates.sort(key=lambda c: (mode_energy(geom, c), c))
        if len(candidates) < count:
            continue
        # enumeration is complete below the cheapest mode outside the cap
        boundary = min(
            mode_energy(geom, tuple(cap + 1 if i == ax else 1 for i in range(geom.dimension)))
            for ax in range(geom.dimension)
        )
        if mode_energy(geom, candidates[count - 1]) < boundary:
            return modes_from_numbers(geom, candidates[:count])


def mode_numbers(modes) -> np.ndarray:
    return np.array([m.numbers for m in modes], dtype=np.int64)


def mode_energies(modes) -> np.ndarray:
    return np.array([m.w for m in modes], dtype=float)


def mode_parities(modes) -> np.ndarray:
    """Reflection parities of the modes, one bit per axis.

    Reflecting axis i about the box centre, x_i -> L_i - x_i, maps u_f to
    (-1)^(n_i + 1) u_f; bit i of entry f is n_i % 2.  A product of modes is
    even under every reflection exactly when the XOR of their parities is 0.
    """
    numbers = mode_numbers(modes)
    return ((numbers % 2) << np.arange(numbers.shape[1])).sum(axis=1)


# ---------------------------------------------------------------------------
# potentials

class Zero(NamedTuple):
    def __call__(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class Gaussian:
    g: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return self.g * np.exp(-0.5 * (r / self.sigma) ** 2)


@dataclass(frozen=True)
class SoftLennardJones:
    """12-6 profile held constant inside the core radius so V stays finite."""

    epsilon: float
    sigma: float
    r_core: float

    def __post_init__(self):
        if self.sigma <= 0 or self.r_core <= 0:
            raise ValueError("sigma and r_core must be positive")

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), self.r_core)
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (s6 * s6 - s6)


class Contact(NamedTuple):
    """1D delta interaction; only enters through analytic mode overlaps."""

    g: float

    def __call__(self, r):
        raise TypeError("contact potential has no pointwise values; use contact_tensor")


# ---------------------------------------------------------------------------
# cells

@dataclass(frozen=True)
class CellGrid:
    """Uniform per-axis partition of the box into axis-aligned cells."""

    geom: BoxGeometry
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.geom.dimension:
            raise ValueError("cell counts do not match geometry dimension")
        if any(c < 1 for c in counts):
            raise ValueError("cell counts must be positive")

    @property
    def n_cells(self) -> int:
        return math.prod(self.counts)

    def edges(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, self.geom.lengths[axis], self.counts[axis] + 1)

    def cell_multi_index(self, cell: int) -> tuple[int, ...]:
        if not 0 <= cell < self.n_cells:
            raise ValueError("cell index out of range")
        return tuple(np.unravel_index(cell, self.counts))

    def bounds(self, cell: int) -> tuple[tuple[float, float], ...]:
        multi = self.cell_multi_index(cell)
        out = []
        for axis, i in enumerate(multi):
            e = self.edges(axis)
            out.append((float(e[i]), float(e[i + 1])))
        return tuple(out)


def whole_box_grid(geom: BoxGeometry) -> CellGrid:
    return CellGrid(geom, (1,) * geom.dimension)


# ---------------------------------------------------------------------------
# analytic interval integrals of sine modes
#
# Every mode overlap and the contact tensor reduce to integrals of
# cos(k pi theta) and sin(k pi theta) over [a, b] on theta = x/L, for integer
# arrays k of any shape and sign.  sin(k pi theta) is taken as exactly 0 where
# k theta is an integer, so whole-box and cell-edge terms carry no round-off.

def _sin_pi(k: np.ndarray, theta: float) -> np.ndarray:
    kt = k * theta
    return np.where(kt == np.round(kt), 0.0, np.sin(k * np.pi * theta))


def _cos_integral(k: np.ndarray, a: float, b: float) -> np.ndarray:
    """Integral over [a, b] of cos(k pi theta) d theta."""
    safe = np.where(k == 0, 1, k) * np.pi
    return np.where(k == 0, b - a, (_sin_pi(k, b) - _sin_pi(k, a)) / safe)


def _sin_integral(k: np.ndarray, a: float, b: float) -> np.ndarray:
    """Integral over [a, b] of sin(k pi theta) d theta."""
    safe = np.where(k == 0, 1, k) * np.pi
    return np.where(k == 0, 0.0, (np.cos(safe * a) - np.cos(safe * b)) / safe)


def _axis_overlap_matrices(numbers_axis: np.ndarray, lo: float, hi: float, length: float):
    """Axis factors over [lo, hi] for every mode pair (f, g): S integrates
    u_f u_g, G integrates u_f' u_g' and X integrates u_f u_g'."""
    a, b = lo / length, hi / length
    f, g = np.ix_(numbers_axis, numbers_axis)
    cos_diff, cos_sum = _cos_integral(f - g, a, b), _cos_integral(f + g, a, b)
    s = cos_diff - cos_sum
    gg = f * g * np.pi ** 2 / length ** 2 * (cos_diff + cos_sum)
    x = g * np.pi / length * (_sin_integral(f + g, a, b) + _sin_integral(f - g, a, b))
    return s, gg, x


def cell_overlaps(modes, grid: CellGrid, cell: int):
    """Per-cell mode overlap matrices (S, G, X_axis...) assembled from axis factors.

    S[h, k] integrates u_h u_k over the cell, G the gradient dot product,
    and X[axis][h, k] integrates u_h times the axis derivative of u_k.
    """
    numbers = mode_numbers(modes)
    bnds = grid.bounds(cell)
    d = grid.geom.dimension
    per_axis = [
        _axis_overlap_matrices(numbers[:, ax], bnds[ax][0], bnds[ax][1], grid.geom.lengths[ax])
        for ax in range(d)
    ]
    nf = len(modes)
    # product over axes, entrywise on the (mode, mode) matrices
    s_cell = np.ones((nf, nf))
    for ax in range(d):
        s_cell *= per_axis[ax][0]
    g_cell = np.zeros((nf, nf))
    x_cell = []
    for ax in range(d):
        g_term = per_axis[ax][1].copy()
        x_term = per_axis[ax][2].copy()
        for other in range(d):
            if other != ax:
                g_term *= per_axis[other][0]
                x_term *= per_axis[other][0]
        g_cell += g_term
        x_cell.append(x_term)
    return s_cell, g_cell, x_cell


# ---------------------------------------------------------------------------
# quadrature

@functools.cache
def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights of `order` points on [-1, 1], read-only.

    Golub & Welsch (Math. Comp. 23, 221 (1969)): the nodes are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix of the Legendre recurrence,
    whose off-diagonal entries are k / sqrt(4 k^2 - 1), and each weight is 2
    times the squared first component of its unit eigenvector.  Both are then
    mirror-symmetrized and the weights scaled to sum to 2, as numpy's
    `leggauss` does.
    """
    k = np.arange(1.0, order)
    jacobi = np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1)  # eigh reads the lower triangle
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = 2.0 * vectors[0] ** 2
    base_x = 0.5 * (nodes - nodes[::-1])
    base_w = 0.5 * (weights + weights[::-1])
    base_w *= 2.0 / base_w.sum()
    base_x.flags.writeable = base_w.flags.writeable = False
    return base_x, base_w


def _gauss_panels(edges: np.ndarray, base_x: np.ndarray, base_w: np.ndarray):
    """Gauss-Legendre nodes and weights on each panel [edges[i], edges[i+1]],
    mapped from the rule (base_x, base_w) on [-1, 1]."""
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * (base_x + 1.0) + lo)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _axis_mode_values(numbers_axis: np.ndarray, pts: np.ndarray, length: float) -> np.ndarray:
    # rows: modes, columns: points
    return np.sqrt(2.0 / length) * np.sin(
        np.outer(numbers_axis, pts) * (np.pi / length)
    )


def _symmetrize_tensor(t: np.ndarray) -> np.ndarray:
    # each sum is halved in place: no n^4 temporary beyond the sums themselves
    t = t + t.transpose(1, 0, 3, 2)
    t *= 0.5
    out = t + t.conj().transpose(3, 2, 1, 0)
    out *= 0.5
    return out


# entries per block of rows: kernel values V(|x - y|) on x rows in
# `_quad_tensor`, gathered tensor entries on pair rows in `_gaussian_tensor`;
# a block and its parity folds stay small enough to be reused from cache
_BLOCK_ELEMENTS = 1 << 17
_MIRROR_TOL = 1e-13


def _check_mirror(nodes: np.ndarray, wts: np.ndarray, length: float) -> None:
    """Raise ValueError unless node i mirrors node m-1-i about the axis centre
    (x_i + x_(m-1-i) = L, w_i = w_(m-1-i)) to round-off."""
    defect = max(float(np.max(np.abs(nodes + nodes[::-1] - length))) / length,
                 float(np.max(np.abs(wts - wts[::-1]))) / float(np.max(np.abs(wts))))
    if defect > _MIRROR_TOL:
        raise ValueError(
            "quadrature nodes and weights must mirror about the centre of each axis "
            f"(x_i + x_(m-1-i) = L, w_i = w_(m-1-i)); relative defect {defect:.3e}")


def _axis_rules(grid: CellGrid, order: int):
    """Per axis, the Gauss-Legendre nodes and weights on the grid's panels,
    checked to mirror about the axis centre."""
    base_x, base_w = _legendre_rule(order)
    rules = []
    for ax, length in enumerate(grid.geom.lengths):
        x, w = _gauss_panels(grid.edges(ax), base_x, base_w)
        _check_mirror(x, w, length)
        rules.append((x, w))
    return rules


def _cell_rows(grid: CellGrid, x_cell: int, ax: int, order: int) -> np.ndarray:
    """Indices of the cell's own nodes among the nodes of axis `ax`."""
    i = grid.cell_multi_index(x_cell)[ax]
    return np.arange(i * order, (i + 1) * order)


def _pair_class_columns(modes):
    """(class, columns) for each nonempty reflection-parity class of the mode
    pairs (l, f), flattened as l * n + f; the class is p_l ^ p_f."""
    parity = mode_parities(modes)
    pair_class = (parity[:, None] ^ parity[None, :]).ravel()
    return [(c, cols) for c in range(1 << len(modes[0].numbers))
            if len(cols := np.flatnonzero(pair_class == c))]


def _pair_columns(axis_factors, ls, fs) -> np.ndarray:
    """Columns w(x) u_l(x) u_f(x), one per pair (ls[k], fs[k]), over the product
    of per-axis point sets; axis_factors holds (weights, mode values) per axis."""
    out = np.ones(len(ls))
    for ax, (wts, vals) in enumerate(axis_factors):
        term = wts * vals[ls] * vals[fs]
        out = out[..., None] * term.reshape((len(ls),) + (1,) * ax + (-1,))
    return out.reshape(len(ls), -1).T


def _fold(kernel: np.ndarray, ax: int):
    """Even and odd parts of the kernel's column grid on axis `ax` over the
    mirror pairs (i, m-1-i), i < m/2; a middle node is its own mirror, so it
    joins the even part once and leaves the odd part."""
    m = kernel.shape[ax]
    half = m // 2

    def cut(s):
        return kernel[(slice(None),) * ax + (s,)]

    first, mirror = cut(slice(0, half)), cut(slice(m - 1, m - 1 - half, -1))
    even = np.empty(kernel.shape[:ax] + (m - half,) + kernel.shape[ax + 1:])
    np.add(first, mirror, out=even[(slice(None),) * ax + (slice(0, half),)])
    even[(slice(None),) * ax + (slice(half, m - half),)] = cut(slice(half, m - half))
    return even, first - mirror


def _quad_tensor(modes, potential, grid: CellGrid, order: int, x_cell: int | None) -> np.ndarray:
    """Raw quadrature tensor (l1, l2, f2, f1); x restricted to one cell when x_cell is given.

    This sweep serves potentials whose kernel does not factor over the axes
    (soft Lennard-Jones); for a Gaussian it is the oracle of
    `_gaussian_tensor`, which sums the same terms.

    Reflecting axis a about the box centre maps the uniform Gauss panels onto
    themselves and a pair column w u_l u_f to s times itself, s = -1 when bit
    a of its class p_l ^ p_f is set (`mode_parities`).  So the y sum is
    folded one axis at a time into even and odd sums over mirror nodes, and
    the columns of each of the 2^d classes meet only the folded kernel of
    that class.  The x rows are a product of per-axis node sets: the cell's
    own nodes, or for the whole box the first half of each axis, weighted by
    the size of the node's reflection orbit (2 per axis whose node is not its
    own mirror).  The whole-box summand is then reflection-even, and the
    tensor is assembled one class block at a time, so entries between
    classes are exact zeros.  V(|x - y|) is evaluated on blocks of x rows
    against the whole grid, from per-axis squared node separations.
    """
    numbers = mode_numbers(modes)
    d = grid.geom.dimension
    nodes, wts, vals, rows, orbit = [], [], [], [], []
    for ax, (x, w) in enumerate(_axis_rules(grid, order)):
        nodes.append(x)
        wts.append(w)
        vals.append(_axis_mode_values(numbers[:, ax], x, grid.geom.lengths[ax]))
        if x_cell is None:
            # one node of each mirror pair, and the middle node if m is odd
            half = np.arange((len(x) + 1) // 2)
            rows.append(half)
            orbit.append(np.where(half == len(x) - 1 - half, 1.0, 2.0))
        else:
            rows.append(_cell_rows(grid, x_cell, ax, order))
            orbit.append(1.0)
    shape = tuple(len(x) for x in nodes)
    nf = len(modes)
    ls, fs = (v.ravel() for v in np.indices((nf, nf)))
    a_left = _pair_columns([(w[r] * k, v[:, r]) for w, k, v, r in zip(wts, orbit, vals, rows)],
                           ls, fs)
    classes = []
    for c, cols in _pair_class_columns(modes):
        # the y points of class c: per axis, the fold's even or odd half
        halves = [m // 2 if c >> ax & 1 else m - m // 2 for ax, m in enumerate(shape)]
        classes.append((c, cols, _pair_columns(
            [(w[:h], v[:, :h]) for w, v, h in zip(wts, vals, halves)], ls[cols], fs[cols])))
    # sq[ax][i] holds (x_i - y)^2 over the nodes y of axis ax, laid along
    # that axis of the column grid
    sq = [((x[r, None] - x[None, :]) ** 2).reshape([len(r)] + [-1 if a == ax else 1
                                                               for a in range(d)])
          for ax, (x, r) in enumerate(zip(nodes, rows))]
    index = np.indices(tuple(len(r) for r in rows)).reshape(d, -1)
    # applied[x, (l2, f2)] = sum_y V(|x - y|) w_y u_l2(y) u_f2(y)
    applied = np.empty((index.shape[1], nf * nf))
    block = max(1, _BLOCK_ELEMENTS // int(np.prod(shape)))
    for start in range(0, index.shape[1], block):
        stop = min(start + block, index.shape[1])
        r2 = 0.0
        for ax in range(d):
            r2 = r2 + sq[ax][index[ax, start:stop]]
        folds = [potential(np.sqrt(r2))]
        for ax in range(d):
            # fold k of the list is that of class k, bit a set when odd on axis a
            pairs = [_fold(k, 1 + ax) for k in folds]
            folds = [even for even, _ in pairs] + [odd for _, odd in pairs]
        for c, cols, a_right in classes:
            applied[start:stop, cols] = folds[c].reshape(stop - start, -1) @ a_right
    if x_cell is not None:
        out = a_left.T @ applied
    else:
        # over the whole box only the class's own x columns meet it
        out = np.zeros((nf * nf, nf * nf))
        for _, cols, _ in classes:
            out[np.ix_(cols, cols)] = a_left[:, cols].T @ applied[:, cols]
    # (l1, f1, l2, f2) -> (l1, l2, f2, f1)
    return out.reshape(nf, nf, nf, nf).transpose(0, 2, 3, 1)


def _gaussian_tensor(modes, potential: Gaussian, grid: CellGrid, order: int,
                     x_cell: int | None) -> np.ndarray:
    """`_quad_tensor` of a Gaussian, as g times a product of per-axis sums.

    The kernel exp(-|x - y|^2 / 2 sigma^2), the modes and the product rule
    all factor over the axes, so the quadrature sum does too.  Axis a gives
    one factor over the pairs of its distinct mode numbers,
    F[(i, j), (p, q)] = sum_x sum_y w_x phi_i(x) phi_j(x) K(x, y) w_y phi_p(y) phi_q(y),
    with x over the cell's own nodes or over every node, and the raw entry
    (l1, l2, f2, f1) is g times the product over the axes of F at
    (n_a(l1), n_a(f1)), (n_a(l2), n_a(f2)).  A cell's tensor gathers every
    entry.  Over the whole box only pairs of one reflection-parity class meet,
    one class block at a time, as in `_quad_tensor`: entries between classes
    are exact zeros, and a block only reads factor entries whose four mode
    numbers have an even sum on every axis.
    """
    numbers = mode_numbers(modes)
    nf = len(modes)
    factors, pair_index = [], []
    for ax, (x, w) in enumerate(_axis_rules(grid, order)):
        distinct, inverse = np.unique(numbers[:, ax], return_inverse=True)
        k = len(distinct)
        vals = _axis_mode_values(distinct, x, grid.geom.lengths[ax])
        # prod[(i, j), y] = w_y phi_i(y) phi_j(y)
        prod = (w * vals[:, None, :] * vals[None, :, :]).reshape(k * k, -1)
        rows = slice(None) if x_cell is None else _cell_rows(grid, x_cell, ax, order)
        kernel = np.exp(-0.5 * ((x[rows, None] - x[None, :]) / potential.sigma) ** 2)
        factors.append(prod[:, rows] @ kernel @ prod.T)
        pair_index.append((inverse[:, None] * k + inverse[None, :]).ravel())

    def block(rows, cols):
        # g prod_a F_a over the pairs rows x cols, g last so that a subnormal
        # strength is rounded once
        out = None
        for factor, index in zip(factors, pair_index):
            term = factor[index[rows]].take(index[cols], axis=1)
            out = term if out is None else np.multiply(out, term, out=out)
        out *= potential.g
        return out

    if x_cell is not None:
        # a few rows at a time, so that no second n^4 array is held
        out = np.empty((nf * nf, nf * nf))
        step = max(1, _BLOCK_ELEMENTS // (nf * nf))
        for start in range(0, nf * nf, step):
            out[start:start + step] = block(slice(start, start + step), slice(None))
    else:
        out = np.zeros((nf * nf, nf * nf))
        for _, cols in _pair_class_columns(modes):
            out[np.ix_(cols, cols)] = block(cols, cols)
    # (l1, f1, l2, f2) -> (l1, l2, f2, f1)
    return out.reshape(nf, nf, nf, nf).transpose(0, 2, 3, 1)


def _pair_tensor(modes, potential, grid: CellGrid, cell: int | None, order: int) -> np.ndarray:
    """Pair tensor V[l1, l2, f2, f1] over the whole box (cell None) or with one
    interaction coordinate restricted to one cell of `grid`.

    Contact is analytic and Zero is zeros.  A Gaussian is the product of
    per-axis sums (`_gaussian_tensor`); any other potential is the 3D kernel
    sweep of `_quad_tensor`.  Both evaluate the same Gauss-Legendre rule, and
    both raw tensors are symmetrized the same way.
    """
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    if isinstance(potential, Contact):
        return contact_tensor(modes, potential, grid.geom if cell is None else (grid, cell))
    if isinstance(potential, Zero):
        return np.zeros((len(modes),) * 4)
    quad = _gaussian_tensor if isinstance(potential, Gaussian) else _quad_tensor
    return _symmetrize_tensor(quad(modes, potential, grid, order, x_cell=cell))


def potential_tensor(modes, potential, geom: BoxGeometry, order: int = 8) -> np.ndarray:
    """Two-body interaction tensor V[l1, l2, f2, f1] over the whole box: analytic
    for a contact potential, zero for Zero, otherwise by product Gauss-Legendre,
    which a Gaussian evaluates as a product of per-axis sums and any other
    potential as a sweep of V(|x - y|) over the 3D grid (`_pair_tensor`).

    Selection rule: V(|x - y|) is unchanged when both coordinates are
    reflected about the centre of one axis, and so are the uniform panels of
    a CellGrid with their Gauss-Legendre nodes (checked to round-off).  So
    V[l1, l2, f2, f1] is 0 unless the pair classes p_l1 ^ p_l2 and
    p_f1 ^ p_f2 (`mode_parities`) agree.  Both quadratures assemble one class
    block at a time, so those entries are exact zeros, as they are in the
    analytic contact tensor.  A tensor with one coordinate restricted to a
    cell obeys no such rule.
    """
    return _pair_tensor(modes, potential, whole_box_grid(geom), None, order)


def potential_tensor_error(modes, potential, geom: BoxGeometry, order: int = 8) -> float:
    """Max-norm difference between orders q and 2q; crude error estimate (zero
    for the contact and zero potentials, whose tensors do not depend on q)."""
    coarse = potential_tensor(modes, potential, geom, order)
    finer = potential_tensor(modes, potential, geom, 2 * order)
    return float(np.max(np.abs(coarse - finer)))


def contact_tensor(modes, potential: Contact, region) -> np.ndarray:
    """Analytic delta-interaction tensor for 1D sine modes.

    `region` is the BoxGeometry for the whole box, or a (grid, cell) pair.
    The delta localizes both coordinates, so a cell restricts the single
    integration variable; the four-sine product over it expands to eight
    cosines, summed over every mode quadruple at once.
    """
    grid, cell = (whole_box_grid(region), 0) if isinstance(region, BoxGeometry) else region
    if grid.geom.dimension != 1:
        raise ValueError("contact potential is 1D only")
    length = grid.geom.lengths[0]
    (lo, hi), = grid.bounds(cell)
    a, b = lo / length, hi / length
    m1, m2, m3, m4 = np.ix_(*[mode_numbers(modes)[:, 0]] * 4)
    tensor = 0.0
    for s2, k2 in ((1.0, m1 - m4), (-1.0, m1 + m4)):
        for s3, k3 in ((1.0, m2 - m3), (-1.0, m2 + m3)):
            for k4 in (k2 - k3, k2 + k3):
                tensor = tensor + 0.125 * s2 * s3 * _cos_integral(k4, a, b)
    return 4.0 * potential.g / length * tensor


# ---------------------------------------------------------------------------
# operators

def hamiltonian(basis: FockBasis, modes, v_pair: np.ndarray) -> BlockDiagonal:
    """Free part plus the two-body interaction `v_pair` over `pair_basis`."""
    if basis.n_modes != len(modes):
        raise ValueError("basis and mode list disagree on mode count")
    return free_hamiltonian(basis, modes) + two_body_operator(basis, v_pair)


def free_hamiltonian(basis: FockBasis, modes) -> BlockDiagonal:
    return one_body_operator(basis, np.diag(mode_energies(modes)))


def cell_kernels(modes, grid: CellGrid, cell: int):
    """One-body kernels (kinetic energy, mass) of one cell, over the mode pairs (h, k).

    The kernel K stands for sum_hk K[h, k] a†_h a_k.  The kinetic energy is
    |-i hbar grad psi|^2 / 2m over the cell, from the analytic gradient overlaps.
    """
    s_cell, g_cell, _ = cell_overlaps(modes, grid, cell)
    return (HBAR ** 2 / (2.0 * MASS)) * g_cell, MASS * s_cell


def mass_density_op(basis: FockBasis, modes, grid: CellGrid, cell: int) -> BlockDiagonal:
    """Mass content of one cell; cells sum to the total mass operator."""
    _, kernel = cell_kernels(modes, grid, cell)
    return one_body_operator(basis, kernel)


def momentum_density_op(basis: FockBasis, modes, grid: CellGrid, cell: int) -> BlockDiagonal:
    """Cell momentum, one operator per axis, stacked in axis order."""
    _, _, x_cell = cell_overlaps(modes, grid, cell)
    return BlockDiagonal.stack(one_body_operator(basis, 0.5j * HBAR * (x.T - x)) for x in x_cell)


def energy_density_op(
    basis: FockBasis,
    modes,
    grid: CellGrid,
    cell: int,
    potential,
    order: int = 8,
) -> BlockDiagonal:
    """Cell energy.

    Kinetic part is the cell_kernels energy kernel; the pair part restricts
    one interaction coordinate to the cell (symmetrized, so cells split
    shared pair energy evenly), projected once onto `pair_basis`.  The sum
    over all cells reproduces hamiltonian() built with the same grid.
    """
    kernel, _ = cell_kernels(modes, grid, cell)
    out = one_body_operator(basis, kernel)
    tensor = _pair_tensor(modes, potential, grid, cell, order)
    if not tensor.any():
        return out
    return out + two_body_operator(basis, pair_matrix_from_tensor(tensor, basis.statistics))


def quadrature_gram_defect(modes, geom: BoxGeometry, order: int = 8) -> float:
    """Max deviation of the quadrature Gram matrix of the modes from identity.

    The modes and the product rule both factor over the axes, so the Gram
    matrix is the entrywise product of the per-axis Gram matrices.
    """
    numbers = mode_numbers(modes)
    grid = whole_box_grid(geom)
    base_x, base_w = _legendre_rule(order)
    gram = np.ones((len(modes), len(modes)))
    for ax, length in enumerate(geom.lengths):
        nodes, wts = _gauss_panels(grid.edges(ax), base_x, base_w)
        values = _axis_mode_values(numbers[:, ax], nodes, length)
        gram *= (values * wts) @ values.T
    return float(np.max(np.abs(gram - np.eye(len(modes)))))
