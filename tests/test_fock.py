import itertools
import time

import numpy as np
import pytest

from boxgas.fock import (
    DIM_CAP,
    Statistics,
    basis_dimension,
    build_basis,
    ladder_ops,
    one_body_operator,
    pair_basis,
    pair_format,
    sector_dimension,
    two_body_operator,
    pair_matrix_from_tensor,
)
from dense_oracles import state_index


def brute_one_body(basis, kernel):
    """Direct combinatorial assembly, independent of the matrix-product route."""
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    fermi = basis.statistics is Statistics.FERMI
    for col, occ in enumerate(basis.states):
        for k in range(basis.n_modes):
            if occ[k] == 0:
                continue
            mid = occ.copy()
            mid[k] -= 1
            amp_a = np.sqrt(occ[k]) if not fermi else (-1.0) ** int(occ[:k].sum())
            for h in range(basis.n_modes):
                if fermi and mid[h] == 1:
                    continue
                tgt = mid.copy()
                tgt[h] += 1
                if tgt.sum() > basis.n_max:
                    continue
                amp_c = np.sqrt(tgt[h]) if not fermi else (-1.0) ** int(mid[:h].sum())
                row = state_index(basis, tgt)
                out[row, col] += kernel[h, k] * amp_a * amp_c
    return out


def apply_annihilator(occ, mode, fermi):
    if occ[mode] == 0:
        return None, 0.0
    out = occ.copy()
    out[mode] -= 1
    if fermi:
        return out, (-1.0) ** int(occ[:mode].sum())
    return out, np.sqrt(occ[mode])


def apply_creator(occ, mode, fermi, n_max):
    if fermi and occ[mode] == 1:
        return None, 0.0
    out = occ.copy()
    out[mode] += 1
    if out.sum() > n_max:
        return None, 0.0
    if fermi:
        return out, (-1.0) ** int(occ[:mode].sum())
    return out, np.sqrt(out[mode])


def brute_two_body(basis, tensor):
    dim = basis.dim
    fermi = basis.statistics is Statistics.FERMI
    out = np.zeros((dim, dim), dtype=complex)
    nm = basis.n_modes
    for col, occ0 in enumerate(basis.states):
        for f1 in range(nm):
            s1, a1 = apply_annihilator(occ0, f1, fermi)
            if s1 is None:
                continue
            for f2 in range(nm):
                s2, a2 = apply_annihilator(s1, f2, fermi)
                if s2 is None:
                    continue
                for l2 in range(nm):
                    s3, a3 = apply_creator(s2, l2, fermi, basis.n_max)
                    if s3 is None:
                        continue
                    for l1 in range(nm):
                        s4, a4 = apply_creator(s3, l1, fermi, basis.n_max)
                        if s4 is None:
                            continue
                        row = state_index(basis, s4)
                        out[row, col] += 0.5 * tensor[l1, l2, f2, f1] * a1 * a2 * a3 * a4
    return out


def random_hermitian_tensor(rng, n):
    """Exchange-symmetric, t[l1,l2,f2,f1] == t[l2,l1,f1,f2], and hermitian."""
    t = rng.normal(size=(n, n, n, n)) + 1j * rng.normal(size=(n, n, n, n))
    t = 0.5 * (t + t.transpose(1, 0, 3, 2))
    return 0.5 * (t + t.conj().transpose(3, 2, 1, 0))


def test_dimension_oracle_bose():
    # sum over sectors of the multiset coefficient C(F+n-1, n)
    basis = build_basis(3, 2, Statistics.BOSE)
    assert basis.dim == 1 + 3 + 6 == 10
    basis = build_basis(4, 2, Statistics.BOSE)
    assert basis.dim == 15
    basis = build_basis(2, 4, Statistics.BOSE)
    assert basis.dim == sum(sector_dimension(2, n, Statistics.BOSE) for n in range(5)) == 15


def test_dimension_oracle_fermi():
    basis = build_basis(3, 2, Statistics.FERMI)
    assert basis.dim == 1 + 3 + 3 == 7
    basis = build_basis(4, 4, Statistics.FERMI)
    assert basis.dim == 2 ** 4


def test_fermi_n_max_capped_by_modes():
    with pytest.raises(ValueError):
        build_basis(2, 3, Statistics.FERMI)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_closed_form_dimension_is_the_sum_over_sectors(statistics):
    for n_modes in range(1, 7):
        top = n_modes if statistics is Statistics.FERMI else 6
        for n_max in range(top + 1):
            want = sum(sector_dimension(n_modes, n, statistics) for n in range(n_max + 1))
            assert basis_dimension(n_modes, n_max, statistics) == want
            if n_max <= 4:
                assert build_basis(n_modes, n_max, statistics).dim == want


def test_dimension_cap_raises_without_summing_the_shells():
    # the closed form takes microseconds; a sum over 10^9 shells would take minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds cap {DIM_CAP}"):
        build_basis(3, 10**9, Statistics.BOSE)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n_modes, statistics, n_pairs", [
    (4, Statistics.BOSE, 10), (4, Statistics.FERMI, 6), (1, Statistics.FERMI, 0)])
def test_pair_format_is_built_once_and_read_only(n_modes, statistics, n_pairs):
    fmt = pair_format(n_modes, statistics)
    names = ("q1", "q2", "norms")
    assert fmt._fields == names + ("sign",)
    again = pair_format(n_modes, statistics)
    for name in names:
        array = getattr(fmt, name)
        assert getattr(again, name) is array
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    fermi = statistics is Statistics.FERMI
    pairs = [(f1, f2) for f1 in range(n_modes) for f2 in range(f1 + fermi, n_modes)]
    assert len(pairs) == n_pairs and pair_basis(n_modes, statistics) == pairs
    norms = [1.0 / np.sqrt(2.0) if f1 == f2 else 1.0 for f1, f2 in pairs]
    assert np.array_equal(fmt.norms, norms)
    assert fmt.sign == (-1.0 if fermi else 1.0)


def test_graded_lexicographic_order():
    cases = [
        (2, 2, Statistics.BOSE, [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]),
        (3, 2, Statistics.FERMI, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
                                  (0, 1, 1), (1, 0, 1), (1, 1, 0)]),
        (3, 0, Statistics.BOSE, [(0, 0, 0)]),
        (2, 0, Statistics.FERMI, [(0, 0)]),
        (1, 3, Statistics.BOSE, [(0,), (1,), (2,), (3,)]),
        (1, 1, Statistics.FERMI, [(0,), (1,)]),
    ]
    for n_modes, n_max, statistics, expected in cases:
        basis = build_basis(n_modes, n_max, statistics)
        assert basis.states.dtype == np.int64
        assert [tuple(row) for row in basis.states] == expected
        for i, occ in enumerate(expected):
            assert state_index(basis, occ) == i
    # oracle: every capped occupation tuple, sorted by (total, tuple)
    for statistics, cap in ((Statistics.BOSE, None), (Statistics.FERMI, 1)):
        for n_modes in range(1, 5):
            for n_max in range(0, n_modes + 1):
                top = n_max if cap is None else cap
                rows = sorted((occ for occ in itertools.product(range(top + 1), repeat=n_modes)
                               if sum(occ) <= n_max), key=lambda occ: (sum(occ), occ))
                assert np.array_equal(build_basis(n_modes, n_max, statistics).states, rows)


def test_bose_annihilation_amplitude():
    basis = build_basis(3, 3, Statistics.BOSE)
    a1 = ladder_ops(basis)[1]
    col = state_index(basis, (0, 2, 1))
    row = state_index(basis, (0, 1, 1))
    assert a1[row, col] == pytest.approx(np.sqrt(2.0))
    # unoccupied mode annihilates the state
    assert np.all(a1[:, state_index(basis, (1, 0, 2))] == 0.0)


def test_fermi_jordan_wigner_sign():
    basis = build_basis(3, 3, Statistics.FERMI)
    a0, a1 = ladder_ops(basis)[:2]
    col = state_index(basis, (1, 1, 0))
    assert a0[state_index(basis, (0, 1, 0)), col] == pytest.approx(1.0)
    assert a1[state_index(basis, (1, 0, 0)), col] == pytest.approx(-1.0)


def test_ccr_exact_below_truncation_shell():
    basis = build_basis(3, 2, Statistics.BOSE)
    a = ladder_ops(basis)
    interior = basis.totals() < basis.n_max
    eye = np.eye(basis.dim)
    for f in range(3):
        for g in range(3):
            c = a[f] @ a[g].conj().T - a[g].conj().T @ a[f]
            defect = c - (f == g) * eye
            assert np.max(np.abs(defect[:, interior])) < 1e-13
            # same-mode commutators also vanish
            cc = a[f] @ a[g] - a[g] @ a[f]
            assert np.max(np.abs(cc)) < 1e-13


def test_ccr_known_defect_on_top_shell():
    # on the top shell adag leaves the retained space, so [a_f, adag_f] acts as -n_f
    basis = build_basis(2, 2, Statistics.BOSE)
    a = ladder_ops(basis)
    c = a[0] @ a[0].conj().T - a[0].conj().T @ a[0]
    top = state_index(basis, (2, 0))
    assert c[top, top] == pytest.approx(-2.0)


def test_car_exact_everywhere():
    basis = build_basis(3, 3, Statistics.FERMI)
    a = ladder_ops(basis)
    eye = np.eye(basis.dim)
    for f in range(3):
        for g in range(3):
            anti = a[f] @ a[g].conj().T + a[g].conj().T @ a[f]
            assert np.max(np.abs(anti - (f == g) * eye)) < 1e-13
            assert np.max(np.abs(a[f] @ a[g] + a[g] @ a[f])) < 1e-13


def test_number_operator_is_total_occupation():
    basis = build_basis(3, 2, Statistics.BOSE)
    n_tot = one_body_operator(basis, np.eye(3)).dense()
    assert np.allclose(n_tot, np.diag(basis.totals()), atol=1e-13)


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_one_body_matches_brute_force(statistics):
    rng = np.random.default_rng(7)
    n_max = 2 if statistics is Statistics.BOSE else 3
    basis = build_basis(3, n_max, statistics)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    built = one_body_operator(basis, h).dense()
    assert np.max(np.abs(built - brute_one_body(basis, h))) < 1e-12


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_two_body_matches_brute_force(statistics):
    rng = np.random.default_rng(11)
    basis = build_basis(3, 3, statistics)
    tensor = random_hermitian_tensor(rng, 3)
    built = two_body_operator(basis, pair_matrix_from_tensor(tensor, statistics)).dense()
    brute = brute_two_body(basis, tensor)
    assert np.max(np.abs(built - brute)) < 1e-12
    assert np.max(np.abs(built - built.conj().T)) < 1e-12


def test_two_body_rejects_nonhermitian_tensor():
    rng = np.random.default_rng(3)
    basis = build_basis(2, 2, Statistics.BOSE)
    bad = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    with pytest.raises(ValueError, match="pair matrix is not hermitian"):
        two_body_operator(basis, pair_matrix_from_tensor(bad, Statistics.BOSE))
    with pytest.raises(ValueError, match="does not match 3 pair states"):
        two_body_operator(basis, np.eye(2))


def test_two_body_number_conservation():
    rng = np.random.default_rng(5)
    basis = build_basis(3, 2, Statistics.BOSE)
    tensor = random_hermitian_tensor(rng, 3)
    op = two_body_operator(basis, pair_matrix_from_tensor(tensor, Statistics.BOSE)).dense()
    n_tot = np.diag(basis.totals())
    assert np.max(np.abs(op @ n_tot - n_tot @ op)) < 1e-12


def test_ladder_stack_is_read_only():
    basis = build_basis(3, 2, Statistics.BOSE)
    a = ladder_ops(basis)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0, 0] = 1.0


@pytest.mark.parametrize("statistics,n_modes,n_max", [
    (Statistics.BOSE, 3, 2), (Statistics.BOSE, 5, 4), (Statistics.FERMI, 4, 3)])
def test_sectors_are_contiguous_number_slices(statistics, n_modes, n_max):
    basis = build_basis(n_modes, n_max, statistics)
    sectors = basis.sectors
    assert len(sectors) == n_max + 1
    assert sectors[0].start == 0 and sectors[-1].stop == basis.dim
    totals = basis.totals()
    for n, s in enumerate(sectors):
        assert s.stop - s.start == sector_dimension(n_modes, n, statistics)
        assert np.all(totals[s] == n)
    assert basis.sectors is sectors
