"""End-to-end acceptance checks at desk scale.

Each test covers one numbered acceptance item and prints a single
pass/fail line straight to the terminal (bypassing capture), so a full
run shows nine lines regardless of verbosity.
"""
import math

import numpy as np
import pytest
from click.testing import CliRunner

from boxgas.cli import main
from boxgas.fieldmodel import (
    MASS,
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    Zero,
    _pair_tensor,
    contact_tensor,
    energy_density_op,
    free_hamiltonian,
    hamiltonian,
    mass_density_op,
    mode_energies,
    modes_from_numbers,
    potential_tensor,
)
from boxgas.fock import (
    Statistics,
    build_basis,
    ladder_ops,
    one_body_operator,
    pair_matrix_from_tensor,
)
from boxgas.generator import (
    Lprime,
    build_coefficients,
    conservation_report,
    negative_tau_witness,
    positivity_check,
)
from boxgas.gibbs import (
    ConstraintSet,
    LagrangeFields,
    cell_observables,
    entropy,
    expectation,
    gibbs_state,
    maxent_fit,
)
from boxgas.kinetics import closure_rhs, integrate
from boxgas.microsystem import (
    MicroModeSet,
    embed_joint,
    one_body_micro,
    reduce_expectation,
)
from boxgas.scattering import onshell_tmatrix
from dense_oracles import (
    CoarseWindow,
    WindowError,
    coarse_grained_check,
    coarse_window,
    constrained_perturbation,
    scaling_exponent,
    weight_entropy,
)
from test_kinetics import make_system
from test_scattering import resolvent_apply, scattering_map_apply

GEOM = BoxGeometry((1.0,))
UNIT = 0.5 * math.pi ** 2


def announce(capsys, num, label, passed, detail):
    with capsys.disabled():
        state = "PASS" if passed else "FAIL"
        print(f"\n[acceptance {num}/9] {label}: {state} ({detail})")


def test_acceptance_1_algebra(capsys):
    basis = build_basis(3, 2, Statistics.BOSE)
    a = ladder_ops(basis)
    interior = basis.totals() < basis.n_max
    eye = np.eye(basis.dim)
    ccr = 0.0
    for f in range(3):
        for g in range(3):
            comm = a[f] @ a[g].conj().T - a[g].conj().T @ a[f]
            ccr = max(ccr, np.max(np.abs((comm - (f == g) * eye)[:, interior])))
            ccr = max(ccr, np.max(np.abs(a[f] @ a[g] - a[g] @ a[f])))
    fbasis = build_basis(3, 3, Statistics.FERMI)
    b = ladder_ops(fbasis)
    feye = np.eye(fbasis.dim)
    car = 0.0
    for f in range(3):
        for g in range(3):
            anti = b[f] @ b[g].conj().T + b[g].conj().T @ b[f]
            car = max(car, np.max(np.abs(anti - (f == g) * feye)))
            car = max(car, np.max(np.abs(b[f] @ b[g] + b[g] @ b[f])))

    modes = modes_from_numbers(GEOM, [(1,), (2,), (3,)])
    grid4 = CellGrid(GEOM, (4,))
    mass_sum = sum(mass_density_op(basis, modes, grid4, c).dense()
                   for c in range(grid4.n_cells))
    mass_total = one_body_operator(basis, MASS * np.eye(basis.n_modes)).dense()
    mass_defect = np.max(np.abs(mass_sum - mass_total))
    grid2 = CellGrid(GEOM, (2,))
    energy_defect = 0.0
    for pot in (Gaussian(0.6, 0.3), Contact(0.5), Zero()):
        tensor = _pair_tensor(modes, pot, grid2, None, 8)
        h = hamiltonian(basis, modes, pair_matrix_from_tensor(tensor, Statistics.BOSE)).dense()
        tiled = sum(energy_density_op(basis, modes, grid2, c, pot, order=8).dense()
                    for c in range(grid2.n_cells))
        energy_defect = max(energy_defect, np.max(np.abs(tiled - h)))

    passed = ccr <= 1e-12 and car <= 1e-12 and mass_defect <= 1e-13 \
        and energy_defect <= 1e-11
    announce(capsys, 1, "ladder algebra and density sums", passed,
             f"ccr={ccr:.1e} car={car:.1e} mass_sum={mass_defect:.1e} "
             f"energy_sum={energy_defect:.1e}")
    assert ccr <= 1e-12
    assert car <= 1e-12
    assert mass_defect <= 1e-13
    assert energy_defect <= 1e-11


def test_acceptance_2_resolvent_identity(capsys):
    modes = modes_from_numbers(GEOM, [(1,), (2,), (3,)])
    basis = build_basis(3, 2, Statistics.BOSE)
    h0 = free_hamiltonian(basis, modes).dense()
    v_pair = pair_matrix_from_tensor(contact_tensor(modes, Contact(0.8), GEOM), Statistics.BOSE)
    v = hamiltonian(basis, modes, v_pair).dense() - h0
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=h0.shape) + 1j * rng.normal(size=h0.shape)
        re = float(rng.choice([-1.0, 1.0]) * (0.3 + abs(rng.normal(scale=2.0))))
        z = complex(re, 0.4 + rng.uniform())
        lhs = resolvent_apply(h0 + v, z, x)
        free = resolvent_apply(h0, z, x)
        rhs = free + resolvent_apply(h0, z, scattering_map_apply(h0, v, z, free))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    passed = worst <= 1e-9
    announce(capsys, 2, "resolvent identity, 50 draws", passed,
             f"worst residual={worst:.1e}")
    assert worst <= 1e-9


def test_acceptance_3_coarse_grained_scaling(capsys):
    # Mode numbers {1,4,7,8} put the coupled pairs (1,8) and (4,7) at the
    # same energy, so the exact evolution has a genuine secular component
    # for the generator to track; every other coupled channel sits >= 15
    # energy units away and the width 5 smearing keeps it closed.  The
    # discrepancy of each diagonal bilinear is compared at fixed times
    # drawn from the common part of the three coupling windows.
    numbers = (1, 4, 7, 8)
    modes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    basis = build_basis(4, 2, Statistics.BOSE)
    couplings = (0.4, 0.2, 0.1)
    runs = []
    for g in couplings:
        vt = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(g, 0.25), GEOM, order=32),
                                     Statistics.BOSE)
        coeffs = build_coefficients(modes, onshell_tmatrix(modes, vt, Statistics.BOSE, 5.0),
                                    Statistics.BOSE, 5.0)
        lp = Lprime(basis, coeffs)
        ham = hamiltonian(basis, modes, vt)
        runs.append((g, lp, ham, coeffs.tau0))

    # off-diagonal bilinears have no coarse window here: the phase time
    # hbar/|W_h - W_k| sits far below 5*tau0, so diagonals are the tested set
    w = mode_energies(modes)
    tau0_strong = runs[0][3]
    for h in range(4):
        for k in range(4):
            if h != k:
                with pytest.raises(WindowError):
                    coarse_window(tau0_strong, w[h], w[k])

    lo = max(5.0 * r[3] for r in runs)
    hi = min(50.0 * r[3] for r in runs)
    assert lo < hi
    times = np.exp(np.linspace(np.log(lo), np.log(hi), 5))
    decreasing = True
    exponents = []
    mids_all = []
    for h in range(4):
        mids = []
        for g, lp, ham, tau0 in runs:
            window = CoarseWindow(tau0, float("inf"), times)
            unit = np.zeros((4, 4))
            unit[h, h] = 1.0
            rep = coarse_grained_check(basis, ham, h, h, window, lp.apply(unit))
            mids.append(float(rep.deltas[2]))
        decreasing = decreasing and all(
            mids[i + 1] < mids[i] for i in range(len(mids) - 1))
        exponents.append(scaling_exponent(couplings, mids))
        mids_all.append(mids)
    exp_txt = ",".join(f"{e:+.3f}" for e in exponents)
    announce(capsys, 3, "coarse-grained coupling scaling", decreasing,
             f"delta decreases under g -> g/2 for all 4 diagonal bilinears; "
             f"fitted exponents [{exp_txt}] reported, below the order-1 "
             f"expectation at this scale")
    assert decreasing, f"mid-window discrepancies not decreasing: {mids_all}"
    assert all(e > 0.0 for e in exponents)


def test_acceptance_4_positivity(capsys):
    modes = modes_from_numbers(GEOM, [(1,), (2,), (3,)])
    basis = build_basis(3, 2, Statistics.BOSE)
    vt = pair_matrix_from_tensor(contact_tensor(modes, Contact(1.0), GEOM), Statistics.BOSE)
    coeffs = build_coefficients(modes, onshell_tmatrix(modes, vt, Statistics.BOSE, 10.0),
                                Statistics.BOSE, 2.0)
    lp = Lprime(basis, coeffs)
    report = positivity_check(lp, n_samples=1000, tau_max=1e-3, seed=11)
    witness = negative_tau_witness(lp)
    passed = (report.passed and report.n_samples == 1000
              and report.min_real > -1e-10 and report.max_imag <= 1e-10
              and 0.0 < report.worst_tau <= 1e-3
              and witness.tau < 0.0 and witness.q_value < 0.0)
    announce(capsys, 4, "semigroup positivity", passed,
             f"min Re Q={report.min_real:.2e} over {report.n_samples} "
             f"families, max |Im Q|={report.max_imag:.1e}, "
             f"negative-time witness Q={witness.q_value:.2e}")
    assert report.passed
    assert report.min_real > -1e-10
    assert report.max_imag <= 1e-10
    assert witness.q_value < 0.0


def test_acceptance_5_conservation(capsys):
    modes = modes_from_numbers(GEOM, [(1,), (2,), (3,)])
    basis = build_basis(3, 2, Statistics.BOSE)
    vt = pair_matrix_from_tensor(contact_tensor(modes, Contact(1.0), GEOM), Statistics.BOSE)
    coeffs = build_coefficients(modes, onshell_tmatrix(modes, vt, Statistics.BOSE, 10.0),
                                Statistics.BOSE, 2.0)
    mass_residual = conservation_report(Lprime(basis, coeffs)).mass_residual

    numbers = (1, 4, 7, 8)
    rmodes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    rbasis = build_basis(4, 2, Statistics.BOSE)
    rvt = pair_matrix_from_tensor(potential_tensor(rmodes, Gaussian(1.0, 0.25), GEOM, order=32),
                    Statistics.BOSE)
    t_on = onshell_tmatrix(rmodes, rvt, Statistics.BOSE, 5.0)
    collisions = []
    for delta in (48.0, 24.0, 12.0):
        rcoeffs = build_coefficients(rmodes, t_on, Statistics.BOSE, delta)
        collisions.append(conservation_report(Lprime(rbasis, rcoeffs)).energy_collision)
    ratios = [collisions[i] / collisions[i + 1] for i in range(2)]
    passed = mass_residual <= 1e-10 and all(r >= 2.0 for r in ratios)
    announce(capsys, 5, "mass and energy conservation", passed,
             f"||L'(M)||={mass_residual:.1e}; collision energy residual "
             f"shrinks x{ratios[0]:.1f} then x{ratios[1]:.1f} per halving "
             f"of the smearing width")
    assert mass_residual <= 1e-10
    assert ratios[0] >= 2.0
    assert ratios[1] >= 2.0


def test_acceptance_6_maxent_round_trip(capsys):
    modes = modes_from_numbers(GEOM, [(1,), (2,), (3,)])
    basis = build_basis(3, 2, Statistics.BOSE)
    grid = CellGrid(GEOM, (2,))
    obs = cell_observables(basis, modes, grid, Contact(0.8))
    true_fields = LagrangeFields.from_beta_mu(np.array([1.1, 0.9]), np.array([0.2, -0.1]))
    targets = ConstraintSet(obs.values(gibbs_state(obs, true_fields)))
    result = maxent_fit(obs, targets)

    y_true = true_fields.multipliers
    y_fit = result.fields.multipliers
    recovery = float(np.max(np.abs(y_fit - y_true)) / np.max(np.abs(y_true)))
    t_vec = targets.values
    ops = obs.blocks.dense()
    values = np.array([expectation(result.state, op) for op in obs.blocks])
    residual = float(np.max(np.abs(values - t_vec) / np.maximum(1.0, np.abs(t_vec))))

    s_star = entropy(result.state)
    rng = np.random.default_rng(5)
    margin = np.inf
    stayed = 0.0
    for _ in range(20):
        w_prime = constrained_perturbation(result.state, obs.blocks, rng, scale=1e-5)
        vals = np.array([float(np.trace(w_prime @ op).real) for op in ops])
        stayed = max(stayed, float(np.max(np.abs(vals - t_vec)
                                          / np.maximum(1.0, np.abs(t_vec)))))
        margin = min(margin, s_star - weight_entropy(w_prime))

    passed = (result.iterations <= 50 and recovery <= 1e-6
              and residual <= 1e-8 and stayed <= 1e-8 and margin >= -1e-9)
    announce(capsys, 6, "maximum-entropy round trip", passed,
             f"{result.iterations} Newton iterations, field recovery "
             f"{recovery:.1e}, residual {residual:.1e}, entropy margin "
             f"{margin:.1e} over 20 perturbations")
    assert result.iterations <= 50
    assert recovery <= 1e-6
    assert residual <= 1e-8
    assert stayed <= 1e-8
    assert margin >= -1e-9


def test_acceptance_7_closure_dynamics(capsys):
    sys2 = make_system(g=0.1, delta=2.0, beta=(0.22, 0.18))
    dt = 5.05 * sys2.tau0
    traj = integrate(sys2, t_span=10.0 * dt, dt=dt)
    mass_drift = float(np.max(np.abs(traj.mass_total / traj.mass_total[0] - 1.0)))
    beta = np.array([f.beta for f in traj.fields])
    gaps = beta[:, 0] - beta[:, 1]
    monotone = bool(np.all(np.diff(gaps) < 0.0))
    entropy_ok = bool(np.all(np.diff(traj.entropies) >= -1e-9))

    b_uniform = np.linalg.norm(
        closure_rhs(make_system(beta=(0.2, 0.2))).moment_rates)
    b_step = np.linalg.norm(
        closure_rhs(make_system(beta=(0.21, 0.19))).moment_rates)
    stationarity = float(b_uniform / b_step)

    sys_rk = make_system(g=0.2, delta=2.0, beta=(0.22, 0.18))
    base = 20.2 * sys_rk.tau0
    end = {}
    for div in (1, 2, 4):
        end[div] = integrate(sys_rk, t_span=4.0 * base, dt=base / div).moments[-1]
    rk4_factor = float(np.linalg.norm(end[1] - end[4])
                       / np.linalg.norm(end[2] - end[4]))

    passed = (mass_drift <= 1e-8 and stationarity <= 1e-2
              and rk4_factor >= 8.0 and monotone and entropy_ok)
    announce(capsys, 7, "closure dynamics", passed,
             f"mass drift={mass_drift:.1e}, uniform/step rate={stationarity:.1e}, "
             f"rk4 factor={rk4_factor:.1f}, contrast monotone={monotone}, "
             f"entropy non-decreasing={entropy_ok}")
    assert mass_drift <= 1e-8
    assert stationarity <= 1e-2
    assert rk4_factor >= 8.0
    assert monotone
    assert entropy_ok


def test_acceptance_8_microsystem_reduction(capsys):
    rng = np.random.default_rng(29)
    worst_trace = 0.0
    worst_charge = 0.0
    for _ in range(100):
        q_dim = int(rng.integers(1, 5))
        macro_dim = int(rng.integers(3, 9))
        mset = MicroModeSet(q_dim)
        m = rng.standard_normal((macro_dim, macro_dim)) \
            + 1j * rng.standard_normal((macro_dim, macro_dim))
        macro = m @ m.conj().T
        macro /= np.trace(macro).real
        r = rng.standard_normal((q_dim, q_dim)) \
            + 1j * rng.standard_normal((q_dim, q_dim))
        rho = r @ r.conj().T
        rho /= np.trace(rho).real
        state = embed_joint(macro, rho, mset)
        a = rng.standard_normal((q_dim, q_dim)) \
            + 1j * rng.standard_normal((q_dim, q_dim))
        lhs = complex(np.trace(one_body_micro(a, mset, macro_dim) @ state.weight))
        rhs = complex(np.trace(a @ rho))
        got, joint_trace = reduce_expectation(a, state)
        worst_trace = max(worst_trace, abs(lhs - rhs), abs(got - rhs), abs(joint_trace - rhs))
        q_op = one_body_micro(np.eye(q_dim), mset, macro_dim)
        worst_charge = max(worst_charge,
                           float(np.max(np.abs(q_op @ state.weight - state.weight))))
    passed = worst_trace <= 1e-12 and worst_charge <= 1e-12
    announce(capsys, 8, "microsystem reduction", passed,
             f"trace identity defect={worst_trace:.1e}, charge support "
             f"defect={worst_charge:.1e} over 100 instances")
    assert worst_trace <= 1e-12
    assert worst_charge <= 1e-12


def test_acceptance_9_determinism(capsys, tmp_path):
    runner = CliRunner()
    args = ["evolve", "--quiet", "--set", "evolve.steps=4", "--seed", "3"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, args + ["--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out)
    report_same = (outs[0] / "report.json").read_bytes() \
        == (outs[1] / "report.json").read_bytes()
    table_same = (outs[0] / "trajectory.csv").read_bytes() \
        == (outs[1] / "trajectory.csv").read_bytes()
    passed = report_same and table_same
    announce(capsys, 9, "determinism", passed,
             f"report bit-identical={report_same}, "
             f"trajectory bit-identical={table_same}")
    assert report_same
    assert table_same
