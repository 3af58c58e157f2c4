import importlib.util
import math
from pathlib import Path
from sys import modules as loaded_modules
from types import SimpleNamespace

import numpy as np
import pytest

from boxgas import cli, fieldmodel, fock, generator, gibbs, kinetics
from boxgas.config import load_config
from boxgas.fieldmodel import (
    HBAR,
    MASS,
    BoxGeometry,
    CellGrid,
    Contact,
    Gaussian,
    Zero,
    box_modes,
    cell_overlaps,
    contact_tensor,
    free_hamiltonian,
    modes_from_numbers,
    potential_tensor,
    whole_box_grid,
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
    smearing_kernel,
)
from boxgas.gibbs import (
    ConstraintSet,
    FitError,
    LagrangeFields,
    cell_observables,
    gibbs_from_operator,
    gibbs_state,
    maxent_fit,
    real_values,
)
from boxgas.kinetics import (
    ClosureSystem,
    StateTrajectory,
    closure_rhs,
    integrate,
    trajectory_table,
)
from boxgas.matrixutil import frob
from boxgas.scattering import onshell_tmatrix, pair_basis, pair_energies
from dense_oracles import (
    dense_parts,
    dense_two_body,
    refit_integrate,
    split_blocks,
    state_index,
    tensor_coefficients,
)

ROOT = Path(__file__).resolve().parents[1]
GEOM = BoxGeometry((1.0,))
UNIT = 0.5 * math.pi ** 2


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    loaded_modules.setdefault(spec.name, module)  # its dataclasses resolve through it
    spec.loader.exec_module(module)  # stdlib imports only
    return module.WORKLOADS


def make_system(**kwargs):
    """The closure of `solved_system`, without its T."""
    return solved_system(**kwargs)[0]


def solved_system(numbers=(1, 2, 3), cells=2, g=0.1, delta=2.0,
                  beta=(0.22, 0.18), mu=None, eps=10.0, n_max=2,
                  statistics=Statistics.BOSE, sigma=None):
    """Closure on 1D modes, contact coupling g or a gaussian of range sigma,
    and the on-shell T that its coefficients were built from."""
    modes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    basis = build_basis(len(numbers), n_max, statistics)
    grid = whole_box_grid(GEOM) if cells == 1 else CellGrid(GEOM, (cells,))
    if sigma is None:
        vt = contact_tensor(modes, Contact(g), GEOM)
    else:
        vt = potential_tensor(modes, Gaussian(g, sigma), GEOM)
    t_on = onshell_tmatrix(modes, pair_matrix_from_tensor(vt, statistics), statistics, eps)
    coeffs = build_coefficients(modes, t_on, statistics, delta)
    mu = np.zeros(cells) if mu is None else np.asarray(mu, float)
    fields = LagrangeFields.from_beta_mu(np.asarray(beta, float), mu)
    return ClosureSystem(basis, modes, grid, coeffs, fields), t_on


def free_system(cells=1, beta=(0.3,), numbers=(1, 2, 3), n_max=2):
    modes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    basis = build_basis(len(numbers), n_max, Statistics.BOSE)
    grid = whole_box_grid(GEOM) if cells == 1 else CellGrid(GEOM, (cells,))
    n_pairs = len(pair_basis(len(numbers), Statistics.BOSE))
    coeffs = build_coefficients(modes, np.zeros((n_pairs, n_pairs)),
                                Statistics.BOSE, delta=1.0)
    fields = LagrangeFields.from_beta_mu(np.asarray(beta, float), np.zeros(cells))
    return ClosureSystem(basis, modes, grid, coeffs, fields)


def oracle_bilinear_image(basis, modes, coeffs, t_on, h, k, hbar=HBAR):
    """L' on a_h^dag a_k assembled from scratch with explicit ladder loops,
    from the coefficient tensors of the on-shell T."""
    n = basis.n_modes
    ann = list(ladder_ops(basis))
    cre = [a.conj().T for a in ann]
    x = cre[h] @ ann[k]
    veff, jump = tensor_coefficients(coeffs, t_on)
    heff = free_hamiltonian(basis, modes).dense() + dense_two_body(basis, veff)
    stream = (1j / hbar) * (heff @ x - x @ heff)
    jumps = {}
    for p in range(n):
        for q in range(n):
            op = np.zeros_like(x, dtype=complex)
            for f in range(n):
                for g2 in range(n):
                    if jump[p, q, f, g2] != 0.0:
                        op += jump[p, q, f, g2] * (ann[f] @ ann[g2])
            jumps[p, q] = op
    gamma = 0.25 * sum(jumps[p, q].conj().T @ jumps[p, q]
                       for p in range(n) for q in range(n))
    loss = (-1.0 / hbar) * (gamma @ x + x @ gamma - 2.0 * cre[h] @ gamma @ ann[k])
    gain = (1.0 / hbar) * sum(jumps[h, l].conj().T @ jumps[k, l] for l in range(n))
    return stream + loss + gain


def gain_loss_report(sys, t_on, weight=None, kernels=None):
    """Streaming, loss and gain rates of one-body kernels (default: the moment
    set), read against a weight over the number sectors (default: the state of
    `sys.fields`): the Fock-space cross-check of the kernel rates of `closure_rhs`,
    from the dense images of `dense_parts` of the on-shell T on the system's basis."""
    if weight is None:
        k = np.tensordot(sys.fields.multipliers, sys.kernels, axes=1)
        weight = gibbs_from_operator(one_body_operator(sys.basis, k)).weight_blocks
    images = np.array([dense_parts(sys.basis, sys.coeffs, t_on, kernel)
                       for kernel in (sys.kernels if kernels is None else kernels)])
    traces = np.einsum("ij,mpji->pm", weight.dense(), images)
    streaming, loss, gain = (real_values(rates, f"{key} rate")
                             for key, rates in zip(("streaming", "loss", "gain"), traces))
    return SimpleNamespace(streaming=streaming, loss=loss, gain=gain,
                           total=streaming + loss + gain)


# ---------------------------------------------------------------------------
# system construction and rhs


def test_system_validation():
    sys_ok = make_system()
    assert sys_ok.n_cells == 2 and len(sys_ok.kernels) == len(sys_ok.labels) == 4
    modes = sys_ok.modes
    with pytest.raises(ValueError, match="cell count"):
        ClosureSystem(sys_ok.basis, modes, sys_ok.grid, sys_ok.coeffs,
                      LagrangeFields.from_beta_mu(np.array([0.2]), np.zeros(1)))
    other = build_basis(3, 2, Statistics.FERMI)
    with pytest.raises(ValueError, match="does not match"):
        ClosureSystem(other, modes, sys_ok.grid, sys_ok.coeffs, sys_ok.fields)


def test_free_gas_single_cell_exactly_stationary():
    sys = free_system()
    state = sys.state_for(sys.fields)
    rep = closure_rhs(sys, state)
    assert np.max(np.abs(rep.moment_rates)) <= 1e-14
    # the multiplier rates -chi^-1 b that the family's chi and the report's b fix
    chi = sys.family.chi(state)
    assert np.max(np.abs(np.linalg.solve(chi, -rep.moment_rates))) <= 1e-12
    traj = integrate(sys, t_span=2.0, dt=0.5)
    multipliers = np.array([f.multipliers for f in traj.fields])
    drift = np.max(np.abs(multipliers - multipliers[0]))
    assert drift <= 1e-10
    assert np.max(np.abs(traj.mass_total - traj.mass_total[0])) <= 1e-12


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_rhs_matches_independent_trace_oracle(statistics):
    # a contact tensor vanishes for spinless fermions, so they get a range;
    # n_max 3 keeps the loss term a†_h Gamma a_k, which vanishes at n_max 2
    if statistics is Statistics.BOSE:
        sys, t_on = solved_system()
    else:
        sys, t_on = solved_system(statistics=statistics, g=1.0, sigma=0.25, delta=5.0,
                                  n_max=3)
        assert frob(sys.coeffs.jump) > 0.0
    blocks = cell_observables(sys.basis, sys.modes, sys.grid, Zero())
    w = gibbs_state(blocks, sys.fields).weight
    images = {}
    n = sys.basis.n_modes
    for h in range(n):
        for k in range(n):
            images[h, k] = oracle_bilinear_image(sys.basis, sys.modes, sys.coeffs, t_on, h, k)
    want = []
    for cell in range(2):
        s_cell, g_cell, _ = cell_overlaps(sys.modes, sys.grid, cell)
        kernel = (HBAR ** 2 / (2.0 * MASS)) * g_cell
        rate = sum(kernel[h, k] * np.trace(images[h, k] @ w)
                   for h in range(n) for k in range(n))
        want.append(rate)
    for cell in range(2):
        s_cell, _, _ = cell_overlaps(sys.modes, sys.grid, cell)
        kernel = MASS * s_cell
        rate = sum(kernel[h, k] * np.trace(images[h, k] @ w)
                   for h in range(n) for k in range(n))
        want.append(rate)
    want = np.array([x.real for x in want])
    rep = closure_rhs(sys)
    assert np.max(np.abs(rep.moment_rates - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def test_mass_sector_rate_sums_to_zero():
    sys = make_system(g=0.4, delta=2.0)
    rep = closure_rhs(sys)
    n = sys.n_cells
    scale = max(np.max(np.abs(rep.moment_rates)), 1e-30)
    assert abs(rep.moment_rates[n:].sum()) <= 1e-12 * scale


@pytest.mark.parametrize("statistics", tuple(Statistics))
def test_closure_system_builds_no_basis_and_no_generator(monkeypatch, statistics):
    # the rate kernels come from pair-space algebra alone: building the
    # closure makes no auxiliary Fock basis and no Lprime
    sys = make_system(statistics=statistics, g=1.0, sigma=0.25, delta=5.0)
    calls = {"build_basis": 0, "Lprime": 0}
    for owner, name in ((fock, "build_basis"), (generator, "Lprime")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (cli, fieldmodel, fock, generator, gibbs, kinetics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    # the counters see a call made through the patched names
    generator.Lprime(fock.build_basis(3, 1, statistics), sys.coeffs)
    assert calls == {"build_basis": 1, "Lprime": 1}
    rebuilt = kinetics.ClosureSystem(sys.basis, sys.modes, sys.grid, sys.coeffs, sys.fields)
    assert calls == {"build_basis": 1, "Lprime": 1}
    assert rebuilt.rate_kernels.two_body.shape == (4, len(sys.coeffs.jump) ** 2)


def test_singular_response_names_combination():
    # one mode: cell energy and cell mass are proportional observables
    modes = modes_from_numbers(GEOM, [(1,)])
    basis = build_basis(1, 3, Statistics.BOSE)
    coeffs = build_coefficients(modes, np.zeros((1, 1)), Statistics.BOSE, delta=1.0)
    fields = LagrangeFields.from_beta_mu(np.array([0.4]), np.zeros(1))
    sys = ClosureSystem(basis, modes, whole_box_grid(GEOM), coeffs, fields)
    with pytest.raises(ValueError, match=r"singular response matrix.*energy\[0\]"):
        closure_rhs(sys)


def test_uniform_point_is_relatively_stationary():
    sys_uniform = make_system(beta=(0.2, 0.2))
    sys_step = make_system(beta=(0.21, 0.19))
    b_uniform = np.linalg.norm(closure_rhs(sys_uniform).moment_rates)
    b_step = np.linalg.norm(closure_rhs(sys_step).moment_rates)
    assert b_uniform <= 1e-2 * b_step


# ---------------------------------------------------------------------------
# integration


def test_integrate_step_validation():
    sys = make_system()
    floor = 5.0 * sys.tau0
    with pytest.raises(ValueError, match="coarse-grained floor"):
        integrate(sys, t_span=100.0 * floor, dt=0.5 * floor)
    with pytest.raises(ValueError, match="four steps"):
        integrate(sys, t_span=8.0 * floor, dt=4.0 * floor)
    with pytest.raises(ValueError, match="positive"):
        integrate(sys, t_span=-1.0, dt=1.0)


def test_integrate_halves_step_on_fit_error(monkeypatch):
    sys = make_system()
    dt = 20.2 * sys.tau0
    real_step = kinetics._rk4_step
    steps = []

    def flaky_step(sys_, fields, moments, step):
        steps.append(step)
        if len(steps) == 1:
            raise FitError("synthetic fit failure")
        return real_step(sys_, fields, moments, step)

    monkeypatch.setattr(kinetics, "_rk4_step", flaky_step)
    traj = integrate(sys, t_span=4.0 * dt, dt=dt)
    assert steps[:2] == [dt, 0.5 * dt]
    assert traj.times[1] == pytest.approx(0.5 * dt, rel=1e-15)


def test_integrate_propagates_non_fit_errors(monkeypatch):
    sys = make_system()
    dt = 20.2 * sys.tau0
    calls = []

    def broken_step(sys_, fields, moments, step):
        calls.append(step)
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(kinetics, "_rk4_step", broken_step)
    with pytest.raises(ValueError, match="could not be broadcast") as info:
        integrate(sys, t_span=4.0 * dt, dt=dt)
    assert calls == [dt]
    assert not isinstance(info.value, FitError)


def always_failing_step(calls):
    """An `_rk4_step` whose fit always fails; past 50 calls it raises a plain
    error, so a retry loop without its abort fails a test instead of hanging it."""
    def step(sys_, start, moments, size):
        calls.append(size)
        if len(calls) > 50:
            raise RuntimeError("integrate kept halving past every abort")
        raise FitError("synthetic fit failure")
    return step


def test_integrate_aborts_where_a_halving_would_cross_the_floor(monkeypatch):
    # 20.2 tau0 halves to 10.1 and 5.05 tau0; the third attempt's half is
    # below 5 tau0
    sys = make_system()
    dt = 20.2 * sys.tau0
    calls = []
    monkeypatch.setattr(kinetics, "_rk4_step", always_failing_step(calls))
    with pytest.raises(ValueError, match=r"^step rejection at t = 0 cannot halve below the "
                       r"coarse-grained floor .*: synthetic fit failure$") as info:
        integrate(sys, t_span=4.0 * dt, dt=dt)
    assert type(info.value) is ValueError and isinstance(info.value.__cause__, FitError)
    assert calls == [dt, 0.5 * dt, 0.25 * dt]


def test_integrate_aborts_a_rejection_cascade(monkeypatch):
    # at zero coupling tau0 is infinite and the floor is 0, so only the
    # halving count stops the retries: the 11th attempt is the last
    sys = free_system()
    assert not math.isfinite(sys.tau0)
    calls = []
    monkeypatch.setattr(kinetics, "_rk4_step", always_failing_step(calls))
    with pytest.raises(ValueError, match=r"^step rejection cascade at t = 0 \(more than 10 "
                       r"halvings\): synthetic fit failure$") as info:
        integrate(sys, t_span=2.0, dt=0.5)
    assert type(info.value) is ValueError and isinstance(info.value.__cause__, FitError)
    assert calls == [0.5 / 2 ** i for i in range(11)]


def test_interacting_equilibrium_stays_fixed():
    # single cell, resonant-only smearing: collision residual vanishes exactly
    sys = make_system(cells=1, beta=(0.2,), g=0.1, delta=2.0)
    rep = closure_rhs(sys)
    assert np.max(np.abs(rep.moment_rates)) <= 1e-14
    dt = 5.05 * sys.tau0
    traj = integrate(sys, t_span=4.2 * dt, dt=dt)
    multipliers = np.array([f.multipliers for f in traj.fields])
    assert np.max(np.abs(multipliers - multipliers[0])) <= 1e-6


def test_two_cell_relaxation_canonical():
    sys, t_on = solved_system(g=0.1, delta=2.0, beta=(0.22, 0.18))
    dt = 5.05 * sys.tau0
    traj = integrate(sys, t_span=10.0 * dt, dt=dt)
    assert traj.n_steps == 10
    beta = np.array([f.beta for f in traj.fields])
    gaps = beta[:, 0] - beta[:, 1]
    assert np.all(np.diff(gaps) < 0.0)
    assert gaps[-1] < gaps[0]
    assert np.all(np.diff(traj.entropies) >= -1e-9)
    mass_drift = np.max(np.abs(traj.mass_total / traj.mass_total[0] - 1.0))
    assert mass_drift <= 1e-8
    # collisions conserve kinetic energy on resonant-only smearing; what
    # drifts is the mean-field exchange carried by the streaming term
    rep = gain_loss_report(sys, t_on)
    n = sys.n_cells
    coll_sum = (rep.loss[:n] + rep.gain[:n]).sum()
    assert abs(coll_sum) <= 1e-12 * max(np.max(np.abs(rep.loss)), 1.0)
    energy_drift = np.max(np.abs(traj.energy_total / traj.energy_total[0] - 1.0))
    assert energy_drift <= 1e-2
    assert np.max(traj.fit_residuals) <= 1e-8
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[-1] == pytest.approx(10.0 * dt)


def config_run(path=None, overrides=()):
    """The closure system, t_span and dt that `boxgas evolve` runs on a config."""
    cfg = load_config(path, overrides)
    ctx = cli._build_context(cfg)
    sys = ClosureSystem(ctx.basis, ctx.modes, ctx.grid, cli._coefficients(ctx), ctx.fields)
    dt = cfg["evolve"]["dt_factor"] * sys.tau0
    return sys, cfg["evolve"]["steps"] * dt, dt


@pytest.mark.parametrize("case", ["two_cell_relaxation", "relax_cells", "relax_dense"])
def test_integrate_matches_every_stage_refit_exactly(case):
    # the step-end fit meets the moments that the next step's first-stage
    # re-fit would meet again, at iteration 0 on these configs: carrying it
    # forward changes no bit of the trajectory table
    if case == "two_cell_relaxation":
        run = config_run(str(ROOT / "configs" / f"{case}.yaml"))
    else:
        run = config_run(overrides=load_workloads()[case].overrides)
    header, got = trajectory_table(integrate(*run))
    _, want = trajectory_table(refit_integrate(*run))
    assert np.array_equal(np.array(got), np.array(want))


def pair3d_two_cell_system():
    geom = BoxGeometry((1.0, 1.07, 1.13))
    modes = box_modes(geom, 6)
    basis = build_basis(len(modes), 2, Statistics.BOSE)
    v_pair = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(0.8, 0.25), geom, order=8),
                                     Statistics.BOSE)
    coeffs = build_coefficients(modes, onshell_tmatrix(modes, v_pair, Statistics.BOSE, 10.0),
                                Statistics.BOSE, 2.0)
    fields = LagrangeFields.from_beta_mu(np.array([0.22, 0.18]), np.zeros(2))
    return ClosureSystem(basis, modes, CellGrid(geom, (2, 1, 1)), coeffs, fields)


@pytest.mark.parametrize("case", ["fermi", "pair3d_two_cell"])
def test_integrate_matches_every_stage_refit_within_bound(case):
    # the bound is 1e-10 of each column's largest magnitude; fit_residual,
    # the Newton residual at each step-end fit, is left out
    if case == "fermi":
        sys = make_system(numbers=(1, 2, 3, 4), statistics=Statistics.FERMI, g=1.0,
                          sigma=0.25, delta=5.0, n_max=3)
    else:
        sys = pair3d_two_cell_system()
    dt = 5.05 * sys.tau0
    header, got = trajectory_table(integrate(sys, t_span=6.0 * dt, dt=dt))
    _, want = trajectory_table(refit_integrate(sys, t_span=6.0 * dt, dt=dt))
    got, want = np.array(got), np.array(want)
    assert len(want) == 7
    keep = [i for i, name in enumerate(header) if name != "fit_residual"]
    assert np.max(np.abs(want[1:, keep] - want[0, keep])) > 0.0  # the run moves
    scale = np.max(np.abs(want[:, keep]), axis=0)
    assert np.all(np.abs(got[:, keep] - want[:, keep]) <= 1e-10 * scale)


def test_each_accepted_step_makes_four_fits(monkeypatch):
    sys = make_system()
    dt = 20.2 * sys.tau0
    fits, steps = [], []
    real_fit, real_step = kinetics.maxent_fit, kinetics._rk4_step

    def counted_fit(*args, **kwargs):
        fits.append(kwargs["warm"])
        return real_fit(*args, **kwargs)

    def flaky_step(sys_, start, moments, step):
        steps.append(step)
        if len(steps) == 2:
            raise FitError("synthetic fit failure")
        return real_step(sys_, start, moments, step)

    monkeypatch.setattr(kinetics, "maxent_fit", counted_fit)
    monkeypatch.setattr(kinetics, "_rk4_step", flaky_step)
    traj = integrate(sys, t_span=4.0 * dt, dt=dt)
    assert len(steps) == traj.n_steps + 1
    assert len(fits) == 4 * traj.n_steps
    # every fit is warm-started from a state, never from bare fields
    assert all(isinstance(init, gibbs.GibbsState) for init in fits)


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_chi_is_formed_once_per_state(statistics, monkeypatch):
    # closure_rhs reads chi at each step's state and every Newton step reads
    # it at the state it steps from; each read forms chi only at a state that
    # does not hold it yet, so the stage-2 fit, which starts at the state
    # closure_rhs read, forms none there
    if statistics is Statistics.BOSE:
        sys = make_system()
    else:
        sys = make_system(statistics=statistics, g=1.0, sigma=0.25, delta=5.0, n_max=3)
    formed, rhs_reads, fits = [], [], []
    real_chi, real_rhs, real_fit = gibbs.CellKernels._chi, kinetics.closure_rhs, kinetics.maxent_fit

    def counted_chi(family, state):
        formed.append(state)
        return real_chi(family, state)

    def counted_rhs(sys_, state):
        held, before = "chi" in vars(state), len(formed)
        rhs_reads.append((state, held))
        report = real_rhs(sys_, state)
        assert len(formed) - before == 1 - held
        return report

    def counted_fit(*args, **kwargs):
        warm, before = kwargs["warm"], len(formed)
        held = "chi" in vars(warm)
        fit = real_fit(*args, **kwargs)
        fits.append((warm, held, fit, formed[before:]))
        return fit

    monkeypatch.setattr(gibbs.CellKernels, "_chi", counted_chi)
    monkeypatch.setattr(kinetics, "closure_rhs", counted_rhs)
    monkeypatch.setattr(kinetics, "maxent_fit", counted_fit)
    dt = 20.2 * sys.tau0
    traj = integrate(sys, t_span=4.0 * dt, dt=dt)
    assert len(rhs_reads) == traj.n_steps + 1 and len(fits) == 4 * traj.n_steps
    assert len({id(state) for state in formed}) == len(formed)
    steps = 0
    for warm, held, fit, new in fits:
        assert fit.iterations >= 1
        assert len(new) == fit.iterations - held
        steps += fit.iterations
    assert len(formed) == len(rhs_reads) + steps - sum(held for _, held in rhs_reads) - sum(
        held for _, held, _, _ in fits)
    rhs_states = [state for state, _ in rhs_reads]
    stage2 = [(warm, held, new) for warm, held, _, new in fits[::4]]
    for (warm, held, new), state in zip(stage2, rhs_states):
        assert warm is state and held
        assert all(s is not warm for s in new)


def test_rk4_endpoint_convergence():
    sys = make_system(g=0.2, delta=2.0, beta=(0.22, 0.18))
    base = 20.2 * sys.tau0
    span = 4.0 * base
    end = {}
    for div in (1, 2, 4):
        traj = integrate(sys, t_span=span, dt=base / div)
        end[div] = traj.moments[-1]
    err_coarse = np.linalg.norm(end[1] - end[4])
    err_fine = np.linalg.norm(end[2] - end[4])
    assert err_fine > 0.0
    assert err_coarse / err_fine >= 8.0


def test_energy_rate_scales_down_with_delta():
    numbers = (1, 4, 7, 8)
    modes = modes_from_numbers(GEOM, [(k,) for k in numbers])
    basis = build_basis(4, 2, Statistics.BOSE)
    vt = pair_matrix_from_tensor(potential_tensor(modes, Gaussian(1.0, 0.25), GEOM, order=32),
                                 Statistics.BOSE)
    fields = LagrangeFields.from_beta_mu(np.array([0.005]), np.zeros(1))
    rates = []
    for delta in (48.0, 24.0, 12.0):
        coeffs = build_coefficients(modes, onshell_tmatrix(modes, vt, Statistics.BOSE, 5.0),
                                    Statistics.BOSE, delta)
        sys = ClosureSystem(basis, modes, whole_box_grid(GEOM), coeffs, fields)
        rep = closure_rhs(sys)
        assert abs(rep.moment_rates[1]) <= 1e-14  # mass rate stays exact
        rates.append(abs(rep.moment_rates[0]))
    assert rates[0] >= 2.0 * rates[1]
    assert rates[1] >= 2.0 * rates[2]


# ---------------------------------------------------------------------------
# gain/loss decomposition


def test_gain_loss_free_gas_collisionless():
    sys = free_system()
    rep = gain_loss_report(sys, np.zeros_like(sys.coeffs.jump))
    assert np.max(np.abs(rep.loss)) == 0.0
    assert np.max(np.abs(rep.gain)) == 0.0
    assert np.allclose(rep.total, rep.streaming)


def test_gain_loss_mass_structure():
    sys, t_on = solved_system(g=0.4)
    rep = gain_loss_report(sys, t_on)
    n = sys.n_cells
    scale = max(np.max(np.abs(rep.loss)), np.max(np.abs(rep.streaming)), 1e-30)
    # streaming and collisions both shuttle mass between cells but create
    # none in total
    assert abs(rep.streaming[n:].sum()) <= 1e-12 * scale
    assert abs(rep.loss[n:].sum() + rep.gain[n:].sum()) <= 1e-12 * scale
    want = closure_rhs(sys).moment_rates
    assert np.max(np.abs(rep.total - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))

    total = gain_loss_report(sys, t_on, kernels=[MASS * np.eye(3)])
    assert abs(total.loss[0] + total.gain[0]) <= 1e-12 * max(abs(total.loss[0]), 1.0)
    assert abs(total.streaming[0]) <= 1e-12 * scale


def test_gain_loss_overpopulated_channel():
    sys, t_on = solved_system(cells=1, beta=(0.2,), g=1.0, delta=12.0)
    basis = sys.basis
    vac = np.zeros(basis.dim)
    vac[state_index(basis, (0, 0, 0))] = 1.0
    a = ladder_ops(basis)
    psi = a[0].conj().T @ a[1].conj().T @ vac
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    # the two-particle pure state, as a weight over the number sectors
    w = split_blocks(np.outer(psi, psi.conj()), basis.sectors, ["w"])
    number_0 = np.diag([1.0, 0.0, 0.0])
    rep = gain_loss_report(sys, t_on, weight=w, kernels=[number_0])
    assert rep.loss[0] < 0.0
    assert abs(rep.loss[0]) > abs(rep.gain[0])

    mass_rep = gain_loss_report(sys, t_on, weight=w, kernels=[MASS * np.eye(3)])
    pairs = pair_basis(3, Statistics.BOSE)
    energies = pair_energies(sys.modes, pairs)
    q = pairs.index((0, 1))
    kappa = np.sqrt((2.0 * math.pi / HBAR)
                    * smearing_kernel(energies - energies[q], sys.coeffs.delta))
    want_loss = -(2.0 * MASS / HBAR) * float(
        np.sum(np.abs(kappa * t_on[:, q]) ** 2))
    assert mass_rep.loss[0] == pytest.approx(want_loss, rel=1e-8)
    assert mass_rep.gain[0] == pytest.approx(-want_loss, rel=1e-8)


# ---------------------------------------------------------------------------
# trajectory table


def test_trajectory_table_layout():
    sys = make_system(g=0.1)
    dt = 5.05 * sys.tau0
    traj = integrate(sys, t_span=4.2 * dt, dt=dt)
    header, rows = trajectory_table(traj)
    assert header[0] == "time"
    assert len(header) == 1 + 2 * len(sys.labels) + 6
    assert len(rows) == traj.times.size
    assert all(len(r) == len(header) for r in rows)
    times = [r[0] for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_dense_ladder_stack_is_never_built(statistics, monkeypatch):
    # dims 84 (Bose, 6 modes at n_max 3) and 93 (Fermi, 8 modes); the dense
    # (n, dim, dim) ladder stack is built only by ladder_ops, and the witness
    # maps its kernel through the creator index maps, with no SVD at all
    calls, svd_shapes = [], []
    svd = np.linalg.svd
    monkeypatch.setattr(generator, "ladder_ops",
                        lambda basis: calls.append(basis) or ladder_ops(basis))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *rest, **kw: svd_shapes.append(a.shape) or svd(a, *rest, **kw))
    if statistics is Statistics.BOSE:
        sys = make_system(numbers=tuple(range(1, 7)), n_max=3)
    else:
        sys = make_system(numbers=tuple(range(1, 9)), n_max=3, statistics=statistics,
                          g=1.0, sigma=0.25, delta=5.0)
    assert sys.basis.dim >= 84
    lp = Lprime(sys.basis, sys.coeffs)
    conservation_report(lp)
    assert positivity_check(lp, n_samples=20, tau_max=1e-3, seed=1).passed
    dt = 5.05 * sys.tau0
    assert integrate(sys, t_span=4.0 * dt, dt=dt).n_steps == 4
    negative_tau_witness(lp)
    assert not calls
    assert not svd_shapes


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
def test_closure_never_diagonalises_a_sector_block(statistics, monkeypatch):
    # dims 84 (Bose, 6 modes at n_max 3) and 93 (Fermi, 8 modes): the closure's
    # exponent is one-body, so its states, values and chi come from the n x n
    # kernel alone, and its moment rates from the one- and two-body kernels of
    # the generator images, read on a smaller basis: no Fock-space operator
    # of the run's dim is built
    if statistics is Statistics.BOSE:
        sys = make_system(numbers=tuple(range(1, 7)), n_max=3)
    else:
        sys = make_system(numbers=tuple(range(1, 9)), n_max=3, statistics=statistics,
                          g=1.0, sigma=0.25, delta=5.0)
    dim = sys.basis.dim
    assert dim >= 84
    blocks = cell_observables(sys.basis, sys.modes, sys.grid, Zero())
    fields = LagrangeFields.from_beta_mu(np.array([0.25, 0.2]), np.array([0.1, -0.2]))
    targets = ConstraintSet(blocks.values(gibbs_state(blocks, fields)))
    by_blocks = maxent_fit(blocks, targets).fields

    def boom(*args, **kwargs):
        raise AssertionError("a sector block was diagonalised")

    def sized(real):
        def guarded(basis, *args, **kwargs):
            if basis.dim == dim:
                raise AssertionError(f"{real.__name__} was built on the run's basis")
            return real(basis, *args, **kwargs)
        return guarded

    for module in (gibbs, kinetics):
        for name in ("gibbs_from_operator", "_sector_gibbs", "chi_matrix"):
            monkeypatch.setattr(module, name, boom, raising=False)
    for module in (fock, fieldmodel, gibbs, generator, kinetics):
        monkeypatch.setattr(module, "mode_rotation", boom, raising=False)
        for real in (Lprime, one_body_operator):
            monkeypatch.setattr(module, real.__name__, sized(real), raising=False)
    closure = ClosureSystem(sys.basis, sys.modes, sys.grid, sys.coeffs, sys.fields)
    dt = 5.05 * closure.tau0
    assert integrate(closure, t_span=4.0 * dt, dt=dt).n_steps == 4
    by_kernels = maxent_fit(sys.family, targets).fields
    for got, want in ((by_kernels.beta, by_blocks.beta), (by_kernels.mu, by_blocks.mu)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
