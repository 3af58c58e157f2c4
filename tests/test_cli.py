import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgas import cli, fieldmodel, fock, generator, gibbs
from boxgas.cli import main
from boxgas.config import ConfigError, load_config
from boxgas.fieldmodel import BoxGeometry, Contact, modes_from_numbers, potential_tensor
from boxgas.fock import Statistics, pair_basis, pair_matrix_from_tensor
from boxgas.scattering import onshell_tmatrix
from dense_oracles import tmatrix_table_text

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run_cli(args):
    return CliRunner().invoke(main, args)


def read_report(out_dir):
    with open(Path(out_dir) / "report.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# config loading


def test_defaults_validate():
    cfg = load_config()
    assert cfg["fields"]["beta"] == [0.22, 0.18]
    assert cfg["basis"]["statistics"] == "bose"


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("turbo: true\n")
    with pytest.raises(ConfigError, match="turbo"):
        load_config(str(bad))


def test_nested_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("basis:\n  n_max: 2\n  flavor: strange\n")
    with pytest.raises(ConfigError, match="flavor"):
        load_config(str(bad))


def test_unknown_keys_of_mixed_types_sort_by_text(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("turbo: true\n1: x\n")
    with pytest.raises(ConfigError) as info:
        load_config(str(bad))
    assert str(info.value) == ("config key '<root>': Additional properties are not "
                               "allowed (1, 'turbo' were unexpected)")


def test_override_parsing():
    cfg = load_config(None, ["fields.beta=[0.5, 0.5]", "run.seed=7"])
    assert cfg["fields"]["beta"] == [0.5, 0.5]
    assert cfg["run"]["seed"] == 7
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["fields.beta"])
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["fields.gamma=1.0"])


@pytest.mark.parametrize("raw, value", [("1e-3", 1e-3), ("-2E+1", -20.0)])
def test_scientific_notation_reads_as_number(tmp_path, raw, value):
    # YAML 1.1 takes these for strings; overrides and files read them as floats
    cfg = load_config(None, [f"potential.strength={raw}"])
    assert cfg["potential"]["strength"] == value
    path = tmp_path / "sci.yaml"
    path.write_text(f"potential:\n  strength: {raw}\ngenerator:\n  tau_max: 1e-3\n")
    cfg = load_config(str(path))
    assert cfg["potential"]["strength"] == value
    assert cfg["generator"]["tau_max"] == 1e-3
    result = run_cli(["modes", "--out", str(tmp_path), "--quiet",
                      "--set", f"potential.strength={raw}"])
    assert result.exit_code == 0
    assert read_report(tmp_path)["config"]["potential"]["strength"] == value


def test_shape_mismatches_rejected():
    with pytest.raises(ConfigError, match="cells"):
        load_config(None, ["fields.beta=[0.2]"])
    with pytest.raises(ConfigError, match="dimensional"):
        load_config(None, ["modes.numbers=[[1, 1], [2, 1]]"])
    with pytest.raises(ConfigError, match="duplicates"):
        load_config(None, ["modes.numbers=[[1], [1]]"])


def test_range_violations_rejected():
    with pytest.raises(ConfigError, match="n_max"):
        load_config(None, ["basis.n_max=0"])
    with pytest.raises(ConfigError, match="eps"):
        load_config(None, ["scattering.eps=-1.0"])


@pytest.mark.parametrize("command, override, key, shown", [
    ("generator-check", "generator.delta=.nan", "generator.delta", "nan"),
    ("evolve", "generator.delta=.nan", "generator.delta", "nan"),
    ("evolve", "scattering.eps=.inf", "scattering.eps", "inf"),
    ("tmatrix", "scattering.eps=.inf", "scattering.eps", "inf"),
    ("maxent", "maxent.tol=.nan", "maxent.tol", "nan"),
    ("build", "potential.strength=-.inf", "potential.strength", "-inf"),
    ("evolve", "evolve.dt=.inf", "evolve.dt", "inf"),
    ("evolve", "evolve.dt_factor=.inf", "evolve.dt_factor", "inf"),
    ("maxent", "fields.mu=[0.0, .nan]", "fields.mu.1", "nan"),
    ("maxent", "maxent.targets={energy: [.inf, 1.0], mass: [1.0, 1.0]}",
     "maxent.targets.energy.0", "inf"),
])
def test_nonfinite_number_exits_two(tmp_path, command, override, key, shown):
    message = f"config key '{key}': {shown} is not a finite number"
    with pytest.raises(ConfigError) as info:
        load_config(None, [override])
    assert str(info.value) == message
    result = run_cli([command, "--out", str(tmp_path), "--quiet", "--set", override])
    assert result.exit_code == 2
    assert message in result.output
    assert not (tmp_path / "report.json").exists()


def test_large_bose_n_max_rejected_at_once():
    # the basis dimension comes in closed form, not from a sum over 10^8 sectors
    with pytest.raises(ConfigError, match=f"basis dimension {math.comb(10**8 + 3, 3)} "):
        load_config(None, ["basis.n_max=100000000"])


# ---------------------------------------------------------------------------
# subcommands


def test_modes_table(tmp_path):
    result = run_cli(["modes", "--out", str(tmp_path), "--quiet"])
    assert result.exit_code == 0
    header, rows = read_csv(tmp_path / "modes.csv")
    assert header == ["index", "n_0", "energy"]
    energies = [float(r[2]) for r in rows]
    unit = 0.5 * math.pi ** 2
    assert energies == pytest.approx([unit, 4 * unit, 9 * unit], rel=1e-12)
    report = read_report(tmp_path)
    assert report["passed"] is True
    assert report["config"]["modes"]["numbers"] == [[1], [2], [3]]


def test_build_spectrum(tmp_path):
    result = run_cli(["build", "--out", str(tmp_path), "--quiet",
                      "--set", "potential.kind=none"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["checks"]["hamiltonian_hermitian"]["passed"]
    unit = 0.5 * math.pi ** 2
    assert report["values"]["ground_energy"] == pytest.approx(0.0, abs=1e-12)
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["index", "energy"]
    # free spectrum: sums of mode energies over occupations with N <= 2
    got = sorted(float(r[1]) for r in rows)
    want = sorted(unit * (a + 4 * b + 9 * c)
                  for a in range(3) for b in range(3) for c in range(3)
                  if a + b + c <= 2)
    assert got == pytest.approx(want, abs=1e-10)


def test_tmatrix_free_gas_is_zero(tmp_path):
    result = run_cli(["tmatrix", "--out", str(tmp_path), "--quiet",
                      "--set", "potential.kind=none"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["values"]["t_norm"] == 0.0
    assert report["values"]["born_ratio"] == 0.0


def test_tmatrix_table_rows(tmp_path):
    # one row (p, q, Re T, Im T, Re V) per pair-index pair, p major
    assert run_cli(["tmatrix", "--out", str(tmp_path), "--quiet"]).exit_code == 0
    cfg = load_config()
    geom = BoxGeometry(tuple(cfg["geometry"]["lengths"]))
    modes = modes_from_numbers(geom, [tuple(t) for t in cfg["modes"]["numbers"]])
    vt = potential_tensor(modes, Contact(cfg["potential"]["strength"]), geom)
    pairs = pair_basis(len(modes), Statistics.BOSE)
    v_pair = pair_matrix_from_tensor(vt, Statistics.BOSE)
    t_on = onshell_tmatrix(modes, v_pair, Statistics.BOSE, cfg["scattering"]["eps"])
    want = [[str(p), str(q), str(float(t_on[p, q].real)), str(float(t_on[p, q].imag)),
             str(float(v_pair[p, q].real))]
            for p in range(len(pairs)) for q in range(len(pairs))]
    header, rows = read_csv(tmp_path / "tmatrix.csv")
    assert header == ["p", "q", "t_real", "t_imag", "v_real"]
    assert rows == want
    assert any(float(row[3]) != 0.0 for row in rows)


def test_tmatrix_table_is_the_same_in_any_row_blocks(tmp_path, monkeypatch):
    # the rows are made a block of whole p rows at a time; blocks of one p row
    # (chunk 4 < 6 pairs) or of three must write the same bytes as one block
    tables = []
    for chunk in (1 << 20, 4, 20):
        monkeypatch.setattr(cli, "_TABLE_CHUNK", chunk)
        out = tmp_path / str(chunk)
        assert run_cli(["tmatrix", "--out", str(out), "--quiet"]).exit_code == 0
        tables.append((out / "tmatrix.csv").read_bytes())
    assert tables[1] == tables[0] and tables[2] == tables[0]


def pair_tables(t_real, t_imag, v_real):
    """(T, V) with the given real columns; V's imaginary part, which the
    table leaves out, is set nonzero."""
    t = np.empty(np.shape(t_real), dtype=complex)
    t.real, t.imag = t_real, t_imag
    v = np.full(np.shape(v_real), 7.0j)
    v.real = v_real
    return t, v


def negative_zero_in(column):
    columns = np.zeros((3, 3, 3))
    columns[column, 1, 2] = -0.0
    columns[(column + 1) % 3, 0, 0] = 0.5
    return pair_tables(*columns)


def repr_switches():
    # repr turns to exponent notation below 1e-4 and from 1e16 on; rows 1 and 3
    # are all zero, row 2 has one entry
    columns = np.zeros((3, 4, 4))
    columns[0, 0] = [5e-324, 1e-05, 1e16, 1e300]
    columns[1, 0] = [-5e-324, 0.0001, 9999999999999998.0, -1e300]
    columns[2, 0] = [1e-300, -1e-05, -1e16, 2.5]
    columns[2, 2, 3] = 0.1
    return pair_tables(*columns)


TABLE_CASES = {
    "no_pairs": pair_tables(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    "one_zero_pair": pair_tables(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))),
    "one_pair": pair_tables([[0.25]], [[-1e16]], [[1e-05]]),
    "negative_zero_t_real": negative_zero_in(0),
    "negative_zero_t_imag": negative_zero_in(1),
    "negative_zero_v_real": negative_zero_in(2),
    "repr_switches": repr_switches(),
    "non_finite": pair_tables([[np.nan, 0.0], [0.0, np.inf]], [[0.0, -np.inf], [0.0, 0.0]],
                              [[0.0, 0.0], [np.nan, 0.0]]),
}


def tmatrix_text(t_on, v_pair, chunk):
    with mock.patch.object(cli, "_TABLE_CHUNK", chunk):
        return "".join(cli._tmatrix_text(t_on, v_pair))


@pytest.mark.parametrize("chunk", [1 << 16, 1, 2, 3])
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_tmatrix_text_is_csv_writer_bytes(case, chunk):
    t_on, v_pair = TABLE_CASES[case]
    assert tmatrix_text(t_on, v_pair, chunk) == tmatrix_table_text(t_on, v_pair)


@st.composite
def block_sparse_tables(draw):
    # entries vanish (+0.0) between classes, as T and V do between
    # reflection-parity classes
    n = draw(st.integers(0, 7))
    classes = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=int)
    entry = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 1e300])
    columns = np.array(draw(st.lists(entry, min_size=3 * n * n, max_size=3 * n * n)),
                       dtype=float).reshape(3, n, n)
    columns = np.where(classes[:, None] == classes[None, :], columns, 0.0)
    return pair_tables(*columns), draw(st.sampled_from([1, 2, 5, 1 << 16]))


@settings(max_examples=200, deadline=None)
@given(block_sparse_tables())
def test_tmatrix_text_is_csv_writer_bytes_on_block_sparse_tables(drawn):
    (t_on, v_pair), chunk = drawn
    assert tmatrix_text(t_on, v_pair, chunk) == tmatrix_table_text(t_on, v_pair)


@pytest.mark.parametrize("workload", ["default", "pair3d"])
def test_tmatrix_builds_no_generator_coefficients(tmp_path, monkeypatch, workload):
    overrides = () if workload == "default" else WORKLOADS.WORKLOADS[workload].overrides
    cfg = load_config(None, overrides)
    ctx = cli._build_context(cfg)
    want = onshell_tmatrix(ctx.modes, cli._pair_matrix(ctx), ctx.statistics,
                           cfg["scattering"]["eps"])

    def refuse(*args, **kwargs):
        raise AssertionError("tmatrix built the generator coefficients")

    monkeypatch.setattr(generator, "build_coefficients", refuse)
    monkeypatch.setattr(cli, "build_coefficients", refuse)
    args = ["tmatrix", "--out", str(tmp_path), "--quiet"]
    for item in overrides:
        args += ["--set", item]
    assert run_cli(args).exit_code == 0
    _, rows = read_csv(tmp_path / "tmatrix.csv")
    got = np.array([[float(row[2]), float(row[3])] for row in rows])
    # repr round-trips every float, so the table carries T bit for bit
    assert got[:, 0].tobytes() == np.ascontiguousarray(want.real).tobytes()
    assert got[:, 1].tobytes() == np.ascontiguousarray(want.imag).tobytes()


@pytest.mark.parametrize("workload", ["default", "pair3d"])
def test_tmatrix_forms_the_pair_potential_once(tmp_path, monkeypatch, workload):
    # the T solve reads the pair matrix that the report and the table use
    overrides = () if workload == "default" else WORKLOADS.WORKLOADS[workload].overrides
    calls = []
    real = fock.pair_matrix_from_tensor

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cli, fieldmodel, fock):
        monkeypatch.setattr(module, "pair_matrix_from_tensor", counted)
    args = ["tmatrix", "--out", str(tmp_path), "--quiet"]
    for item in overrides:
        args += ["--set", item]
    assert run_cli(args).exit_code == 0
    assert len(calls) == 1


def test_tmatrix_without_pairs_writes_the_header_alone(tmp_path):
    # one Fermi mode has no pair state
    result = run_cli(["tmatrix", "--out", str(tmp_path), "--quiet",
                      "--set", "modes.numbers=[[1]]", "--set", "basis.statistics=fermi",
                      "--set", "basis.n_max=1"])
    assert result.exit_code == 0
    assert read_report(tmp_path)["values"]["n_pairs"] == 0
    assert (tmp_path / "tmatrix.csv").read_bytes() == b"p,q,t_real,t_imag,v_real\r\n"


def test_generator_check_free_gas_exact_zero(tmp_path):
    result = run_cli(["generator-check", "--config",
                      str(CONFIGS / "free_gas.yaml"), "--out", str(tmp_path),
                      "--quiet"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["values"]["energy_residual"] == 0.0
    assert report["checks"]["mass_conservation"]["value"] == 0.0
    assert "negative_tau_witness" not in report["checks"]


def test_generator_check_without_pair_sector_skips_witness(tmp_path):
    # at n_max 1 every channel vanishes, so no witness can be found or claimed
    result = run_cli(["generator-check", "--out", str(tmp_path), "--quiet",
                      "--set", "basis.n_max=1", "--set", "generator.n_samples=20"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["passed"] is True
    assert "negative_tau_witness" not in report["checks"]


def test_generator_check_interacting(tmp_path):
    result = run_cli(["generator-check", "--out", str(tmp_path), "--quiet",
                      "--set", "generator.n_samples=50"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["checks"]["positivity_min_real"]["passed"]
    assert report["checks"]["negative_tau_witness"]["value"] < 0.0
    assert report["values"]["energy_residual"] > 0.0


def test_maxent_round_trip(tmp_path):
    result = run_cli(["maxent", "--config",
                      str(CONFIGS / "maxent_roundtrip.yaml"),
                      "--out", str(tmp_path), "--quiet"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["checks"]["round_trip_beta"]["value"] <= 1e-6
    assert report["checks"]["round_trip_mu"]["value"] <= 1e-6
    assert report["values"]["beta_fit"] == pytest.approx([1.1, 0.9], abs=1e-6)
    header, rows = read_csv(tmp_path / "fit_trace.csv")
    assert header == ["iteration", "residual"]
    assert float(rows[-1][1]) <= 1e-8


def test_report_records_blas_thread_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    result = run_cli(["modes", "--out", str(tmp_path), "--quiet"])
    assert result.exit_code == 0
    versions = read_report(tmp_path)["versions"]
    assert versions["OPENBLAS_NUM_THREADS"] == "3"
    assert versions["OMP_NUM_THREADS"] == "unset"


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only
    probe = ("import sys, boxgas.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.strip()
    assert loaded == "[]"


def test_cli_import_loads_only_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[\w.-]+", spec).group().lower() for spec in declared}
    allowed = {"yaml" if name == "pyyaml" else name for name in names} | {"boxgas"}
    # Cython's runtime modules have no spec: they are no installed package
    probe = ("import sys; before = set(sys.modules); import boxgas.cli; "
             "top = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(*sorted(m for m in top if sys.modules[m].__spec__))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    third_party = {m for m in loaded if m not in sys.stdlib_module_names}
    assert third_party <= allowed, sorted(third_party - allowed)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)  # stdlib imports only
    return module


WORKLOADS = load_workloads()


def loaded_after_calls(calls, module):
    """Whether `module` is in sys.modules after the CLI calls, in a fresh process."""
    probe = ("import json, sys; from boxgas.cli import main\n"
             "for args in json.loads(sys.argv[1]):\n"
             "    main.main(args, standalone_mode=False)\n"
             "print(sys.argv[2] in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    loaded = subprocess.run([sys.executable, "-c", probe, json.dumps(calls), module], env=env,
                            check=True, capture_output=True, text=True).stdout.split()
    return loaded[-1] == "True"


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_commands_do_not_load_numpy_ma(name, tmp_path):
    # numpy.ma is imported lazily by calls such as np.unique; loading it adds
    # to every command's set-up time and peak RSS
    workload = WORKLOADS.WORKLOADS[name]
    calls = [WORKLOADS.cli_args(workload, command, str(REPO), str(tmp_path / command), 0)
             for command in workload.commands]
    assert not loaded_after_calls(calls, "numpy.ma")


def test_gaussian_build_does_not_load_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule is one eigh (`fieldmodel._legendre_rule`);
    # numpy.polynomial's modules would add to the set-up of every call
    args = WORKLOADS.cli_args(WORKLOADS.WORKLOADS["pair3d"], "build", str(REPO),
                              str(tmp_path), 0)
    assert not loaded_after_calls([args], "numpy.polynomial")


def test_report_versions_omit_scipy(tmp_path):
    assert run_cli(["build", "--out", str(tmp_path), "--quiet"]).exit_code == 0
    assert "scipy" not in read_report(tmp_path)["versions"]


def test_maxent_infeasible_exits_one(tmp_path):
    result = run_cli(["maxent", "--out", str(tmp_path), "--quiet", "--set",
                      "maxent.targets={energy: [5.0, 5.0], mass: [100.0, 100.0]}"])
    assert result.exit_code == 1
    report = read_report(tmp_path)
    assert report["passed"] is False
    assert "infeasible mass target" in report["error"]


def test_evolve_two_cell_relaxation(tmp_path):
    result = run_cli(["evolve", "--config",
                      str(CONFIGS / "two_cell_relaxation.yaml"),
                      "--out", str(tmp_path), "--quiet"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["checks"]["beta_contrast_monotone"]["passed"]
    assert report["checks"]["entropy_non_decreasing"]["passed"]
    assert report["checks"]["mass_conservation"]["value"] <= 1e-8
    header, rows = read_csv(tmp_path / "trajectory.csv")
    b0 = header.index("lambda_energy[0]")
    b1 = header.index("lambda_energy[1]")
    contrast = [abs(float(r[b0]) - float(r[b1])) for r in rows]
    assert all(b < a for a, b in zip(contrast, contrast[1:]))


def test_evolve_on_maxent_roundtrip_fails_contrast_check(tmp_path):
    # the config is for `maxent`; under `evolve` its fields drift apart (README)
    result = run_cli(["evolve", "--config", str(CONFIGS / "maxent_roundtrip.yaml"),
                      "--out", str(tmp_path), "--quiet"])
    assert result.exit_code == 1
    assert "failed invariant: beta_contrast_monotone" in result.output
    report = read_report(tmp_path)
    assert report["passed"] is False
    failed = sorted(k for k, c in report["checks"].items() if not c["passed"])
    assert failed == ["beta_contrast_monotone"]


@pytest.mark.parametrize("cells, beta, mu", [(1, "[0.2]", "[0.0]"),
                                             (2, "[0.22, 0.18]", "[0.0, 0.0]")])
def test_evolve_checks_contrast_only_between_cells(tmp_path, cells, beta, mu):
    # one cell has no beta contrast to decay: it is 0 at every step
    result = run_cli(["evolve", "--out", str(tmp_path), "--quiet",
                      "--set", f"grid.cells=[{cells}]", "--set", f"fields.beta={beta}",
                      "--set", f"fields.mu={mu}"])
    assert result.exit_code == 0
    checks = read_report(tmp_path)["checks"]
    assert ("beta_contrast_monotone" in checks) == (cells > 1)
    assert checks["entropy_non_decreasing"]["passed"]


def test_evolve_free_gas_requires_explicit_dt(tmp_path):
    result = run_cli(["evolve", "--config", str(CONFIGS / "free_gas.yaml"),
                      "--out", str(tmp_path), "--quiet",
                      "--set", "evolve.dt=null"])
    assert result.exit_code == 2


def test_micro_demo(tmp_path):
    result = run_cli(["micro-demo", "--out", str(tmp_path), "--quiet",
                      "--set", "micro.q_dim=3"])
    assert result.exit_code == 0
    report = read_report(tmp_path)
    assert report["checks"]["reduction_identity"]["value"] <= 1e-12
    assert report["values"]["q_dim"] == 3
    header, rows = read_csv(tmp_path / "micro.csv")
    assert header[0] == "observable"
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row[1]) - float(row[3])) <= 1e-12


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_exit_codes():
    assert run_cli(["modes", "--set", "bogus=1", "--out", "/tmp/x"]).exit_code == 2
    assert run_cli(["modes", "--config", "/nonexistent.yaml"]).exit_code == 2
    assert run_cli(["not-a-command"]).exit_code == 2


def test_contact_in_3d_box_exits_two(tmp_path):
    result = run_cli(["build", "--out", str(tmp_path), "--quiet",
                      "--set", "geometry.lengths=[1.0, 1.0, 1.0]",
                      "--set", "modes.numbers=[[1, 1, 1], [2, 1, 1]]",
                      "--set", "grid.cells=[1, 1, 1]",
                      "--set", "fields.beta=[0.2]", "--set", "fields.mu=[0.0]"])
    assert result.exit_code == 2
    assert "contact' is 1D only" in result.output


@pytest.mark.parametrize("command", ["modes", "build"])
@pytest.mark.parametrize("axes", [2, 4])
def test_box_of_neither_one_nor_three_axes_exits_two(tmp_path, command, axes):
    lengths = "[" + ", ".join(["1.0"] * axes) + "]"
    result = run_cli([command, "--out", str(tmp_path), "--quiet",
                      "--set", f"geometry.lengths={lengths}", "--set", "potential.kind=gaussian"])
    assert result.exit_code == 2
    assert f"geometry.lengths has {axes} entries; the box must be 1D or 3D" in result.output


def test_fermi_n_max_above_mode_count_exits_two(tmp_path):
    result = run_cli(["build", "--out", str(tmp_path), "--quiet",
                      "--set", "basis.statistics=fermi", "--set", "basis.n_max=4"])
    assert result.exit_code == 2
    assert "fermionic n_max 4 exceeds mode count 3" in result.output


def test_basis_above_dimension_cap_exits_two(tmp_path):
    numbers = "[" + ", ".join(f"[{n}]" for n in range(1, 21)) + "]"
    result = run_cli(["build", "--out", str(tmp_path), "--quiet",
                      "--set", f"modes.numbers={numbers}", "--set", "basis.n_max=8"])
    assert result.exit_code == 2
    assert "basis dimension 3108105 exceeds cap 200000" in result.output


@pytest.mark.parametrize("command, override, shown", [
    ("build", "basis.n_max=2.0", "2.0"),
    ("build", "basis.n_max=2e0", "2.0"),
    ("evolve", "evolve.steps=4.0", "4.0"),
])
def test_integral_float_for_integer_key_exits_two(tmp_path, command, override, shown):
    result = run_cli([command, "--out", str(tmp_path), "--quiet", "--set", override])
    assert result.exit_code == 2
    key = override.split("=")[0]
    assert f"config key '{key}': {shown} is not of type 'integer'" in result.output


def test_bad_yaml_exits_two(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("geometry: [unclosed\n")
    result = run_cli(["modes", "--config", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_seed_flag_echoed(tmp_path):
    result = run_cli(["generator-check", "--out", str(tmp_path), "--quiet",
                      "--seed", "42", "--set", "generator.n_samples=10"])
    assert result.exit_code == 0
    assert read_report(tmp_path)["config"]["run"]["seed"] == 42


def test_seed_flag_is_validated_like_run_seed(tmp_path):
    result = run_cli(["generator-check", "--out", str(tmp_path), "--quiet",
                      "--seed", "-1"])
    assert result.exit_code == 2
    assert "config key 'run.seed': -1 is less than the minimum of 0" in result.output
    assert not (tmp_path / "report.json").exists()
    # the flag still wins over --set run.seed
    result = run_cli(["modes", "--out", str(tmp_path), "--quiet",
                      "--set", "run.seed=-1", "--seed", "4"])
    assert result.exit_code == 0
    assert read_report(tmp_path)["config"]["run"]["seed"] == 4


def test_reports_are_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["evolve", "--quiet", "--set", "evolve.steps=4", "--seed", "3"]
    assert run_cli(args + ["--out", str(out_a)]).exit_code == 0
    assert run_cli(args + ["--out", str(out_b)]).exit_code == 0
    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


def test_override_changes_physics(tmp_path):
    result = run_cli(["modes", "--out", str(tmp_path), "--quiet",
                      "--set", "geometry.lengths=[2.0]"])
    assert result.exit_code == 0
    _, rows = read_csv(tmp_path / "modes.csv")
    unit = 0.5 * math.pi ** 2
    assert float(rows[0][2]) == pytest.approx(unit / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# random small configs through every subcommand

SUBCOMMANDS = ("modes", "build", "tmatrix", "generator-check", "maxent",
               "evolve", "micro-demo")


def plain_floats(lo, hi):
    # three decimals keep every value in plain notation, which YAML reads as a float
    return st.floats(lo, hi).map(lambda x: round(x, 3))


@st.composite
def small_configs(draw):
    """--set overrides of a small valid config: 1-4 modes, 1D or 3D, Bose or
    Fermi, n_max <= 3, every potential kind the box admits, 1 or 2 cells."""
    dim = draw(st.sampled_from((1, 3)))
    numbers = draw(st.lists(st.lists(st.integers(1, 3), min_size=dim, max_size=dim),
                            min_size=1, max_size=4, unique_by=tuple))
    statistics = draw(st.sampled_from(("bose", "fermi")))
    n_max = draw(st.integers(1, 3 if statistics == "bose" else min(3, len(numbers))))
    kinds = ("none", "gaussian", "soft-lennard-jones") + (("contact",) if dim == 1 else ())
    n_cells = draw(st.integers(1, 2))
    beta = draw(st.lists(plain_floats(0.1, 2.0), min_size=n_cells, max_size=n_cells))
    mu = draw(st.lists(plain_floats(-0.5, 0.5), min_size=n_cells, max_size=n_cells))
    return [
        f"geometry.lengths={[1.0] * dim}",
        f"modes.numbers={numbers}",
        f"basis.n_max={n_max}",
        f"basis.statistics={statistics}",
        f"potential.kind={draw(st.sampled_from(kinds))}",
        f"potential.strength={draw(plain_floats(-1.0, 1.0))}",
        f"potential.range={draw(plain_floats(0.1, 0.5))}",
        "potential.order=4",
        f"grid.cells={[n_cells] + [1] * (dim - 1)}",
        f"fields.beta={beta}",
        f"fields.mu={mu}",
        "evolve.steps=4",
        "generator.n_samples=20",
    ]


@settings(max_examples=40, deadline=None)
@given(overrides=small_configs())
def test_every_subcommand_exits_cleanly_on_random_configs(overrides):
    args = [item for o in overrides for item in ("--set", o)]
    with tempfile.TemporaryDirectory() as out:
        for command in SUBCOMMANDS:
            result = run_cli([command, "--out", out, "--quiet", *args])
            assert result.exit_code in (0, 1, 2), (command, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (command, result.exc_info)
