"""Metric names, units and directions, and how each is read off a run.

BENCHMARK.json lists the same names; the self-test checks the two agree.
"""
from __future__ import annotations

import statistics

# (name, unit, better).  command1_s / command2_s are the wall times of the
# workload's first and second `boxgas` subcommand (see workloads.py):
#   relax_dense: evolve, generator-check
#   relax_cells: maxent, evolve
#   pair3d:      tmatrix, build
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("command1_s", "s", "lower"),
    ("command2_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of the traced pass.  `<span>.s` is self time summed over
# calls, `.calls` the call count, `.peak_mb` the largest tracemalloc peak above
# the span's entry level, `.raised` the calls that raised.
PER_LAYER = (
    ("config.load_config.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("fock.build_basis.s", "s", "lower"),
    ("fock.ladder_ops.calls", "count", "lower"),
    ("fock.ladder_ops.s", "s", "lower"),
    ("fock.one_body_operator.calls", "count", "lower"),
    ("fock.one_body_operator.s", "s", "lower"),
    ("fock.two_body_operator.calls", "count", "lower"),
    ("fock.two_body_operator.s", "s", "lower"),
    ("fock.two_body_operator.peak_mb", "MB", "lower"),
    ("fieldmodel.contact_tensor.s", "s", "lower"),
    ("fieldmodel.potential_tensor.s", "s", "lower"),
    ("fieldmodel.hamiltonian.s", "s", "lower"),
    ("fieldmodel.energy_density_op.s", "s", "lower"),
    ("fieldmodel.mass_density_op.s", "s", "lower"),
    ("fieldmodel.momentum_density_op.s", "s", "lower"),
    ("scattering.onshell_tmatrix.calls", "count", "lower"),
    ("scattering.onshell_tmatrix.s", "s", "lower"),
    ("generator.build_coefficients.s", "s", "lower"),
    ("generator.Lprime.calls", "count", "lower"),
    ("generator.Lprime.s", "s", "lower"),
    ("generator.Lprime.peak_mb", "MB", "lower"),
    ("generator.Lprime.images.s", "s", "lower"),
    ("generator.Lprime.apply.calls", "count", "lower"),
    ("generator.Lprime.apply.s", "s", "lower"),
    ("generator.positivity_check.s", "s", "lower"),
    ("generator.negative_tau_witness.s", "s", "lower"),
    ("generator.conservation_report.s", "s", "lower"),
    ("gibbs.cell_observables.s", "s", "lower"),
    ("gibbs.maxent_fit.calls", "count", "lower"),
    ("gibbs.maxent_fit.s", "s", "lower"),
    ("gibbs.maxent_fit.raised", "count", "lower"),
    ("gibbs.newton_iterations", "count", "lower"),
    ("gibbs.gibbs_from_operator.calls", "count", "lower"),
    ("gibbs.gibbs_from_operator.s", "s", "lower"),
    ("gibbs.chi_matrix.calls", "count", "lower"),
    ("gibbs.chi_matrix.s", "s", "lower"),
    ("gibbs.expectation.calls", "count", "lower"),
    ("gibbs.expectation.s", "s", "lower"),
    ("kinetics.ClosureSystem.s", "s", "lower"),
    ("kinetics.ClosureSystem.peak_mb", "MB", "lower"),
    ("kinetics.integrate.s", "s", "lower"),
    ("kinetics.closure_rhs.calls", "count", "lower"),
    ("kinetics.closure_rhs.s", "s", "lower"),
    ("kinetics.rk4_steps", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

_FIELDS = ("s", "calls", "peak_mb", "raised")


def _entry(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, worker, setup_times):
    """End-to-end metrics of an untraced run."""
    first, second = workload.commands
    values = {
        "setup_s": statistics.median(setup_times),
        "command1_s": statistics.median(worker["command_s"][first]),
        "command2_s": statistics.median(worker["command_s"][second]),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    return {name: _entry(values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(worker):
    """Per-layer metrics of the traced pass; a layer never reached reads 0."""
    trace = worker["trace"]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead":
            value = trace["wall_s"] / statistics.median(worker["pass_s"])
        elif name in trace["counters"]:
            value = trace["counters"][name]
        else:
            span, field = name.rsplit(".", 1)
            if field not in _FIELDS:
                raise ValueError(f"metric {name} names no span field")
            value = trace["spans"].get(span, {}).get(field, 0)
        out[name] = _entry(value, unit)
    return out
