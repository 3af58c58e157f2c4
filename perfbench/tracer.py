"""In-memory spans around the public functions of the `boxgas` modules.

Each target is wrapped where it is defined and at every `boxgas` module
attribute that imported it by name; constructors and methods are patched on
their class.  A span records calls, self time (duration minus child spans),
exceptions raised, and the tracemalloc peak above its entry level.  Nothing
is written while spans run; `uninstall` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

MB = float(2 ** 20)

# Span names are `<module>.<function>`, `<module>.<Class>` (the constructor)
# or `<module>.<Class>.<method>`, all under the `boxgas` package.
TARGETS = (
    "config.load_config",
    "fock.build_basis",
    "fock.ladder_ops",
    "fock.one_body_operator",
    "fock.two_body_operator",
    "fieldmodel.contact_tensor",
    "fieldmodel.potential_tensor",
    "fieldmodel.hamiltonian",
    "fieldmodel.energy_density_op",
    "fieldmodel.mass_density_op",
    "fieldmodel.momentum_density_op",
    "scattering.onshell_tmatrix",
    "generator.build_coefficients",
    "generator.Lprime",
    "generator.Lprime.images",
    "generator.Lprime.apply",
    "generator.positivity_check",
    "generator.negative_tau_witness",
    "generator.conservation_report",
    "gibbs.cell_observables",
    "gibbs.maxent_fit",
    "gibbs.gibbs_from_operator",
    "gibbs.chi_matrix",
    "gibbs.expectation",
    "kinetics.ClosureSystem",
    "kinetics.integrate",
    "kinetics.closure_rhs",
)

ROOT_SPAN = "cli.self"


def _count_newton(counters, result):
    counters["gibbs.newton_iterations"] += result.iterations


def _count_rk4(counters, result):
    counters["kinetics.rk4_steps"] += result.n_steps


# Counters read off the value a span returns.
RESULT_HOOKS = {
    "gibbs.maxent_fit": _count_newton,
    "kinetics.integrate": _count_rk4,
}


class _Frame:
    __slots__ = ("name", "start", "child", "entry_mem", "peak")

    def __init__(self, name, start, entry_mem):
        self.name = name
        self.start = start
        self.child = 0.0
        self.entry_mem = entry_mem
        self.peak = entry_mem


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counters = {"gibbs.newton_iterations": 0, "kinetics.rk4_steps": 0}
        self.root_s = 0.0
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top.peak = max(top.peak, peak)
        tracemalloc.reset_peak()
        self._stack.append(_Frame(name, time.perf_counter(), cur))

    def _exit(self, raised):
        end = time.perf_counter()
        frame = self._stack.pop()
        peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
        duration = end - frame.start
        st = self.stats.setdefault(
            frame.name, {"calls": 0, "s": 0.0, "raised": 0, "peak_mb": 0.0})
        st["calls"] += 1
        st["s"] += duration - frame.child
        st["raised"] += int(raised)
        st["peak_mb"] = max(st["peak_mb"], (peak - frame.entry_mem) / MB)
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.peak = max(parent.peak, peak)
        else:
            self.root_s += duration

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._exit(True)
            raise
        self._exit(False)
        hook = RESULT_HOOKS.get(name)
        if hook is not None:
            hook(self.counters, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__perfbench_span__ = name
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        for name in TARGETS:
            parts = name.split(".")
            module = importlib.import_module("boxgas." + parts[0])
            obj = getattr(module, parts[1])
            if isinstance(obj, type):
                attr = parts[2] if len(parts) == 3 else "__init__"
                original = obj.__dict__[attr]
                self._patches.append((obj, attr, original))
                setattr(obj, attr, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, obj)
            for mod in _boxgas_modules():
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_attributes(self):
        return list(self._patches)


def _boxgas_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "boxgas" or n.startswith("boxgas."))]


def leftover_wrappers():
    """Module or class attributes under `boxgas` that are still span wrappers."""
    found = []
    for mod in _boxgas_modules():
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owners += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            found += [f"{mod.__name__}.{a}" for a, v in owners
                      if hasattr(v, "__perfbench_span__")]
    return found
