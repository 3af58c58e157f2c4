"""Every name the benchmark harness traces or patches by name resolves in boxgas.

`perfbench/tracer.py` wraps each `TARGETS` entry, and `perfbench/selftest.py`
checks that names imported into other modules are patched too.  A rename or
deletion here fails the suite instead of crashing the benchmark's traced pass.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


@pytest.mark.parametrize("name", load_tracer().TARGETS)
def test_traced_target_resolves(name):
    parts = name.split(".")
    obj = getattr(importlib.import_module("boxgas." + parts[0]), parts[1])
    if isinstance(obj, type):
        # the tracer patches the class's own dict entry: constructor or method
        assert (parts[2] if len(parts) == 3 else "__init__") in vars(obj)
    else:
        assert len(parts) == 2 and callable(obj)


# (module, attribute, defining module): names the self-test requires to be the
# very object defined elsewhere, so the tracer patches the imported binding too
BY_NAME = (
    ("kinetics", "maxent_fit", "gibbs"),
    ("cli", "integrate", "kinetics"),
    ("generator", "ladder_ops", "fock"),
    ("fieldmodel", "one_body_operator", "fock"),
)


@pytest.mark.parametrize("module, attr, origin", BY_NAME)
def test_selftest_by_name_imports(module, attr, origin):
    imported = getattr(importlib.import_module("boxgas." + module), attr)
    assert imported is getattr(importlib.import_module("boxgas." + origin), attr)


def test_selftest_lprime_methods():
    from boxgas.generator import Lprime

    assert {"images", "apply"} <= set(vars(Lprime))
