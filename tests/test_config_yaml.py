"""Parity of `boxgas.config`'s libyaml loader with the pure-Python one it replaced.

`PythonLoader` is PyYAML's pure-Python SafeLoader with the same
scientific-notation float resolver; it is the oracle.  Every document must
load to the same values of the same types under both, or fail under both.
Only the text of a parse error differs (libyaml words it its own way), and
the `ConfigError` prefix in front of it does not.
"""
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import WORKLOADS

from boxgas.config import ConfigError, _Loader, load_config

ROOT = Path(__file__).resolve().parents[1]


class PythonLoader(yaml.SafeLoader):
    """SafeLoader that also reads the YAML 1.2 float forms `1e-3` and `-2E+1`."""


PythonLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def typed(value):
    """The value with every leaf tagged by its type, NaN made comparable."""
    if isinstance(value, dict):
        return {typed(k): typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return (float, "nan")
    return (type(value), value)


def load_both(text):
    out = []
    for loader in (_Loader, PythonLoader):
        try:
            out.append(typed(yaml.load(text, Loader=loader)))
        except yaml.YAMLError:
            out.append(yaml.YAMLError)
    return out


def test_loader_is_libyaml():
    assert issubclass(_Loader, yaml.CSafeLoader)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_bundled_configs_load_alike(path):
    fast, oracle = load_both(path.read_text())
    assert fast is not yaml.YAMLError
    assert fast == oracle


OVERRIDES = sorted({item for w in WORKLOADS.WORKLOADS.values() for item in w.overrides})


@pytest.mark.parametrize("item", OVERRIDES)
def test_workload_overrides_load_alike(item):
    fast, oracle = load_both(item.split("=", 1)[1])
    assert fast is not yaml.YAMLError
    assert fast == oracle


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(
    FLOATS.map(repr), FLOATS.map(lambda x: f"{x:e}"), FLOATS.map(lambda x: f"{x:E}"),
    FLOATS.map(lambda x: f"{x:.3g}"), st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["true", "False", "yes", "off", "null", "~", "", ".inf", "-.Inf",
                     ".nan", "0x1f", "0o17", "1_000", "1e3", "1.e3", ".5e-2", "+2E+1",
                     "2.0.0", "'1e3'", '"x"', "bose", "gaussian"]))


@st.composite
def override_values(draw):
    """A workload override value, or a scalar or flow list built to mutate it."""
    base = draw(st.sampled_from(OVERRIDES)).split("=", 1)[1]
    kind = draw(st.sampled_from(("base", "scalar", "list", "nested", "mapping", "cut")))
    if kind == "base":
        return base
    if kind == "scalar":
        return draw(SCALARS)
    if kind == "list":
        return "[" + ", ".join(draw(st.lists(SCALARS, max_size=4))) + "]"
    if kind == "nested":
        rows = draw(st.lists(st.lists(SCALARS, min_size=1, max_size=3), min_size=1, max_size=3))
        return "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]"
    if kind == "mapping":
        return ("{energy: [" + draw(SCALARS) + "], mass: [" + draw(SCALARS) + "]}")
    # a truncated or spliced value, often unbalanced
    cut = draw(st.integers(0, len(base)))
    return base[:cut] + draw(st.sampled_from(["", "]", "[", ",", ":", "{", "'", " #"]))


@settings(max_examples=400, deadline=None)
@given(value=override_values())
def test_mutated_override_values_load_alike(value):
    fast, oracle = load_both(value)
    assert fast == oracle


@pytest.mark.parametrize("text, prefix", [
    ("geometry: [unclosed\n", "config file {path} is not valid YAML: "),
    ("- 1\n- 2\n", "config file {path} must hold a mapping at top level"),
])
def test_file_errors_keep_their_prefix(tmp_path, text, prefix):
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value).startswith(prefix.format(path=path))


def test_override_errors_keep_their_prefix():
    with pytest.raises(ConfigError) as info:
        load_config(None, ["potential.strength=[1,"])
    assert str(info.value).startswith(
        "override 'potential.strength=[1,' has unparseable value: ")
