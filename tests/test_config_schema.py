"""Parity of `boxgas.config`'s hand-written rules with the JSON Schema they replaced.

`SCHEMA` below is the Draft 2020-12 schema the package used to check configs
with through jsonschema (a test dependency only). It is the oracle: every
config gets the verdict and the `ConfigError` text that jsonschema's first
error in key-path order gives. A config the schema accepts may still fail the
shape checks, and one holding NaN or an infinity fails as not finite.
"""
import copy
import math
from typing import Any

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgas.config import DEFAULTS, ConfigError, validate

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POSITIVE_INT = {"type": "integer", "minimum": 1}

SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lengths": {"type": "array", "minItems": 1, "items": _POSITIVE},
            },
        },
        "modes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "numbers": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": _POSITIVE_INT,
                    },
                },
            },
        },
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_max": _POSITIVE_INT,
                "statistics": {"enum": ["bose", "fermi"]},
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {
                    "enum": ["none", "contact", "gaussian", "soft-lennard-jones"],
                },
                "strength": {"type": "number"},
                "range": _POSITIVE,
                "core": _POSITIVE,
                "order": {"type": "integer", "minimum": 2},
            },
        },
        "scattering": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"eps": _POSITIVE},
        },
        "generator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": _POSITIVE,
                "tau_max": _POSITIVE,
                "n_samples": _POSITIVE_INT,
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cells": {"type": "array", "minItems": 1, "items": _POSITIVE_INT},
            },
        },
        "fields": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta": {"type": "array", "minItems": 1, "items": _POSITIVE},
                "mu": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            },
        },
        "maxent": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "targets": {
                    "oneOf": [
                        {"type": "null"},
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "energy": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {"type": "number"},
                                },
                                "mass": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {"type": "number"},
                                },
                            },
                            "required": ["energy", "mass"],
                        },
                    ],
                },
                "tol": _POSITIVE,
                "max_iter": _POSITIVE_INT,
            },
        },
        "evolve": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"oneOf": [{"type": "null"}, _POSITIVE]},
                "dt_factor": {"type": "number", "minimum": 5.0},
                "steps": {"type": "integer", "minimum": 4},
                "assert_monotone": {"type": "boolean"},
            },
        },
        "micro": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"q_dim": _POSITIVE_INT},
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"seed": {"type": "integer", "minimum": 0}},
        },
    },
}


# jsonschema's `integer` takes any number with a zero fraction (2.0, 2e0); a
# count or index must be a Python int, and a bool is not one.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer",
        lambda _checker, value: isinstance(value, int) and not isinstance(value, bool)),
)


def schema_message(cfg):
    """The config error the schema reports first, or None."""
    errors = sorted(_Validator(SCHEMA).iter_errors(cfg),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = ".".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"config key '{where}': {errors[0].message}"


def first_nonfinite(value, path=()):
    if isinstance(value, float) and not math.isfinite(value):
        return ".".join(str(p) for p in path), value
    if isinstance(value, dict):
        entries = sorted(value.items())
    else:
        entries = enumerate(value) if isinstance(value, list) else ()
    for key, entry in entries:
        found = first_nonfinite(entry, (*path, key))
        if found:
            return found
    return None


def validate_message(cfg):
    try:
        validate(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


def assert_parity(cfg):
    expected = schema_message(cfg)
    got = validate_message(cfg)
    if expected is not None:
        assert got == expected
    elif first_nonfinite(cfg):
        where, value = first_nonfinite(cfg)
        assert got == f"config key '{where}': {value!r} is not a finite number"
    else:
        # the schema accepts: only a shape check may object, and it names no key
        assert got is None or not got.startswith("config key")


def changed(*changes):
    """DEFAULTS with (key path, value) changes applied."""
    cfg = copy.deepcopy(DEFAULTS)
    for path, value in changes:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("cfg, message", [
    (changed((("turbo",), 1), ((1,), True)),
     "<root>': Additional properties are not allowed (1, 'turbo' were unexpected)"),
    (changed((("basis", 0), "x")),
     "basis': Additional properties are not allowed (0 was unexpected)"),
    (changed((("geometry", "lengths"), [])), "geometry.lengths': [] should be non-empty"),
    (changed((("modes", "numbers"), [[1], [0]])),
     "modes.numbers.1.0': 0 is less than the minimum of 1"),
    (changed((("basis", "n_max"), 2.0)), "basis.n_max': 2.0 is not of type 'integer'"),
    (changed((("basis", "n_max"), True)), "basis.n_max': True is not of type 'integer'"),
    (changed((("scattering", "eps"), 0)),
     "scattering.eps': 0 is less than or equal to the minimum of 0"),
    (changed((("evolve", "dt_factor"), 4.5)),
     "evolve.dt_factor': 4.5 is less than the minimum of 5.0"),
    (changed((("evolve", "dt"), 0.0)),
     "evolve.dt': 0.0 is not valid under any of the given schemas"),
    (changed((("maxent", "targets"), {"energy": [1.0, 1.0]})),
     "maxent.targets': {'energy': [1.0, 1.0]} is not valid under any of the given schemas"),
    (changed((("basis", "statistics"), "Bose")),
     "basis.statistics': 'Bose' is not one of ['bose', 'fermi']"),
    (changed((("evolve", "assert_monotone"), 1)),
     "evolve.assert_monotone': 1 is not of type 'boolean'"),
    # an infinity the schema rejects keeps the schema's message
    (changed((("scattering", "eps"), -math.inf)),
     "scattering.eps': -inf is less than or equal to the minimum of 0"),
    (changed((("evolve", "dt"), -math.inf)),
     "evolve.dt': -inf is not valid under any of the given schemas"),
    (changed((("basis", "n_max"), math.inf)), "basis.n_max': inf is not of type 'integer'"),
    (changed((("fields", "beta"), [math.nan, 0.1]), (("generator", "delta"), -1.0)),
     "generator.delta': -1.0 is less than or equal to the minimum of 0"),
    # the first problem in key-path order, not in document order
    (changed((("run", "seed"), -1), (("fields", "mu"), None)),
     "fields.mu': None is not of type 'array'"),
    (changed((("geometry", "turbo"), 1), (("fields", "beta"), [0.0, 0.1])),
     "fields.beta.0': 0.0 is less than or equal to the minimum of 0"),
])
def test_schema_messages(cfg, message):
    assert schema_message(cfg) == f"config key '{message}"
    assert validate_message(cfg) == f"config key '{message}"


_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, 4, 5, -1, 0.0, 1.0, 2.0, 4.0, 5.0, -0.5, 4.5, 10**30]),
    st.integers(0, 6),
    st.floats(width=64),
)
_SCALARS = st.one_of(
    _NUMBERS,
    st.none(),
    st.booleans(),
    st.sampled_from(["bose", "fermi", "none", "contact", "gaussian",
                     "soft-lennard-jones", "Bose", ""]),
)
# no key is the text of another (1 and '1'): the schema's order of such a pair
# follows set iteration, which varies with the string hash seed
_KEYS = st.sampled_from(["energy", "mass", "lengths", "turbo"]) | st.integers(0, 3)
_VALUES = st.one_of(
    _NUMBERS,
    _SCALARS,
    st.lists(_NUMBERS, min_size=1, max_size=3),
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=2), max_size=2),
    st.dictionaries(_KEYS, _SCALARS | st.lists(_SCALARS, max_size=2), max_size=3),
)


@st.composite
def mutated_configs(draw):
    """DEFAULTS with one or two entries replaced or unknown keys added."""
    cfg = copy.deepcopy(DEFAULTS)
    if draw(st.booleans()):
        cfg["maxent"]["targets"] = {"energy": [1.0, 2.0], "mass": [0.5, 0.5]}
    for _ in range(draw(st.integers(1, 2))):
        node, key = cfg, draw(st.sampled_from(sorted(cfg, key=str)))
        # mostly a leaf (depth 1) or a list item (2, 3); 0 replaces a section
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 2, 3]))):
            child = node[key]
            if not isinstance(child, (dict, list)) or not child:
                break
            keys = sorted(child, key=str) if isinstance(child, dict) else range(len(child))
            node, key = child, draw(st.sampled_from(keys))
        target = draw(st.sampled_from([node, node[key]]))
        if isinstance(target, dict) and draw(st.integers(0, 3)) == 0:
            target[draw(_KEYS)] = draw(_VALUES)
        else:
            node[key] = draw(_VALUES)
    # load_config merges a file into DEFAULTS, so a section never lacks a key
    for section, entries in DEFAULTS.items():
        if isinstance(cfg[section], dict):
            cfg[section] = {**copy.deepcopy(entries), **cfg[section]}
    return cfg


@settings(max_examples=500, deadline=None)
@given(cfg=mutated_configs())
def test_rules_match_schema(cfg):
    assert_parity(cfg)
