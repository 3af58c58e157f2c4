"""Run configuration: defaults, schema validation, dotted overrides.

One YAML document drives every subcommand. Unknown keys are rejected so a
typo cannot silently fall back to a default, and numeric ranges are policed
by the schema before any physics object is built.
"""
from __future__ import annotations

import copy
import re
from typing import Any, Iterable

import jsonschema
import yaml

from .fock import DIM_CAP, Statistics, sector_dimension


class ConfigError(Exception):
    """Unusable configuration: bad syntax, bad schema, or bad shape."""


DEFAULTS: dict[str, Any] = {
    "geometry": {"lengths": [1.0]},
    "modes": {"numbers": [[1], [2], [3]]},
    "basis": {"n_max": 2, "statistics": "bose"},
    "potential": {
        "kind": "contact",
        "strength": 0.1,
        "range": 0.25,
        "core": 0.1,
        "order": 8,
    },
    "scattering": {"eps": 10.0},
    "generator": {"delta": 2.0, "tau_max": 1.0e-3, "n_samples": 200},
    "grid": {"cells": [2]},
    "fields": {"beta": [0.22, 0.18], "mu": [0.0, 0.0]},
    "maxent": {"targets": None, "tol": 1.0e-8, "max_iter": 200},
    "evolve": {
        "dt": None,
        "dt_factor": 5.05,
        "steps": 10,
        "assert_monotone": True,
    },
    "micro": {"q_dim": 2},
    "run": {"seed": 0},
}

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


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads the YAML 1.2 float forms `1e-3` and `-2E+1`.

    YAML 1.1 wants a dot and a signed exponent, so plain SafeLoader takes
    `1e-3` for a string.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"override '{item}' is not of the form key=value")
    path, raw = item.split("=", 1)
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError(f"override '{item}' has an empty key segment")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key '{path.strip()}'")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key '{path.strip()}'")
    try:
        value = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override '{item}' has unparseable value: {exc}") from exc
    node[leaf] = value


def _check_shapes(cfg: dict) -> None:
    dim = len(cfg["geometry"]["lengths"])
    for tup in cfg["modes"]["numbers"]:
        if len(tup) != dim:
            raise ConfigError(
                f"mode numbers {tup} have {len(tup)} entries for a "
                f"{dim}-dimensional box")
    if len(set(map(tuple, cfg["modes"]["numbers"]))) != len(cfg["modes"]["numbers"]):
        raise ConfigError("mode numbers contain duplicates")
    n_modes = len(cfg["modes"]["numbers"])
    n_max = cfg["basis"]["n_max"]
    statistics = Statistics(cfg["basis"]["statistics"])
    if statistics is Statistics.FERMI and n_max > n_modes:
        raise ConfigError(f"fermionic n_max {n_max} exceeds mode count {n_modes}")
    basis_dim = sum(sector_dimension(n_modes, n, statistics) for n in range(n_max + 1))
    if basis_dim > DIM_CAP:
        raise ConfigError(f"basis dimension {basis_dim} exceeds cap {DIM_CAP}")
    if cfg["potential"]["kind"] == "contact" and dim != 1:
        raise ConfigError(
            f"potential kind 'contact' is 1D only; the box is {dim}-dimensional")
    if len(cfg["grid"]["cells"]) != dim:
        raise ConfigError(
            f"cell grid has {len(cfg['grid']['cells'])} axes for a "
            f"{dim}-dimensional box")
    n_cells = 1
    for c in cfg["grid"]["cells"]:
        n_cells *= c
    for key in ("beta", "mu"):
        if len(cfg["fields"][key]) != n_cells:
            raise ConfigError(
                f"fields.{key} has {len(cfg['fields'][key])} entries for "
                f"{n_cells} cells")
    targets = cfg["maxent"]["targets"]
    if targets is not None:
        for key in ("energy", "mass"):
            if len(targets[key]) != n_cells:
                raise ConfigError(
                    f"maxent.targets.{key} has {len(targets[key])} entries "
                    f"for {n_cells} cells")


def load_config(path: str | None = None,
                overrides: Iterable[str] = ()) -> dict[str, Any]:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = yaml.load(handle, Loader=_Loader)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a mapping at top level")
        cfg = _deep_merge(cfg, loaded)
    for item in overrides:
        _apply_override(cfg, item)
    validator = _Validator(SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = ".".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigError(f"config key '{where}': {first.message}")
    _check_shapes(cfg)
    return cfg
