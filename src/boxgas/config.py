"""Run configuration: defaults, validation, dotted overrides.

One YAML document drives every subcommand. Unknown keys are rejected so a
typo cannot silently fall back to a default, and types, numeric ranges and
finiteness are policed by a table of rules before any physics object is built.
"""
from __future__ import annotations

import copy
import math
import re
from typing import Any, Iterable

import yaml

from .fock import DIM_CAP, Statistics, basis_dimension


class ConfigError(Exception):
    """Unusable configuration: bad syntax, bad values, or bad shape."""


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

# A check takes a value and returns None or (path inside the value, message).
# The rules and messages are those of a JSON Schema (Draft 2020-12) for the
# config, except that an integer key takes neither a bool nor an integral float.


def _number(minimum=None, strict=False, kind="number"):
    types = int if kind == "integer" else (int, float)

    def check(value):
        if isinstance(value, bool) or not isinstance(value, types):
            return (), f"{value!r} is not of type '{kind}'"
        if minimum is not None and (value <= minimum if strict else value < minimum):
            relation = "less than or equal to" if strict else "less than"
            return (), f"{value!r} is {relation} the minimum of {minimum!r}"
        return None
    return check


def _list_of(item):
    def check(value):
        if not isinstance(value, list):
            return (), f"{value!r} is not of type 'array'"
        if not value:
            return (), "[] should be non-empty"
        for index, entry in enumerate(value):
            problem = item(entry)
            if problem:
                return (index, *problem[0]), problem[1]
        return None
    return check


def _enum(*choices):
    def check(value):
        return None if value in choices else (
            (), f"{value!r} is not one of {list(choices)!r}")
    return check


def _null_or(rules):
    def check(value):
        if value is None or _walk(value, rules) is None:
            return None
        return (), f"{value!r} is not valid under any of the given schemas"
    return check


def _boolean(value):
    return None if isinstance(value, bool) else (
        (), f"{value!r} is not of type 'boolean'")


_POSITIVE = _number(0, strict=True)
_COUNT = _number(1, kind="integer")
_NUMBERS = _list_of(_number())

_RULES: dict[str, Any] = {
    "geometry": {"lengths": _list_of(_POSITIVE)},
    "modes": {"numbers": _list_of(_list_of(_COUNT))},
    "basis": {"n_max": _COUNT, "statistics": _enum("bose", "fermi")},
    "potential": {
        "kind": _enum("none", "contact", "gaussian", "soft-lennard-jones"),
        "strength": _number(),
        "range": _POSITIVE,
        "core": _POSITIVE,
        "order": _number(2, kind="integer"),
    },
    "scattering": {"eps": _POSITIVE},
    "generator": {"delta": _POSITIVE, "tau_max": _POSITIVE, "n_samples": _COUNT},
    "grid": {"cells": _list_of(_COUNT)},
    "fields": {"beta": _list_of(_POSITIVE), "mu": _NUMBERS},
    "maxent": {
        "targets": _null_or({"energy": _NUMBERS, "mass": _NUMBERS}),
        "tol": _POSITIVE,
        "max_iter": _COUNT,
    },
    "evolve": {
        "dt": _null_or(_POSITIVE),
        "dt_factor": _number(5.0),
        "steps": _number(4, kind="integer"),
        "assert_monotone": _boolean,
    },
    "micro": {"q_dim": _COUNT},
    "run": {"seed": _number(0, kind="integer")},
}


def _walk(value, rules):
    """First problem of `value` under a rule table or check.

    Problems come in sorted key-path order: a mapping's own problem (wrong
    type, unknown or missing keys) before those of its entries, and entries by
    key, so the report does not depend on the order of the YAML document.
    """
    if callable(rules):
        return rules(value)
    if not isinstance(value, dict):
        return (), f"{value!r} is not of type 'object'"
    # YAML keys may mix types (`1: x`), so unknown keys sort by their text
    extra = sorted((key for key in value if key not in rules), key=str)
    if extra:
        verb = "was" if len(extra) == 1 else "were"
        return (), (f"Additional properties are not allowed "
                    f"({', '.join(map(repr, extra))} {verb} unexpected)")
    for key in sorted(rules):
        if key not in value:
            return (), f"{key!r} is a required property"
        problem = _walk(value[key], rules[key])
        if problem:
            return (key, *problem[0]), problem[1]
    return None


def _nonfinite(value, path=()):
    """First NaN or infinity in a config that passed `_RULES`, in key order."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, f"{value!r} is not a finite number"
    entries = (sorted(value.items()) if isinstance(value, dict)
               else enumerate(value) if isinstance(value, list) else ())
    for key, entry in entries:
        problem = _nonfinite(entry, (*path, key))
        if problem:
            return problem
    return None


class _Loader(yaml.CSafeLoader):
    """libyaml's SafeLoader that also reads the YAML 1.2 float forms `1e-3`
    and `-2E+1`.

    YAML 1.1 wants a dot and a signed exponent, so plain SafeLoader takes
    `1e-3` for a string.  Tags still resolve in Python, so the resolver below
    applies to the C parser as well.
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


def validate(cfg: dict) -> None:
    """Raise ConfigError for the first problem of a full (merged) config.

    A value the rules reject is reported first, in key-path order; then a NaN
    or infinity, which no bound catches (nan <= 0 is false); then sizes that
    do not fit together.
    """
    problem = _walk(cfg, _RULES) or _nonfinite(cfg)
    if problem:
        path, message = problem
        where = ".".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config key '{where}': {message}")
    dim = len(cfg["geometry"]["lengths"])
    if dim not in (1, 3):
        raise ConfigError(f"geometry.lengths has {dim} entries; the box must be 1D or 3D")
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
    basis_dim = basis_dimension(n_modes, n_max, statistics)
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
    validate(cfg)
    return cfg
