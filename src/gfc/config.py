"""Scenario configuration: strict YAML schema, presets, and builders.

A scenario file is a single YAML document with named sections.  Unknown keys
anywhere are hard errors: a silently ignored typo could invalidate a whole
verification run.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from .evolution import SolverConfig
from .grid import DensityField, GridError, SizeGrid, project
from .kernels import (AbsorptionRate, CoagulationKernel, DaughterDistribution,
                      FragmentationRate, GrowthRate, KernelSet, built_once)
from .presets import get_preset, preset_names

__all__ = ["ScenarioConfig", "ConfigFileError", "load_scenario", "SCHEMA"]


# libyaml's parser when PyYAML was built with it; the resolver is the same
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigFileError(ValueError):
    """Schema violation with the offending field path."""


KERNELS = {"fragmentation": FragmentationRate, "daughter": DaughterDistribution,
           "growth": GrowthRate, "coagulation": CoagulationKernel}
TIME_KEYS = {"dt", "t_end", "output_every"}


def _keys(cls) -> set:
    """The keys of the section that builds cls: its public fields."""
    return {f.name for f in fields(cls) if not f.name.startswith("_")}


PROFILES = {"exponential": lambda x, p: p.amplitude * np.exp(-p.decay * x),
            "mass-exponential": lambda x, p: p.amplitude * x * np.exp(-p.decay * x),
            "powerlaw-decay": lambda x, p: p.amplitude * np.power(1.0 + x, -p.exponent)}


@dataclass(frozen=True)
class InitialProfile:
    """The `initial` section: a named profile and its parameters."""

    profile: str = "exponential"
    amplitude: float = 1.0
    decay: float = 1.0
    exponent: float = 3.25

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigFileError(f"unknown initial profile {self.profile!r}; "
                                  f"allowed: {', '.join(PROFILES)}")
        if not self.amplitude >= 0:
            raise ConfigFileError(f"'initial.amplitude' must be >= 0, got {self.amplitude}")


SCHEMA: dict = {
    "kernels": {**{name: _keys(cls) for name, cls in KERNELS.items()}, "ball_radius": None},
    "grid": {"xmin": None, "xmax": None, "cells": None},
    "time": TIME_KEYS,
    "solver": _keys(SolverConfig) - TIME_KEYS - {"ball_radius"},
    "initial": _keys(InitialProfile),
    "checks": {"suites": None},
    "seed": None,   # read by nothing; benchmarks/workloads.py still sets it
}

_CASTS = {"float": float, "Optional[float]": float, "int": int}


def _fields(cls, section: dict, path: str) -> dict:
    """A scenario section as keyword arguments of cls, one per field name,
    so every default is the dataclass's.  Numbers are cast by the field's
    annotation: PyYAML reads `1e-3` (no dot) as a string.  An int field
    takes a whole number, written `64` or `64.0`, and every number is
    finite."""
    types = {f.name: f.type for f in fields(cls)}
    out = {}
    for key, value in section.items():
        cast = _CASTS.get(types.get(key))
        if cast is None or value is None:
            out[key] = value
            continue
        try:
            number = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"'{path}{key}' must be a number, got {value!r}") from exc
        if cast is int and not number.is_integer():
            raise ConfigFileError(f"'{path}{key}' must be a whole number, got {value!r}")
        if not math.isfinite(number):
            raise ConfigFileError(f"'{path}{key}' must be finite, got {value!r}")
        out[key] = cast(number)
    return out


def _check_keys(node: Any, schema: Any, path: str) -> None:
    """Reject unknown keys and sections that are not mappings; a null
    section (`checks:` with nothing under it) is replaced by an empty one
    in place."""
    if schema is None or not isinstance(node, dict):
        return
    for key, sub in node.items():
        if key not in schema:
            raise ConfigFileError(
                f"unknown key '{path}{key}' (allowed: {', '.join(sorted(map(str, schema)))})")
        allowed = schema[key] if isinstance(schema, dict) else None
        if sub is None and allowed is not None:
            node[key] = sub = {}
        if allowed is not None and not isinstance(sub, dict):
            raise ConfigFileError(f"'{path}{key}' must be a mapping, got {sub!r}")
        _check_keys(sub, allowed, f"{path}{key}.")


@dataclass
class ScenarioConfig:
    """A scenario's raw mapping and the parts built from it, each parsed on
    first use and the same object after, so one set-up parses every section
    once; consumers derive variants with dataclasses.replace."""

    raw: dict
    source: str = "<dict>"

    @property
    def check_suites(self) -> list[str]:
        return list(self.raw.get("checks", {}).get("suites", []) or [])

    # -- builders -------------------------------------------------------
    @built_once
    def kernel_set(self) -> KernelSet:
        ker = self.raw["kernels"]
        a, b, r, k = (cls(**_fields(cls, ker.get(name, {}), f"kernels.{name}."))
                      for name, cls in KERNELS.items())
        return KernelSet(a, b, r, k, AbsorptionRate.for_ball(k, self.solver_config().ball_radius))

    @built_once
    def grid(self) -> SizeGrid:
        try:
            return SizeGrid.geometric(**_fields(SizeGrid, self.raw["grid"], "grid."))
        except GridError as exc:
            raise ConfigFileError(f"bad 'grid' section: {exc}") from exc

    @built_once
    def solver_config(self) -> SolverConfig:
        ker = self.raw["kernels"]
        radius = _fields(SolverConfig, {"ball_radius": ker["ball_radius"]}
                         if "ball_radius" in ker else {}, "kernels.")
        if not radius.get("ball_radius", 0.0) >= 0:
            raise ConfigFileError(
                f"'kernels.ball_radius' must be >= 0, got {radius['ball_radius']}")
        return SolverConfig(**radius,
                            **_fields(SolverConfig, self.raw.get("time", {}), "time."),
                            **_fields(SolverConfig, self.raw.get("solver", {}), "solver."))

    @built_once
    def initial_profile(self) -> InitialProfile:
        return InitialProfile(**_fields(InitialProfile, self.raw.get("initial", {}), "initial."))

    @built_once
    def initial_field(self, grid: SizeGrid) -> DensityField:
        """The initial profile projected on grid, read-only; refused where not finite."""
        p = self.initial_profile()
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = project(lambda x: PROFILES[p.profile](x, p), grid)
        if not np.isfinite(f0.values).all():
            raise ConfigFileError(f"'initial' is not finite on [{grid.xmin:g}, {grid.xmax:g}]: {p}")
        f0.values.flags.writeable = False
        return f0

    def echo(self) -> dict:
        return copy.deepcopy(self.raw)

    def validate(self) -> None:
        _check_keys(self.raw, SCHEMA, "")
        for section in ("kernels", "grid"):
            if section not in self.raw:
                raise ConfigFileError(f"missing required section '{section}'")
        for key in ("xmin", "xmax", "cells"):
            if key not in self.raw["grid"]:
                raise ConfigFileError(f"missing required key 'grid.{key}'")
        # cross-field constraints fail early, before any run
        self.solver_config().validate(self.kernel_set(), self.grid())
        self.initial_field(self.grid())


def load_scenario(config: str | Path | dict, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Load a scenario from a YAML path, a preset name, or a raw dict, merge
    in `overrides` (a partial scenario such as {"grid": {"cells": 64}}) key
    by key before anything is parsed, and validate the result once."""
    text = str(config)
    if isinstance(config, dict):
        raw, source = copy.deepcopy(config), "<dict>"
    elif text in preset_names():
        raw, source = get_preset(text), f"preset:{text}"
    elif not Path(text).exists():
        raise ConfigFileError(f"'{text}' is neither a config file nor a preset "
                              f"(presets: {', '.join(preset_names())})")
    else:
        source = str(Path(text))
        try:
            raw = yaml.load(Path(text).read_text(), Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigFileError(f"YAML parse error in {source}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigFileError(f"{source} does not contain a mapping")
    _check_keys(raw, SCHEMA, "")    # the sections are mappings before the merge
    for key, value in (overrides or {}).items():
        raw[key] = {**raw.get(key, {}), **value} if isinstance(value, dict) else value
    sc = ScenarioConfig(raw, source)
    sc.validate()
    return sc
