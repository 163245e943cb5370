"""Scenario configuration: strict YAML schema, presets, and builders.

A scenario file is a single YAML document with named sections.  Unknown keys
anywhere are hard errors: a silently ignored typo could invalidate a whole
verification run.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .evolution import SolverConfig
from .grid import DensityField, SizeGrid, project
from .kernels import (AbsorptionRate, CoagulationKernel, DaughterDistribution,
                      FragmentationRate, GrowthRate, KernelSet)
from .presets import get_preset, preset_names

__all__ = ["ScenarioConfig", "ConfigFileError", "load_scenario", "SCHEMA"]


class ConfigFileError(ValueError):
    """Schema violation with the offending field path."""


SCHEMA: dict = {
    "kernels": {
        "fragmentation": {"kind", "a0", "gamma0", "x0", "table_x", "table_a"},
        "daughter": {"kind", "nu", "table_u", "table_phi"},
        "growth": {"kind", "r0", "r1", "table_x", "table_r"},
        "coagulation": {"kind", "k0", "alpha", "bound_class", "table_x", "table_k"},
        "ball_radius": None,
    },
    "grid": {"xmin": None, "xmax": None, "cells": None},
    "time": {"dt": None, "t_end": None, "output_every": None},
    "solver": {"scheme": None, "m": None, "n": None, "p": None, "positivity_policy": None,
               "blowup_ceiling": None, "picard_max_iter": None},
    "initial": {"profile": None, "amplitude": None, "decay": None, "exponent": None,
                "lo": None, "hi": None},
    "probe": {"eta": None, "t_lo": None, "t_hi": None, "n_times": None, "stability_tol": None},
    "checks": {"suites": None,
               "tolerances": {"coag_moment2", "cross_validation", "domination", "laplace",
                              "m1_envelope", "mass_budget", "oracle", "pde_residual",
                              "quasi_contractivity", "resolvent_residual"}},
    "seed": None,
}


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


PROFILES = ("exponential", "mass-exponential", "powerlaw-decay", "indicator", "zero")


@dataclass
class ScenarioConfig:
    """Parsed and cross-validated scenario."""

    raw: dict
    source: str = "<dict>"

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    @property
    def check_suites(self) -> list[str]:
        return list(self.raw.get("checks", {}).get("suites", []) or [])

    def tolerance(self, name: str, default: float) -> float:
        return float(self.raw.get("checks", {}).get("tolerances", {}).get(name, default))

    # -- builders -------------------------------------------------------
    def kernel_set(self) -> KernelSet:
        ker = self.raw["kernels"]
        fr = ker.get("fragmentation", {})
        a = FragmentationRate(
            kind=fr.get("kind", "power-law"), a0=float(fr.get("a0", 1.0)),
            gamma0=float(fr.get("gamma0", 1.0)), x0=float(fr.get("x0", 1.0)),
            table_x=fr.get("table_x"), table_a=fr.get("table_a"))
        da = ker.get("daughter", {})
        b = DaughterDistribution(kind=da.get("kind", "uniform-binary"),
                                 nu=float(da.get("nu", 0.0)),
                                 table_u=da.get("table_u"), table_phi=da.get("table_phi"))
        gr = ker.get("growth", {})
        r = GrowthRate(kind=gr.get("kind", "constant"), r0=float(gr.get("r0", 0.0)),
                       r1=float(gr.get("r1", 0.0)),
                       table_x=gr.get("table_x"), table_r=gr.get("table_r"))
        co = ker.get("coagulation", {})
        k = CoagulationKernel(kind=co.get("kind", "constant"), k0=float(co.get("k0", 0.0)),
                              alpha=float(co.get("alpha", 0.5)),
                              bound_class=co.get("bound_class", "global"),
                              table_x=co.get("table_x"), table_k=co.get("table_k"))
        return KernelSet(a, b, r, k, AbsorptionRate.for_ball(k, self.ball_radius))

    @property
    def ball_radius(self) -> float:
        return float(self.raw["kernels"].get("ball_radius", 1.0))

    def grid(self) -> SizeGrid:
        g = self.raw["grid"]
        return SizeGrid.geometric(float(g["xmin"]), float(g["xmax"]), int(g["cells"]))

    def solver_config(self) -> SolverConfig:
        t = self.raw.get("time", {})
        s = self.raw.get("solver", {})
        return SolverConfig(
            dt=float(t.get("dt", 1e-3)), t_end=float(t.get("t_end", 1.0)),
            output_every=float(t.get("output_every", 0.05)),
            scheme=s.get("scheme", "strang-split"),
            m=float(s.get("m", 2.0)),
            n=None if s.get("n") is None else float(s["n"]),
            p=None if s.get("p") is None else float(s["p"]),
            ball_radius=self.ball_radius,
            positivity_policy=s.get("positivity_policy", "guaranteed"),
            blowup_ceiling=float(s.get("blowup_ceiling", 1e6)),
            picard_max_iter=int(s.get("picard_max_iter", 30)))

    def initial_field(self, grid: SizeGrid) -> DensityField:
        init = self.raw.get("initial", {"profile": "exponential"})
        profile = init.get("profile", "exponential")
        amp = float(init.get("amplitude", 1.0))
        if profile not in PROFILES:
            raise ConfigFileError(f"unknown initial profile {profile!r}; "
                                  f"allowed: {', '.join(PROFILES)}")
        if profile == "zero":
            return DensityField.zeros(grid)
        if profile == "exponential":
            c = float(init.get("decay", 1.0))
            return project(lambda x: amp * np.exp(-c * x), grid)
        if profile == "mass-exponential":
            c = float(init.get("decay", 1.0))
            return project(lambda x: amp * x * np.exp(-c * x), grid)
        if profile == "powerlaw-decay":
            q = float(init.get("exponent", 3.25))
            return project(lambda x: amp * np.power(1.0 + x, -q), grid)
        lo, hi = float(init.get("lo", grid.xmin)), float(init.get("hi", grid.xmax))
        return project(lambda x: np.where((x >= lo) & (x <= hi), amp, 0.0), grid)

    def probe_params(self) -> dict:
        """The probe's own settings; its weight orders and time step are the
        solver's."""
        pr = self.raw.get("probe", {})
        return {"eta": float(pr.get("eta", 0.25)),
                "t_list": np.geomspace(float(pr.get("t_lo", 1e-2)), float(pr.get("t_hi", 1.0)),
                                       int(pr.get("n_times", 13))),
                "stability_tol": float(pr.get("stability_tol", 0.25))}

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
        ks = self.kernel_set()
        grid = self.grid()
        self.solver_config().validate(ks, grid)
        self.initial_field(SizeGrid.geometric(grid.xmin, grid.xmax, 16))


def load_scenario(config: str | Path | dict) -> ScenarioConfig:
    """Load a scenario from a YAML path, a preset name, or a raw dict."""
    if isinstance(config, dict):
        sc = ScenarioConfig(copy.deepcopy(config))
    else:
        text = str(config)
        if text in preset_names():
            sc = ScenarioConfig(get_preset(text), source=f"preset:{text}")
        else:
            path = Path(text)
            if not path.exists():
                raise ConfigFileError(
                    f"'{text}' is neither a config file nor a preset "
                    f"(presets: {', '.join(preset_names())})")
            with open(path) as fh:
                try:
                    raw = yaml.safe_load(fh)
                except yaml.YAMLError as exc:
                    raise ConfigFileError(f"YAML parse error in {path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigFileError(f"{path} does not contain a mapping")
            sc = ScenarioConfig(raw, source=str(path))
    sc.validate()
    return sc
