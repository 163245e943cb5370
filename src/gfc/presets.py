"""Built-in scenario presets.

Each preset is a plain config dictionary in the same schema as the YAML
files accepted by the CLI, so `--config` takes either a file path or one of
these names.
"""
from __future__ import annotations

import copy

__all__ = ["PRESETS", "preset_names", "get_preset", "preset_description"]


PRESETS: dict[str, dict] = {
    "aizenman-bak-frag": {
        "description": "pure fragmentation with a(x)=x, b=2/y; mass-conserving, "
                       "closed-form solution from an exponential start",
        "kernels": {
            "fragmentation": {"kind": "power-law", "a0": 1.0, "gamma0": 1.0, "x0": 1.0},
            "daughter": {"kind": "uniform-binary"},
            "growth": {"kind": "constant", "r0": 0.0},
            "coagulation": {"kind": "constant", "k0": 0.0, "alpha": 0.5},
            "ball_radius": 1.0,
        },
        "grid": {"xmin": 1.0e-3, "xmax": 60.0, "cells": 512},
        "time": {"dt": 1.0e-3, "t_end": 1.0, "output_every": 0.1},
        "solver": {"scheme": "strang-split", "m": 2.0},
        "initial": {"profile": "exponential", "amplitude": 1.0, "decay": 1.0},
        "checks": {"suites": ["kernel-validation", "frag-identities", "mass-budget",
                              "positivity", "oracle", "quasi-contractivity",
                              "pde-residual", "determinism"]},
    },
    "constant-coag": {
        "description": "pure coagulation with a constant kernel; the total "
                       "number follows the closed-form decay oracle",
        "kernels": {
            "fragmentation": {"kind": "power-law", "a0": 0.0, "gamma0": 1.0, "x0": 1.0},
            "daughter": {"kind": "uniform-binary"},
            "growth": {"kind": "constant", "r0": 0.0},
            "coagulation": {"kind": "constant", "k0": 2.0, "alpha": 0.5,
                            "bound_class": "global"},
            "ball_radius": 4.0,
        },
        "grid": {"xmin": 1.0e-3, "xmax": 50.0, "cells": 512},
        "time": {"dt": 1.0e-3, "t_end": 1.0, "output_every": 0.05},
        "solver": {"scheme": "strang-split", "m": 2.0},
        "initial": {"profile": "exponential", "amplitude": 1.0, "decay": 1.0},
        "checks": {"suites": ["coag-identities", "mass-budget", "positivity",
                              "oracle", "negative-control", "determinism"]},
    },
    "gfc-global-ii": {
        "description": "full growth-fragmentation-coagulation run in the "
                       "global-existence class with r(x) = rtilde*x",
        "kernels": {
            "fragmentation": {"kind": "power-law", "a0": 1.0, "gamma0": 1.0, "x0": 1.0},
            "daughter": {"kind": "uniform-binary"},
            "growth": {"kind": "linear", "r1": 0.25},
            "coagulation": {"kind": "sum", "k0": 0.5, "alpha": 0.5,
                            "bound_class": "global"},
            "ball_radius": 1.0,
        },
        "grid": {"xmin": 1.0e-3, "xmax": 50.0, "cells": 512},
        "time": {"dt": 1.0e-3, "t_end": 1.0, "output_every": 0.05},
        "solver": {"scheme": "strang-split", "m": 2.0, "n": 1.25, "p": 1.5},
        "initial": {"profile": "mass-exponential", "amplitude": 0.1, "decay": 1.0},
        "checks": {"suites": ["kernel-validation", "frag-identities", "coag-identities",
                              "mass-budget", "positivity", "quasi-contractivity",
                              "resolvent", "integral-bounds", "laplace",
                              "solver-cross-validation", "moment-domination",
                              "determinism"]},
    },
    "gfc-global-i": {
        "description": "full system with affine growth; global existence "
                       "certified through the affine production bound",
        "kernels": {
            "fragmentation": {"kind": "power-law", "a0": 1.0, "gamma0": 1.0, "x0": 1.0},
            "daughter": {"kind": "uniform-binary"},
            "growth": {"kind": "affine", "r0": 0.1, "r1": 0.1},
            "coagulation": {"kind": "sum", "k0": 0.5, "alpha": 0.5,
                            "bound_class": "global"},
            "ball_radius": 1.0,
        },
        "grid": {"xmin": 0.02, "xmax": 50.0, "cells": 512},
        "time": {"dt": 1.0e-3, "t_end": 1.0, "output_every": 0.05},
        "solver": {"scheme": "strang-split", "m": 2.0, "n": 1.25, "p": 1.5},
        "initial": {"profile": "mass-exponential", "amplitude": 0.1, "decay": 1.0},
        "checks": {"suites": ["kernel-validation", "mass-budget", "positivity",
                              "moment-domination", "determinism"]},
    },
    "regularization-probe": {
        "description": "linear growth-fragmentation with heavy-tailed initial "
                       "data probing the moment-regularization rate",
        "kernels": {
            "fragmentation": {"kind": "power-law", "a0": 1.0, "gamma0": 1.0, "x0": 1.0},
            "daughter": {"kind": "uniform-binary"},
            "growth": {"kind": "linear", "r1": 1.0},
            "coagulation": {"kind": "constant", "k0": 0.0, "alpha": 0.5},
            "ball_radius": 1.0,
        },
        "grid": {"xmin": 1.0e-4, "xmax": 256.0, "cells": 512},
        "time": {"dt": 1.0e-3, "t_end": 1.0, "output_every": 0.1},
        "solver": {"scheme": "lie-split", "m": 3.5, "n": 1.5, "p": 2.0},
        "initial": {"profile": "powerlaw-decay", "amplitude": 1.0, "exponent": 3.25},
        "checks": {"suites": ["kernel-validation", "regularization-probe",
                              "determinism"]},
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS.keys())


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    cfg = copy.deepcopy(PRESETS[name])
    cfg.pop("description", None)
    return cfg


def preset_description(name: str) -> str:
    return PRESETS[name].get("description", "")
