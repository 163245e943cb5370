"""The benchmark's workloads: scenario, set-up, timed call and output gates.

Every workload is set up the same way (`set_up`: scenario validation,
initial field, daughter matrix, coagulation tables and the splitting stepper,
i.e. everything before the first time step) and then runs one timed call
through gfc's public functions.  Calls go through module attributes so that
names rebound by the tracer are the ones used.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import yaml

from gfc import cli, config, evolution, presets, report
from spans import patched

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

MASS_LEDGER_TOL = 1e-8
# err_ref measures time-discretisation error against a dt/8 reference (at
# most 1.6e-3, on setup-table, when the references were made); a run about
# thirty times further off is wrong, not merely slow
ERR_REF_TOL = 5e-2
CLI_CHECK_ROWS = 25


# Horizons are short, so that one 30-second run times 17 to 36 calls and
# its median is steady (README, "Workloads").

def split_coag_raw(seed: int) -> dict:
    raw = presets.get_preset("gfc-global-ii")
    raw["time"]["t_end"] = 0.05          # 50 steps of the shipped preset
    raw["seed"] = seed
    return raw


def picard_xval_raw(seed: int) -> dict:
    # the configuration report._suite_cross_validation hands to duhamel_solve
    raw = presets.get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 128
    raw["solver"]["scheme"] = "duhamel"
    raw["time"]["output_every"] = 0.025
    raw["time"]["t_end"] = 0.1
    raw["seed"] = seed
    return raw


def cli_run_raw(seed: int) -> dict:
    raw = presets.get_preset("gfc-global-i")
    raw["grid"]["cells"] = 256
    raw["time"]["t_end"] = 0.05
    raw["seed"] = seed
    return raw


def setup_table_raw(seed: int) -> dict:
    raw = presets.get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 128
    raw["time"]["t_end"] = 0.25
    u = np.linspace(0.0, 1.0, 17)
    gx = np.geomspace(1e-4, 400.0, 40)
    kx = np.geomspace(1e-4, 400.0, 24)
    sq = np.sqrt(kx)
    ker = raw["kernels"]
    ker["daughter"] = {"kind": "table", "table_u": u.tolist(),
                       "table_phi": (6.0 * u * (1.0 - u) + 0.5).tolist()}
    ker["growth"] = {"kind": "table", "table_x": gx.tolist(),
                     "table_r": (1e-3 + 0.25 * gx).tolist(), "r0": 1e-3, "r1": 0.25}
    ker["coagulation"] = {"kind": "table", "table_x": kx.tolist(),
                          "table_k": (0.5 * (1.0 + sq[:, None] + sq[None, :])).tolist(),
                          "k0": 0.5, "alpha": 0.5, "bound_class": "global"}
    raw["seed"] = seed
    return raw


def set_up(raw: dict) -> report.ScenarioContext:
    """Everything a solve needs before its first time step."""
    sc = config.load_scenario(raw)
    ctx = report.ScenarioContext(sc)
    evolution.SplitStepper(ctx.ks, ctx.grid, ctx.cfg, dm=ctx.dm, ct=ctx.ct)
    return ctx


@dataclass
class Outcome:
    """What one timed call produced, for the gates and err_ref."""

    traj: Optional[evolution.Trajectory] = None
    csv: list = field(default_factory=list)     # CSV texts of equal-input solves
    gates: dict = field(default_factory=dict)   # name -> passed


def _op_solve(ctx, out_dir: Path) -> Outcome:
    traj = evolution.solve(ctx.f0, ctx.cfg, ctx.ks, dm=ctx.dm, ct=ctx.ct)
    return Outcome(traj, [report.trajectory_csv_text(traj)])


def _op_duhamel(ctx, out_dir: Path) -> Outcome:
    traj, rep = evolution.duhamel_solve(ctx.f0, ctx.cfg, ctx.ks)
    return Outcome(traj, [report.trajectory_csv_text(traj)],
                   {"picard-converged": bool(rep.converged)})


def _op_cli(ctx, out_dir: Path) -> Outcome:
    """`gfc run` in process on the set-up's scenario, passed as a YAML file
    (gfc-global-i at 256 cells, to t = 0.05); captures the written
    trajectory, the check rows and every solve, to gate outputs the CLI only
    prints."""
    seen: dict = {"written": [], "reports": [], "solves": []}
    write_csv, run_suites, solve = (report.write_trajectory_csv, report.run_suites,
                                    report.solve)

    def capture_csv(path, traj, bounds=None):
        seen["written"].append(traj)
        return write_csv(path, traj, bounds)

    def capture_suites(*args, **kwargs):
        rep, c = run_suites(*args, **kwargs)
        seen["reports"].append(rep)
        return rep, c

    def capture_solve(*args, **kwargs):
        traj = solve(*args, **kwargs)
        seen["solves"].append(traj)
        return traj

    scenario = out_dir / "gfc-global-i.yaml"
    scenario.write_text(yaml.safe_dump(ctx.sc.echo()))
    argv = ["run", "--config", str(scenario), "--out", str(out_dir)]
    with patched({("gfc.report", "write_trajectory_csv"): capture_csv,
                  ("gfc.report", "run_suites"): capture_suites,
                  ("gfc.evolution", "solve"): capture_solve}), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    rows = [r for rep in seen["reports"] for r in rep.rows]
    gates = {"exit-code-0": rc == 0,
             f"{CLI_CHECK_ROWS}-check-rows": len(rows) == CLI_CHECK_ROWS}
    for r in rows:
        gates[f"check:{r.suite}/{r.name}"] = r.passed
    traj = seen["written"][0] if seen["written"] else None
    return Outcome(traj, [report.trajectory_csv_text(t) for t in seen["solves"]], gates)


@dataclass(frozen=True)
class Workload:
    name: str
    raw: Callable[[int], dict]
    op: Callable
    has_ledger: bool = True


WORKLOADS = {w.name: w for w in (
    Workload("split-coag", split_coag_raw, _op_solve),
    # Duhamel trajectories carry no growth ledger (growth_mass is recorded as 0)
    Workload("picard-xval", picard_xval_raw, _op_duhamel, has_ledger=False),
    Workload("cli-run", cli_run_raw, _op_cli),
    Workload("setup-table", setup_table_raw, _op_solve),
)}


# ---------------------------------------------------------------------------
# reference states and gates


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> np.ndarray:
    with open(reference_path(name)) as fh:
        return np.asarray(json.load(fh)["values"], dtype=float)


def err_ref(traj: evolution.Trajectory, ref: np.ndarray) -> float:
    """Relative (1 + x^m)-weighted distance of the final state from ref."""
    grid = traj.grid
    w = (1.0 + np.power(grid.centers, traj.m_order)) * grid.widths
    return float(np.sum(np.abs(traj.fields[-1].values - ref) * w) / np.sum(np.abs(ref) * w))


def output_gates(wl: Workload, out: Outcome, err: float) -> dict:
    """Gates every timed call must pass, beyond the workload's own."""
    gates = dict(out.gates)
    traj = out.traj
    gates["trajectory-present"] = traj is not None and traj.outcome == "completed"
    if traj is None:
        return gates
    if wl.has_ledger:
        scale = max(float(np.max(np.abs(traj.M1))), 1e-300)
        resid = np.abs(traj.M1 + traj.escaped_mass - traj.growth_mass - traj.M1[0]) / scale
        gates["mass-ledger"] = bool(float(np.max(resid)) <= MASS_LEDGER_TOL)
    gates["min-density"] = bool(float(np.min(traj.min_density)) >= 0.0)
    gates["err-ref"] = bool(err <= ERR_REF_TOL)
    gates["csv-identical-in-call"] = len(set(out.csv)) <= 1
    return gates
