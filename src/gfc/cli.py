"""Command line interface: run, verify, probe-regularization, bounds, list-presets.

Exit codes: 0 success, 1 runtime/configuration error, 2 at least one enabled
check failed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import moment_bounds as mb
from .config import ConfigFileError, ScenarioConfig, load_scenario
from .evolution import ConfigError, NumericalFailureError, SetupError
from .kernels import KernelConfigError, QuadratureError
from .presets import preset_description, preset_names
from .report import ScenarioContext, run_suites, write_trajectory_csv
from .transport import ParameterDomainError

USER_ERRORS = (ConfigFileError, ConfigError, KernelConfigError, SetupError,
               ParameterDomainError, QuadratureError, NumericalFailureError,
               mb.InfeasibleParamsError)


def _scenario_name(sc: ScenarioConfig) -> str:
    src = sc.source
    if src.startswith("preset:"):
        return src.split(":", 1)[1]
    return Path(src).stem if src != "<dict>" else "scenario"


def _context(args) -> ScenarioContext:
    """The scenario with --cells and --dt set on top, validated once."""
    overrides = {}
    if args.cells is not None:
        overrides["grid"] = {"cells": args.cells}
    if args.dt is not None:
        overrides["time"] = {"dt": args.dt}
    return ScenarioContext(load_scenario(args.config, overrides))


def _csv_path(ctx: ScenarioContext, args) -> Path:
    return Path(args.out) / f"{_scenario_name(ctx.sc)}_trajectory.csv"


def _write_csv(ctx: ScenarioContext, args) -> Path:
    """Write the trajectory CSV; it carries the bound columns when the
    moment-domination suite is enabled and a bound system exists."""
    bounds = None
    if "moment-domination" in ctx.sc.check_suites:
        try:
            bounds = ctx.bounds
        except mb.InfeasibleParamsError as exc:
            print(f"bounds unavailable: {exc}", file=sys.stderr)
    return write_trajectory_csv(_csv_path(ctx, args), ctx.trajectory, bounds)


def cmd_run(args) -> int:
    ctx = _context(args)
    traj, drep = ctx.solution
    if drep is not None:
        print(f"duhamel: {drep.iterations} iterations, converged={drep.converged}, "
              f"contraction window {drep.contraction_window:g}")
    path = _write_csv(ctx, args)
    print(f"trajectory: {path}  (outcome: {traj.outcome})")

    if ctx.sc.check_suites:
        report, _ = run_suites(ctx)
        print(report.render(), end="")
        return report.exit_code
    return 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    report, _ = run_suites(ctx)
    path = _write_csv(ctx, args)
    print(f"scenario: {ctx.sc.source}")
    print(report.render(), end="")
    print(f"trajectory: {path}")
    return report.exit_code


def cmd_probe(args) -> int:
    ctx = _context(args)
    report, _ = run_suites(ctx, suites=["regularization-probe"])
    print(report.render(), end="")
    return report.exit_code


def cmd_bounds(args) -> int:
    ctx = _context(args)
    bounds = ctx.bounds
    report, _ = run_suites(ctx, suites=["moment-domination"])
    path = write_trajectory_csv(_csv_path(ctx, args), ctx.trajectory, bounds)
    print(f"certified condition: ({ctx.conditions.certified})")
    print(report.render(), end="")
    print(f"trajectory: {path}")
    return report.exit_code


def cmd_list_presets(_args) -> int:
    for name in preset_names():
        print(f"{name:24s} {preset_description(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gfc",
        description="growth-fragmentation-coagulation solver and verification harness")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="YAML scenario file or built-in preset name")
        p.add_argument("--out", default="out", help="output directory for CSV files")
        p.add_argument("--cells", type=int, default=None, help="override grid cells")
        p.add_argument("--dt", type=float, default=None, help="override time step")

    p = sub.add_parser("run", help="run the scenario and emit the trajectory CSV")
    common(p)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("verify", help="execute every enabled invariant suite")
    common(p)
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("probe-regularization", help="run the moment-regularization probe")
    common(p)
    p.set_defaults(func=cmd_probe)
    p = sub.add_parser("bounds", help="integrate the a priori moment bounds and check domination")
    common(p)
    p.set_defaults(func=cmd_bounds)
    p = sub.add_parser("list-presets", help="list built-in scenario presets")
    p.set_defaults(func=cmd_list_presets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
