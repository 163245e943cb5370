"""Verification suites, run reports and CSV emission.

Each suite turns one analytically testable property into pass/fail rows with measured
values and bounds.  Suites and the CSV writer share one `ScenarioContext`,
which solves the scenario once with its configured scheme and assembles the
moment-bound cascade once on that trajectory.  A `gfc run` or `gfc verify`
pass therefore costs one solve plus the runs a check needs of its own: one
fresh solve for determinism, a Duhamel solve for cross-validation (and a
splitting solve when the scenario itself is Duhamel), and the linear runs of
the regularization probe.
"""
from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from . import moment_bounds as mb
from .coagulation import build_coag_tables, coag_loss_rate, coag_moment_identity
from .config import ScenarioConfig
from .evolution import (PICARD_TOL, ConfigError, DuhamelReport, SolverConfig, SplitStepper,
                        Trajectory, duhamel_solve, mild_premise, pde_residual,
                        regularization_probe, solve)
from .fragmentation import build_daughter_matrix, frag_moment_identity, neglected_gain_estimate
from .grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from .kernels import FragmentationRate, GrowthRate, KernelSet, ReportRow, validate_kernel_set
from .transport import (Antiderivatives, SpectralParams, resolvent_integral_bounds,
                        laplace_consistency, resolvent_apply, resolvent_norm,
                        resolvent_residual, transport_norms, v_lambda_diagnostics)

__all__ = ["ReportRow", "RunReport", "ScenarioContext", "run_suites", "render_rows",
           "write_trajectory_csv", "trajectory_csv_text", "SUITES"]


@dataclass
class RunReport:
    rows: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 2

    def render(self) -> str:
        n_fail = sum(not r.passed for r in self.rows)
        return (render_rows(self.rows)
                + f"{len(self.rows)} checks, {n_fail} failures ({self.elapsed:.1f}s)\n")


def render_rows(rows: list[ReportRow]) -> str:
    """One line per row: status, suite/name, the rule `measured=... <= bound`
    with its tolerance when non-zero, and the detail."""
    out = io.StringIO()
    width = max([len(f"{r.suite}/{r.name}") for r in rows], default=20)
    for r in rows:
        tag = {"pass": "PASS", "fail": "FAIL", "n/a": " n/a"}[r.status]
        rule = ("" if r.relation is None
                else f" measured={r.measured:.6g} {r.relation} {r.bound:.6g}")
        rule += f" (tol {r.tol:.3g})" if r.tol else ""
        det = f"  [{r.detail}]" if r.detail else ""
        out.write(f"{tag}  {f'{r.suite}/{r.name}':<{width}}{rule}{det}\n")
    return out.getvalue()


def trajectory_csv_text(traj: Trajectory, bounds: Optional[mb.BoundTrajectory] = None) -> str:
    cols = ["t", "M0", "M1", "M2", "Mm", "norm0m", "min_density", "escaped_mass"]
    arrays = [traj.times, traj.M0, traj.M1, traj.M2, traj.Mm, traj.norm0m,
              traj.min_density, traj.escaped_mass]
    if bounds is not None:
        for key in (0, 1, 2):
            if key in bounds.columns:
                cols.append(f"bound_{key}")
                arrays.append(bounds.column(key))
        bound_m = bounds.order_bound(traj.m_order)
        if bound_m is not None:
            cols.append("bound_m")
            arrays.append(bound_m)
    lines = [",".join(cols)]
    for k in range(len(traj.times)):
        lines.append(",".join(f"{float(a[k]):.17g}" for a in arrays))
    return "\n".join(lines) + "\n"


def write_trajectory_csv(path: Path, traj: Trajectory,
                         bounds: Optional[mb.BoundTrajectory] = None) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trajectory_csv_text(traj, bounds))
    return path


class ScenarioContext:
    """One scenario's verification run: the very parts `sc` built at load, and
    the objects the suites share, built on first use.  A suite name that is
    not in SUITES is refused here, before anything is solved."""

    def __init__(self, sc: ScenarioConfig):
        if unknown := [name for name in sc.check_suites if name not in SUITES]:
            raise ConfigError(f"unknown check suite {unknown[0]!r}; "
                              f"available: {', '.join(sorted(SUITES))}")
        self.sc = sc
        self.ks: KernelSet = sc.kernel_set()
        self.grid: SizeGrid = sc.grid()
        self.cfg: SolverConfig = sc.solver_config()
        self.f0: DensityField = sc.initial_field(self.grid)

    @cached_property
    def dm(self):
        return None if self.ks.a.is_zero else build_daughter_matrix(self.ks.b, self.grid)

    @cached_property
    def ct(self):
        return None if self.ks.k.is_zero else build_coag_tables(self.ks.k, self.grid)

    def fresh_solve(self) -> tuple[Trajectory, Optional[DuhamelReport]]:
        """Solve the scenario with its configured scheme, bypassing the cache."""
        if self.cfg.scheme == "duhamel":
            return duhamel_solve(self.f0, self.cfg, self.ks, dm=self.dm, ct=self.ct)
        return solve(self.f0, self.cfg, self.ks, dm=self.dm, ct=self.ct), None

    @cached_property
    def solution(self) -> tuple[Trajectory, Optional[DuhamelReport]]:
        """The scenario's one solve; the Picard report is None for splitting."""
        return self.fresh_solve()

    @property
    def trajectory(self) -> Trajectory:
        return self.solution[0]

    @cached_property
    def antid(self) -> Optional[Antiderivatives]:
        """R and Q, one Q table for every check; None when growth is off."""
        return None if self.ks.r.is_zero else Antiderivatives(self.ks)

    @cached_property
    def spectral(self) -> SpectralParams:
        """The growth bound omega and the resolvent parameter lambda = omega + 2
        that the spectral suites use."""
        return SpectralParams.for_kernels(self.ks, self.cfg.m)

    @cached_property
    def conditions(self) -> mb.ConditionReport:
        return mb.global_conditions(self.ks)

    @property
    def bounds(self) -> mb.BoundTrajectory:
        """The a priori moment bounds at the trajectory's output times.

        Raises InfeasibleParamsError when neither global-existence
        condition holds, or when the bound parameters cannot be assembled;
        a refusal is kept like a result, so every access raises it again
        without assembling the cascade again.
        """
        if isinstance(self._bounds, mb.InfeasibleParamsError):
            raise self._bounds
        return self._bounds

    @cached_property
    def _bounds(self) -> mb.BoundTrajectory | mb.InfeasibleParamsError:
        try:
            mb.require_condition(self.conditions)   # refuse before solving
            traj = self.trajectory
            env = mb.m01_envelope(self.conditions, self.ks, traj.M0[0], traj.M1[0],
                                  traj.times, self.cfg.dt)
            par = mb.assemble_bound_params(self.ks, self.cfg.m, env, self.conditions)
        except mb.InfeasibleParamsError as exc:
            return exc
        init = {0: traj.M0[0], 1: traj.M1[0], 2: traj.M2[0],
                **{i: moment(traj.fields[0], float(i)) for i in par.orders}}
        return mb.bound_system(par, init, traj.times, self.cfg.dt)


# ---------------------------------------------------------------------------
# suites


QUASI_CONTRACTIVITY_TOL = 1e-6   # slack on ||T(t)|| <= e^(omega t)


def _suite_quasi_contractivity(ctx: ScenarioContext) -> list[ReportRow]:
    omega = ctx.spectral.omega
    ts = np.linspace(0.25, 2.0, 8)
    norms = transport_norms(ctx.ks, ctx.grid, ctx.cfg.m, ts, ctx.antid)
    worst = float(np.max(norms * np.exp(-omega * ts)))
    return [ReportRow("quasi-contractivity", "growth-bound", worst, "<=",
                      1.0 + QUASI_CONTRACTIVITY_TOL,
                      detail=f"omega = {omega:g}; sup over point masses at t = 0.25 .. 2")]


RESOLVENT_RESIDUAL_TOL = 0.05   # the discrete defining identity, relative


def _suite_resolvent(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.r.is_zero:
        return [ReportRow("resolvent", "norm-bound", detail="growth disabled")]
    sp = ctx.spectral
    norm = resolvent_norm(ctx.grid, sp, ctx.ks, ctx.antid)
    # the defining identity needs a smooth field for the discrete derivative
    g = ctx.f0
    f = resolvent_apply(g, sp, ctx.ks, ctx.antid)
    resid = resolvent_residual(f, g, sp, ctx.ks) / weighted_integral(g, WeightSpec(sp.m, "shifted"))
    return [ReportRow("resolvent", "norm-bound", norm * (sp.lam - sp.omega), "<=", 1.0,
                      detail=f"lambda = {sp.lam:g}, exact norm, the largest unit-cell column"),
            ReportRow("resolvent", "defining-identity", resid, "<=", RESOLVENT_RESIDUAL_TOL,
                      detail="discrete derivative on the smooth initial profile"),
            *v_lambda_diagnostics(sp, ctx.ks, ctx.antid)]


def _suite_integral_bounds(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.r.is_zero:
        return [ReportRow("integral-bounds", "I", detail="growth disabled")]
    unit = ctx.spectral.omega or 1.0   # lambda in units of omega, absolute when omega = 0
    return [replace(r, name=f"{r.name}(a={alpha:g},l={lam:g})")
            for alpha in (0.5, 1.0, 5.0) for lam in (1.5 * unit, 3.0 * unit)
            for r in resolvent_integral_bounds(alpha, lam, ctx.cfg.m, ctx.ks, ctx.antid)]


LAPLACE_TOL = 1e-2   # Laplace transform of the semigroup against the resolvent


def _suite_laplace(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.r.is_zero:
        return [ReportRow("laplace", "consistency", detail="growth disabled")]
    sp = ctx.spectral
    tmax = math.log(1e7) / (sp.lam - sp.omega)
    disc = laplace_consistency(ctx.f0, sp, ctx.ks, ctx.antid, tmax)
    return [ReportRow("laplace", "consistency", disc, "<=", LAPLACE_TOL,
                      detail=f"lambda = {sp.lam:g}, tmax = {tmax:.2f}")]


def _suite_positivity(ctx: ScenarioContext) -> list[ReportRow]:
    """The smallest cell value, >= 0.  A run that did not complete ('blowup',
    'not-converged') is no solution to certify: it measures NaN, which fails."""
    traj, drep = ctx.solution
    worst, detail = float(np.min(traj.min_density)), f"outcome {traj.outcome}"
    if traj.outcome != "completed":
        worst, detail = math.nan, f"{detail}, min cell {worst:.3g}" + (
            "" if drep is None else f"; last Picard update {drep.update:.3g} > PICARD_TOL")
    return [ReportRow("positivity", "min-cell", worst, ">=", 0.0, detail=detail)]


def _suite_negative_control(ctx: ScenarioContext) -> list[ReportRow]:
    """Show that the step bound is needed: past it explicit coagulation undershoots.

    The scenario's coagulation kernel runs alone (growth and fragmentation
    off) on 3 e^(-x), two explicit steps at dt = 2 / min Lambda(f0), the
    smallest positive loss frequency, so the loss factor 1 - dt Lambda is at
    most -1 in every cell; `solve` rejects that dt, so a stepper takes them.
    """
    if ctx.ks.k.is_zero:
        return [ReportRow("negative-control", "undershoot", detail="needs a coagulating scenario")]
    grid = SizeGrid.geometric(0.05, 8.0, 64)
    ks = replace(ctx.ks, a=FragmentationRate(a0=0.0), r=GrowthRate(r0=0.0))
    ct = build_coag_tables(ks.k, grid)
    f0 = project(lambda x: 3.0 * np.exp(-x), grid)
    loss = coag_loss_rate(f0, ct)
    dt = 2.0 / float(np.min(loss[loss > 0]))
    stepper = SplitStepper(ks, grid, SolverConfig(m=ctx.cfg.m), ct=ct)
    f1 = stepper.step(f0, dt)
    worst = min(f1.min_value(), stepper.step(f1, dt).min_value())
    return [ReportRow("negative-control", "undershoot", worst, "<", 0.0,
                      detail=f"coagulation alone, explicit, dt = {dt:.3g} = 2 / min loss rate")]


MASS_BUDGET_TOL = 1e-8   # the mass ledger closes to rounding
NO_GROWTH_LEDGER = "Duhamel trajectories record no growth ledger"


def _suite_mass_budget(ctx: ScenarioContext) -> list[ReportRow]:
    traj = ctx.trajectory
    resid = traj.mass_residual(max(float(np.max(np.abs(traj.M1))), 1e-300))
    if resid is None:
        return [ReportRow("mass-budget", "closure", detail=NO_GROWTH_LEDGER)]
    worst = float(np.max(resid))
    neglect = neglected_gain_estimate(ctx.ks, ctx.grid, float(traj.escaped_mass[-1]))
    return [ReportRow("mass-budget", "closure", worst, "<=", MASS_BUDGET_TOL,
                      detail=f"M1 + escaped - growth ledger constant; "
                             f"neglected boundary gain rate {neglect:.3e}")]


def _exact_family(ctx: ScenarioContext) -> Optional[Callable]:
    """The exact solution f = M a^2 e^(-a x), as times -> (M, a), when the
    scenario is in its family: growth r1 x, fragmentation c x with b = 2/y,
    coagulation k0 and f0 = A e^(-d x), d > 0, any of r1, c, k0 zero; else None.

    With E = e^(-a x), d_t f = (M' a^2 + 2 M a a') E - M a^2 a' x E, and the
    right side less d_x(r f) is 2 c M a E - c M a^2 x E (fragmentation)
    + k0 M^2 a^3 (a x E / 2 - E) (coagulation) - r1 M a^2 (E - a x E).  The
    x E terms give a' = c - r1 a - (k0 M / 2) a^2, then the E terms give
    M' = r1 M, from M(0) = A / d^2 and a(0) = d; r1 = 0 is Aizenman and
    Bak's solution.  M is the mass and M a the number.
    """
    ks, p = ctx.ks, ctx.sc.initial_profile()
    if not (ks.r.kind != "table" and ks.r.r0 == 0.0
            and ks.a.kind != "table" and (ks.a.gamma0 == 1.0 or ks.a.is_zero)
            and ks.b.kind != "table" and ks.b.nu == 0.0
            and (ks.k.kind == "constant" or ks.k.is_zero)
            and p.profile == "exponential" and p.amplitude > 0 and p.decay > 0):
        return None
    m0, r1, c, k0 = p.amplitude / p.decay ** 2, ks.r.r1, ks.a.a0, ks.k.k0

    def at(times):
        a = solve_ivp(lambda t, a: c - r1 * a - 0.5 * k0 * m0 * math.exp(r1 * t) * a * a,
                      (0.0, times[-1]), [p.decay], "DOP853", times, rtol=1e-12, atol=0.0).y[0]
        return m0 * np.exp(r1 * times), a
    return at


ORACLE_PROFILE_TOL = 0.02   # the exact profile at t_end, weighted relative
ORACLE_NUMBER_TOL = 0.01    # the exact number on [xmin, xmax], relative


def _suite_oracle(ctx: ScenarioContext) -> list[ReportRow]:
    exact = _exact_family(ctx)
    if exact is None:
        return [ReportRow("oracle", "closed-form", detail="no oracle for this scenario")]
    traj, grid = ctx.trajectory, ctx.grid
    M, a = exact(traj.times)
    ref = project(lambda x: M[-1] * a[-1] ** 2 * np.exp(-a[-1] * x), grid).values
    w = np.where(grid.centers <= 20.0, (1.0 + grid.centers) * grid.widths, 0.0)
    profile = float(np.sum(np.abs(traj.fields[-1].values - ref) * w) / np.sum(ref * w))
    inside = M * a * (np.exp(-a * grid.xmin) - np.exp(-a * grid.xmax))   # number on the grid
    number = float(np.max(np.abs(traj.M0 - inside) / inside))
    drift = traj.mass_residual(traj.M1[0])
    if drift is None:
        mass = ReportRow("oracle", "mass-conserved", detail=NO_GROWTH_LEDGER)
    else:
        mass = ReportRow("oracle", "mass-conserved", float(np.max(drift)), "<=",
                         1e-10, detail="M1 + escaped - growth ledger against M1(0)")
    return [ReportRow("oracle", "closed-form-profile", profile, "<=", ORACLE_PROFILE_TOL,
                      detail=f"t = {traj.times[-1]:g}, weighted norm on [xmin, 20]"),
            ReportRow("oracle", "closed-form-number", number, "<=", ORACLE_NUMBER_TOL,
                      detail="M0 against the exact number on [xmin, xmax] at every output"),
            mass]


CROSS_VALIDATION_TOL = 0.02   # splitting against Duhamel, weighted relative


def _suite_cross_validation(ctx: ScenarioContext) -> list[ReportRow]:
    reason = "needs coagulation" if ctx.ks.k.is_zero else mild_premise(ctx.ks, ctx.cfg.m)
    if reason:
        return [ReportRow("solver-cross-validation", "split-vs-duhamel", detail=reason)]
    # convolution nodes at half the output cadence keep the product-trapezoid
    # error comfortably inside the agreement tolerance
    dcfg = replace(ctx.cfg, scheme="duhamel", output_every=0.5 * ctx.cfg.output_every)
    dtraj, drep = duhamel_solve(ctx.f0, dcfg, ctx.ks, dm=ctx.dm, ct=ctx.ct)
    if ctx.cfg.scheme == "duhamel":
        # the scenario's own trajectory is a Duhamel one: compare a splitting solve
        traj = solve(ctx.f0, replace(ctx.cfg, scheme="lie-split"), ctx.ks,
                     dm=ctx.dm, ct=ctx.ct)
    else:
        traj = ctx.trajectory
    w = WeightSpec(ctx.cfg.m, "shifted")
    worst = 0.0
    for k, f in enumerate(traj.fields):   # split output k is Duhamel node 2k
        diff = DensityField(ctx.grid, np.abs(f.values - dtraj.fields[2 * k].values))
        worst = max(worst, weighted_integral(diff, w) / max(traj.norm0m[k], 1e-300))
    factor = f"{drep.contraction_factors[-1]:.3g}" if drep.contraction_factors else "n/a"
    return [
        ReportRow("solver-cross-validation", "split-vs-duhamel", worst, "<=",
                  CROSS_VALIDATION_TOL, detail=f"worst of all {len(traj.fields)} split outputs"),
        ReportRow("solver-cross-validation", "picard-nonnegative",
                  float(np.min(dtraj.min_density)), ">=", 0.0),
        # what convergence tests; the last factor is noise at the Picard
        # error floor and can exceed 1 after convergence
        ReportRow("solver-cross-validation", "picard-contraction", drep.update, "<=",
                  PICARD_TOL,
                  detail=f"last relative update, iteration {drep.iterations}; "
                         f"last factor {factor}, window {drep.contraction_window:g}"),
    ]


def _suite_regularization_probe(ctx: ScenarioContext) -> list[ReportRow]:
    cfg = ctx.cfg
    if cfg.n is None or cfg.p is None:
        return [ReportRow("regularization-probe", "bounded-product",
                          detail="needs the secondary orders n and p")]
    return regularization_probe(ctx.ks, ctx.grid, cfg.m, cfg.n, cfg.p, dt=cfg.dt)


M1_ENVELOPE_TOL = 0.02   # under linear growth the M1 envelope is an identity


def _suite_moment_domination(ctx: ScenarioContext) -> list[ReportRow]:
    cond = ctx.conditions
    rows = [ReportRow("moment-domination", "condition",
                      float(cond.cond_i) + float(cond.cond_ii), ">=", 1.0,
                      detail=f"global-existence conditions that hold; certified "
                             f"({cond.certified}); m0={cond.m0:.3g}, m1={cond.m1:.3g}")]
    if not cond.any_holds:
        return rows
    try:
        bounds = ctx.bounds
    except mb.InfeasibleParamsError as exc:
        # a NaN measurement fails the row, which carries the refusal
        return rows + [ReportRow("moment-domination", "bound-system", math.nan, ">=", 0.0,
                                 detail=f"no bound system: {exc}")]
    traj = ctx.trajectory
    rows += mb.check_domination(traj, bounds, ctx.ks)
    if cond.certified == "ii":
        env = bounds.column(1)
        dev = float(np.max(np.abs(traj.M1 - env) / env))
        rows.append(ReportRow("moment-domination", "M1-envelope-tight", dev, "<=",
                              M1_ENVELOPE_TOL,
                              detail="linear growth makes the envelope an identity"))
    return rows


def _suite_determinism(ctx: ScenarioContext) -> list[ReportRow]:
    fresh = trajectory_csv_text(ctx.fresh_solve()[0]).splitlines()
    shipped = trajectory_csv_text(ctx.trajectory).splitlines()
    differing = sum(a != b for a, b in zip_longest(fresh, shipped))
    return [ReportRow("determinism", "bit-identical-csv", float(differing), "<=", 0.0,
                      detail="differing CSV lines, fresh solve against the shipped "
                             "trajectory, identical inputs")]


SUITES: dict[str, Callable[[ScenarioContext], list]] = {
    "kernel-validation": lambda ctx: validate_kernel_set(ctx.ks, ctx.grid.xmin, ctx.grid.xmax,
                                                         m=ctx.cfg.m),
    "quasi-contractivity": _suite_quasi_contractivity,
    "resolvent": _suite_resolvent,
    "integral-bounds": _suite_integral_bounds,
    "laplace": _suite_laplace,
    "frag-identities": lambda ctx: frag_moment_identity(ctx.f0, ctx.ks, ctx.dm),
    "coag-identities": lambda ctx: coag_moment_identity(ctx.f0, ctx.ct),
    "positivity": _suite_positivity,
    "negative-control": _suite_negative_control,
    "mass-budget": _suite_mass_budget,
    "oracle": _suite_oracle,
    "solver-cross-validation": _suite_cross_validation,
    "regularization-probe": _suite_regularization_probe,
    "moment-domination": _suite_moment_domination,
    "pde-residual": lambda ctx: pde_residual(ctx.trajectory, ctx.ks, ctx.dm, ctx.ct, p=ctx.cfg.p),
    "determinism": _suite_determinism,
}


def run_suites(ctx: ScenarioContext, suites: Optional[list[str]] = None) -> tuple[RunReport, ScenarioContext]:
    """Execute the scenario's enabled verification suites on its context."""
    names = ctx.sc.check_suites if suites is None else suites
    report = RunReport()
    start = time.perf_counter()
    for name in names:
        report.rows.extend(SUITES[name](ctx))
    report.elapsed = time.perf_counter() - start
    return report, ctx
