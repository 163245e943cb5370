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

from . import moment_bounds as mb
from .coagulation import build_coag_tables, coag_moment_identity
from .config import ScenarioConfig
from .evolution import (ConfigError, DuhamelReport, SolverConfig, Trajectory,
                        duhamel_solve, pde_residual, regularization_probe, solve)
from .fragmentation import (apply_frag, build_daughter_matrix,
                            frag_moment_identity, neglected_gain_estimate)
from .grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from .kernels import KernelSet, ReportRow, SamplePlan, validate_kernel_set
from .transport import (SpectralParams, resolvent_integral_bounds, laplace_consistency,
                        make_antiderivatives, resolvent_apply, resolvent_residual,
                        transport_apply)

__all__ = ["ReportRow", "RunReport", "ScenarioContext", "run_suites", "render_rows",
           "write_trajectory_csv", "trajectory_csv_text", "SUITES"]


@dataclass
class RunReport:
    scenario: dict
    rows: list = field(default_factory=list)
    elapsed: float = 0.0
    csv_paths: list = field(default_factory=list)

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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
        lines.append(",".join(_fmt(float(a[k])) for a in arrays))
    return "\n".join(lines) + "\n"


def write_trajectory_csv(path: Path, traj: Trajectory,
                         bounds: Optional[mb.BoundTrajectory] = None) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trajectory_csv_text(traj, bounds))
    return path


class ScenarioContext:
    """Shared lazily-built objects for one scenario's verification run."""

    def __init__(self, sc: ScenarioConfig):
        self.sc = sc
        self.ks: KernelSet = sc.kernel_set()
        self.grid: SizeGrid = sc.grid()
        self.cfg: SolverConfig = sc.solver_config()
        self.f0: DensityField = sc.initial_field(self.grid)
        self.rng = np.random.default_rng(sc.seed)

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
    def conditions(self) -> mb.ConditionReport:
        return mb.global_conditions(self.ks, self.grid.xmax)

    @cached_property
    def bounds(self) -> mb.BoundTrajectory:
        """The a priori moment bounds at the trajectory's output times.

        Raises InfeasibleParamsError when neither global-existence
        condition holds, or when the bound parameters cannot be assembled.
        """
        cond = self.conditions
        if not cond.any_holds:
            raise mb.InfeasibleParamsError(
                "neither global-existence condition holds; no bound system available")
        traj = self.trajectory
        bp = self.sc.bounds_params()
        env_max = mb.m1_envelope_max(cond, self.ks, traj.M0[0], traj.M1[0], self.cfg.t_end)
        par = mb.assemble_bound_params(self.ks, self.cfg.m, env_max, cond,
                                       sample_hi=10 * self.grid.xmax,
                                       mode=bp["mode"], phi_order=bp["phi_order"],
                                       eps_margin=bp["eps_margin"])
        init = {0: traj.M0[0], 1: traj.M1[0], 2: traj.M2[0],
                **{i: moment(traj.fields[0], float(i)) for i in par.orders}}
        return mb.bound_system(par, init, traj.times, self.cfg.dt)

    def random_fields(self, count: int) -> list[DensityField]:
        out = []
        for _ in range(count):
            vals = self.rng.random(self.grid.cells) * np.exp(-self.grid.centers)
            out.append(DensityField(self.grid, vals))
        return out


# ---------------------------------------------------------------------------
# suites


def _suite_kernel_validation(ctx: ScenarioContext) -> list[ReportRow]:
    plan = SamplePlan(xmin=ctx.grid.xmin, xmax=ctx.grid.xmax, m=ctx.cfg.m)
    return validate_kernel_set(ctx.ks, plan)


def _suite_quasi_contractivity(ctx: ScenarioContext) -> list[ReportRow]:
    tol = ctx.sc.tolerance("quasi_contractivity", 1e-6)
    sp_omega = 2.0 * ctx.cfg.m * ctx.ks.r.rtilde
    w = WeightSpec(ctx.cfg.m, "shifted")
    base = weighted_integral(ctx.f0, w)
    if base == 0:
        return [ReportRow("quasi-contractivity", "growth-bound", detail="zero initial state")]
    antid = None if ctx.ks.r.is_zero else make_antiderivatives(ctx.ks, ctx.grid)
    worst = 0.0
    for t in np.linspace(0.25, 2.0, 8):
        ft = transport_apply(ctx.f0, float(t), ctx.ks, ctx.cfg.m, antid=antid)
        ratio = weighted_integral(ft, w) / (math.exp(sp_omega * t) * base)
        worst = max(worst, ratio)
    return [ReportRow("quasi-contractivity", "growth-bound", worst, "<=", 1.0 + tol,
                      detail=f"omega = {sp_omega:g}")]


def _suite_resolvent(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.r.is_zero:
        return [ReportRow("resolvent", "norm-bound", detail="growth disabled")]
    omega = 2.0 * ctx.cfg.m * ctx.ks.r.rtilde
    lam = omega + 2.0
    sp = SpectralParams.for_kernels(ctx.ks, ctx.cfg.m, lam)
    w = WeightSpec(ctx.cfg.m, "shifted")
    rows = []
    worst_ratio = 0.0
    for g in ctx.random_fields(10):
        f = resolvent_apply(g, sp, ctx.ks)
        ng = weighted_integral(g, w)
        nf = weighted_integral(f, w)
        worst_ratio = max(worst_ratio, nf * (lam - omega) / ng)
    rows.append(ReportRow("resolvent", "norm-bound", worst_ratio, "<=", 1.0,
                          detail=f"lambda = {lam:g}, 10 random fields"))
    # the defining identity needs a smooth field for the discrete derivative
    g = ctx.f0
    f = resolvent_apply(g, sp, ctx.ks)
    resid = resolvent_residual(f, g, sp, ctx.ks) / weighted_integral(g, w)
    tol = ctx.sc.tolerance("resolvent_residual", 0.05)
    rows.append(ReportRow("resolvent", "defining-identity", resid, "<=", tol,
                          detail="discrete derivative on the smooth initial profile"))
    return rows


def _suite_integral_bounds(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.r.is_zero:
        return [ReportRow("integral-bounds", "I", detail="growth disabled")]
    rows = []
    omega = 2.0 * ctx.cfg.m * ctx.ks.r.rtilde
    for alpha in (0.5, 1.0, 5.0):
        for lam_f in (1.5, 3.0):
            lam = lam_f * omega if omega > 0 else lam_f
            rows += [replace(r, name=f"{r.name}(a={alpha:g},l={lam:g})")
                     for r in resolvent_integral_bounds(alpha, lam, ctx.cfg.m, ctx.ks)]
    return rows


def _suite_laplace(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.r.is_zero:
        return [ReportRow("laplace", "consistency", detail="growth disabled")]
    omega = 2.0 * ctx.cfg.m * ctx.ks.r.rtilde
    lam = omega + 2.0
    sp = SpectralParams.for_kernels(ctx.ks, ctx.cfg.m, lam)
    tmax = math.log(1e7) / (lam - omega)
    tol = ctx.sc.tolerance("laplace", 1e-2)
    disc = laplace_consistency(ctx.f0, sp, ctx.ks, tmax)
    return [ReportRow("laplace", "consistency", disc, "<=", tol,
                      detail=f"lambda = {lam:g}, tmax = {tmax:.2f}")]


def _suite_frag_identities(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.a.is_zero:
        return [ReportRow("frag-identities", "mass", detail="fragmentation disabled")]
    rows = []
    f = ctx.f0
    ff = apply_frag(f, ctx.ks, ctx.dm)
    mass_rate = moment(ff, 1.0)
    scale = moment(DensityField(f.grid, np.abs(ff.values)), 1.0) + 1e-300
    rows.append(ReportRow("frag-identities", "mass-neutral", abs(mass_rate) / scale, "<=", 1e-12))
    for i in (0.0, 1.0, 2.0):
        rep = frag_moment_identity(f, i, ctx.ks, ctx.dm)
        rows.append(ReportRow("frag-identities", f"moment-{i:g}", rep.rel_discrepancy, "<=", 1e-11))
        if rep.estimate_bound is not None:
            rows.append(ReportRow("frag-identities", f"sink-estimate-{i:g}", rep.estimate_value,
                                  "<=", rep.estimate_bound, rep.estimate_tol, rep.detail))
    return rows


def _suite_coag_identities(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.k.is_zero:
        return [ReportRow("coag-identities", "mass", detail="coagulation disabled")]
    rows = []
    f = ctx.f0
    for i, tol in ((0.0, 1e-11), (1.0, 1e-11), (2.0, ctx.sc.tolerance("coag_moment2", 2e-3))):
        rep = coag_moment_identity(f, i, ctx.ct)
        rows.append(ReportRow("coag-identities", f"moment-{i:g}", rep.rel_discrepancy, "<=", tol,
                              detail=f"escape rate {rep.escaped_rate:.3e}"))
    return rows


def _suite_positivity(ctx: ScenarioContext) -> list[ReportRow]:
    traj = ctx.trajectory
    worst = float(np.min(traj.min_density))
    return [ReportRow("positivity", "min-cell", worst, ">=", 0.0,
                      detail=f"outcome {traj.outcome}")]


def _suite_negative_control(ctx: ScenarioContext) -> list[ReportRow]:
    """Demonstrate that removing the shift and the policy permits undershoot."""
    grid = SizeGrid.geometric(0.05, 8.0, 64)
    stress_ks = ctx.ks if not ctx.ks.k.is_zero else None
    if stress_ks is None:
        return [ReportRow("negative-control", "undershoot", detail="needs a coagulating scenario")]
    f0 = project(lambda x: 3.0 * np.exp(-x), grid)
    cfg = SolverConfig(dt=0.25, t_end=0.5, scheme="lie-split", reaction="naive",
                       m=ctx.cfg.m, ball_radius=ctx.cfg.ball_radius,
                       use_beta_shift=False, positivity_policy="off",
                       output_every=0.25)
    traj = solve(f0, cfg, stress_ks)
    worst = float(np.min(traj.min_density))
    return [ReportRow("negative-control", "undershoot", worst, "<", 0.0,
                      detail="naive explicit step at a coagulation-dominated dt")]


def _suite_mass_budget(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.cfg.scheme == "duhamel":
        return [ReportRow("mass-budget", "closure",
                          detail="Duhamel trajectories record no growth ledger")]
    tol = ctx.sc.tolerance("mass_budget", 1e-8)
    traj = ctx.trajectory
    scale = max(float(np.max(np.abs(traj.M1))), 1e-300)
    resid = np.abs(traj.M1 + traj.escaped_mass - traj.growth_mass - traj.M1[0]) / scale
    worst = float(np.max(resid))
    neglect = neglected_gain_estimate(ctx.ks, ctx.grid, float(traj.escaped_mass[-1]))
    return [ReportRow("mass-budget", "closure", worst, "<=", tol,
                      detail=f"M1 + escaped - growth ledger constant; "
                             f"neglected boundary gain rate {neglect:.3e}")]


def _is_aizenman_bak(ks: KernelSet) -> bool:
    return (ks.a.kind in ("power-law", "linear") and ks.a.a0 == 1.0
            and ks.a.gamma0 == 1.0 and ks.b.kind == "uniform-binary"
            and ks.r.is_zero and ks.k.is_zero)


def _is_constant_coag(ks: KernelSet) -> bool:
    return ks.a.is_zero and ks.r.is_zero and ks.k.kind == "constant" and ks.k.k0 > 0


def _suite_oracle(ctx: ScenarioContext) -> list[ReportRow]:
    traj = ctx.trajectory
    if _is_aizenman_bak(ctx.ks):
        tol = ctx.sc.tolerance("oracle", 0.02)
        t = float(traj.times[-1])
        grid = ctx.grid

        def exact(x):
            return (1.0 + t) ** 2 * np.exp(-x * (1.0 + t))

        ref = project(exact, grid)
        mask = grid.centers <= 20.0
        w = 1.0 + grid.centers
        num = float(np.sum(np.abs(traj.fields[-1].values - ref.values)[mask]
                           * w[mask] * grid.widths[mask]))
        den = float(np.sum(ref.values[mask] * w[mask] * grid.widths[mask]))
        rel = num / den
        drift = float(np.max(np.abs(traj.M1 - traj.M1[0]))) / abs(traj.M1[0])
        return [
            ReportRow("oracle", "closed-form-profile", rel, "<=", tol,
                      detail=f"t = {t:g}, weighted norm on [xmin, 20]"),
            ReportRow("oracle", "mass-constant", drift, "<=", 1e-8),
        ]
    if _is_constant_coag(ctx.ks):
        tol = ctx.sc.tolerance("oracle", 0.01)
        m00 = traj.M0[0]
        pred = m00 / (1.0 + ctx.ks.k.k0 * m00 * traj.times / 2.0)
        rel = float(np.max(np.abs(traj.M0 - pred) / pred))
        drift = float(np.max(np.abs(traj.M1 + traj.escaped_mass - traj.M1[0]))) / abs(traj.M1[0])
        return [
            ReportRow("oracle", "number-decay", rel, "<=", tol,
                      detail="constant-kernel closed form"),
            ReportRow("oracle", "mass-conserved", drift, "<=", 1e-10,
                      detail="includes routed overflow"),
        ]
    return [ReportRow("oracle", "closed-form", detail="no oracle for this scenario")]


def _suite_cross_validation(ctx: ScenarioContext) -> list[ReportRow]:
    if ctx.ks.k.is_zero or ctx.cfg.n is None or ctx.cfg.p is None:
        return [ReportRow("solver-cross-validation", "split-vs-duhamel",
                          detail="needs coagulation and the secondary orders")]
    tol = ctx.sc.tolerance("cross_validation", 0.02)
    # convolution nodes at half the output cadence keep the product-trapezoid
    # error comfortably inside the agreement tolerance
    dcfg = replace(ctx.cfg, scheme="duhamel", output_every=0.5 * ctx.cfg.output_every)
    dtraj, drep = duhamel_solve(ctx.f0, dcfg, ctx.ks, dm=ctx.dm, ct=ctx.ct)
    if ctx.cfg.scheme == "duhamel":
        # the scenario's own trajectory is a Duhamel one: compare a splitting solve
        traj = solve(ctx.f0, replace(ctx.cfg, scheme="strang-split"), ctx.ks,
                     dm=ctx.dm, ct=ctx.ct)
    else:
        traj = ctx.trajectory
    w = WeightSpec(ctx.cfg.m, "shifted")
    worst = 0.0
    for k, t in enumerate(dtraj.times):
        j = int(np.argmin(np.abs(traj.times - t)))
        if abs(traj.times[j] - t) > 1e-9:
            continue
        diff = DensityField(ctx.grid, np.abs(traj.fields[j].values - dtraj.fields[k].values))
        worst = max(worst, weighted_integral(diff, w) / max(traj.norm0m[j], 1e-300))
    factor = drep.contraction_factors[-1] if drep.contraction_factors else 0.0
    return [
        ReportRow("solver-cross-validation", "split-vs-duhamel", worst, "<=", tol,
                  detail=f"picard iterations {drep.iterations}, converged {drep.converged}"),
        ReportRow("solver-cross-validation", "picard-nonnegative",
                  float(np.min(dtraj.min_density)), ">=", 0.0),
        # the one hand-set status: the last factor is noise at the Picard
        # error floor and can exceed 1 after convergence
        ReportRow("solver-cross-validation", "picard-contraction", factor, "<", 1.0,
                  detail=f"window {drep.contraction_window:g}; "
                         "status set by hand: Picard converged",
                  held=drep.converged),
    ]


def _suite_regularization_probe(ctx: ScenarioContext) -> list[ReportRow]:
    pp = ctx.sc.probe_params()
    rep = regularization_probe(ctx.ks, ctx.grid, pp["m"], pp["n"], pp["p"],
                               pp["t_list"], eta=pp["eta"], dt=pp["dt"],
                               membership_growth_min=pp["membership_growth_min"])
    return [
        # finite on every truncated grid, so this row cannot fail
        ReportRow("regularization-probe", "bounded-product", rep.sup_product, "<", math.inf,
                  detail=f"theta_hat = {rep.theta_hat:.3g}"),
        ReportRow("regularization-probe", "grid-stability", rep.variation, "<",
                  pp["stability_tol"], detail="sup variation under grid+xmax doubling"),
    ]


def _suite_moment_domination(ctx: ScenarioContext) -> list[ReportRow]:
    cond = ctx.conditions
    rows = [ReportRow("moment-domination", "condition",
                      float(cond.cond_i) + float(cond.cond_ii), ">=", 1.0,
                      detail=f"global-existence conditions that hold; certified "
                             f"({cond.certified}); m0={cond.m0:.3g}, m1={cond.m1:.3g}")]
    if not cond.any_holds:
        return rows
    traj = ctx.trajectory
    tol = ctx.sc.tolerance("domination", 0.05)
    rows += mb.check_domination(traj, ctx.bounds, ctx.ks, tol=tol)
    if cond.certified == "ii":
        env = traj.M1[0] * np.exp(ctx.ks.r.rtilde * traj.times)
        dev = float(np.max(np.abs(traj.M1 - env) / env))
        tight = ctx.sc.tolerance("m1_envelope", 0.02)
        rows.append(ReportRow("moment-domination", "M1-envelope-tight", dev, "<=", tight,
                              detail="linear growth makes the envelope an identity"))
    return rows


def _suite_pde_residual(ctx: ScenarioContext) -> list[ReportRow]:
    traj = ctx.trajectory
    if len(traj.fields) < 3:
        return [ReportRow("pde-residual", "interior", detail="too few snapshots")]
    p = ctx.cfg.p if ctx.cfg.p is not None else ctx.cfg.m
    rep = pde_residual(traj, ctx.ks, ctx.dm, ctx.ct, p=p)
    # normalize against the advection + reaction magnitude at mid-run
    mid = traj.fields[len(traj.fields) // 2]
    scale = max(weighted_integral(DensityField(ctx.grid, np.abs(mid.values)),
                                  WeightSpec(p, "shifted")), 1e-300)
    tol = ctx.sc.tolerance("pde_residual", 0.05)
    rel = rep.max_norm / scale
    return [ReportRow("pde-residual", "interior", rel, "<=", tol,
                      detail="central-difference time derivative vs RHS")]


def _suite_determinism(ctx: ScenarioContext) -> list[ReportRow]:
    fresh = trajectory_csv_text(ctx.fresh_solve()[0]).splitlines()
    shipped = trajectory_csv_text(ctx.trajectory).splitlines()
    differing = sum(a != b for a, b in zip_longest(fresh, shipped))
    return [ReportRow("determinism", "bit-identical-csv", float(differing), "<=", 0.0,
                      detail="differing CSV lines, fresh solve against the shipped "
                             "trajectory, identical seed")]


SUITES: dict[str, Callable[[ScenarioContext], list]] = {
    "kernel-validation": _suite_kernel_validation,
    "quasi-contractivity": _suite_quasi_contractivity,
    "resolvent": _suite_resolvent,
    "integral-bounds": _suite_integral_bounds,
    "laplace": _suite_laplace,
    "frag-identities": _suite_frag_identities,
    "coag-identities": _suite_coag_identities,
    "positivity": _suite_positivity,
    "negative-control": _suite_negative_control,
    "mass-budget": _suite_mass_budget,
    "oracle": _suite_oracle,
    "solver-cross-validation": _suite_cross_validation,
    "regularization-probe": _suite_regularization_probe,
    "moment-domination": _suite_moment_domination,
    "pde-residual": _suite_pde_residual,
    "determinism": _suite_determinism,
}


def run_suites(ctx: ScenarioContext, suites: Optional[list[str]] = None) -> tuple[RunReport, ScenarioContext]:
    """Execute the scenario's enabled verification suites on its context."""
    names = ctx.sc.check_suites if suites is None else suites
    report = RunReport(scenario=ctx.sc.echo())
    start = time.perf_counter()
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown check suite {name!r}; "
                              f"available: {', '.join(sorted(SUITES))}")
        report.rows.extend(SUITES[name](ctx))
    report.elapsed = time.perf_counter() - start
    return report, ctx
