"""Acceptance gate: every verifiable contract of the build, at full scale.

Each test prints one PASS line; run with `pytest -s tests/test_acceptance.py`
to see the roll-up.  Expensive trajectories are shared via module fixtures.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_kernels
from gfc.cli import main
from gfc.config import load_scenario
from gfc.coagulation import apply_coag, build_coag_tables
from gfc.evolution import ConfigError, SolverConfig, SplitStepper, duhamel_solve, solve
from gfc.fragmentation import build_daughter_matrix
from gfc.grid import DensityField, SizeGrid, WeightSpec, project, weighted_integral
from gfc.kernels import (CoagulationKernel, DaughterDistribution,
                         moment_deficit)
from gfc.report import SUITES, ScenarioContext, run_suites
from gfc.transport import (Antiderivatives, SpectralParams, laplace_consistency,
                           resolvent_integral_bounds, resolvent_apply, resolvent_norm,
                           resolvent_residual, transport_apply, transport_norms)
from gfc import moment_bounds as mb

PRESET_NAMES = ["aizenman-bak-frag", "constant-coag", "gfc-global-i",
                "gfc-global-ii", "regularization-probe"]


@pytest.fixture(scope="module")
def contexts():
    return {name: ScenarioContext(load_scenario(name)) for name in PRESET_NAMES}


def _ok(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_c01_daughter_mass_conservation():
    kinds = [DaughterDistribution("uniform-binary")] + \
            [DaughterDistribution("power-law", nu=v) for v in (0.0, 1.0, 2.0)]
    worst = 0.0
    for b in kinds:
        for y in np.geomspace(1e-2, 1e2, 50):
            mass, _ = quad(lambda x: b(x, y) * x, 0.0, float(y), limit=100)
            worst = max(worst, abs(mass - y) / y)
    assert worst <= 1e-8
    grid = SizeGrid.geometric(2.0**-10, 2.0**6, 512)
    worst_col = 0.0
    for b in (kinds[0], kinds[2]):
        dm = build_daughter_matrix(b, grid)
        colmass = grid.centers @ dm.w
        worst_col = max(worst_col, float(np.max(np.abs(colmass - grid.centers) / grid.centers)))
    assert worst_col <= 1e-12
    _ok("1", f"quadrature residual {worst:.2e} <= 1e-8; columns {worst_col:.2e} <= 1e-12")


def test_c02_moment_deficit_signs():
    b = DaughterDistribution("uniform-binary")
    ys = np.geomspace(1e-2, 1e2, 30)
    for y in ys:
        n1, _ = quad(lambda x: b(x, y) * x, 0.0, float(y))
        assert abs(y - n1) <= 1e-8 * y                     # N1 = 0
        assert moment_deficit(b, 2.0, float(y)) > 0        # N2 > 0
        assert moment_deficit(b, 0.0, float(y)) < 0        # N0 < 0
    orders = (1.5, 2.0, 3.0, 4.0)
    for y in ys[::6]:
        ratios = [moment_deficit(b, m, float(y)) / y**m for m in orders]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    _ok("2", "N1 = 0, N2 > 0, N0 < 0, ratio increasing in the order")


def test_c03_resolvent():
    ks = make_kernels()    # r = 1, q = 0
    sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
    grid = SizeGrid.geometric(1e-3, 30.0, 512)
    g, antid = project(lambda x: np.exp(-x), grid), Antiderivatives(ks)
    f = resolvent_apply(g, sp, ks, antid)
    exact = 0.5 * (np.exp(-grid.centers) - np.exp(-3.0 * grid.centers))
    w1 = WeightSpec(1.0, "shifted")
    rel = weighted_integral(DensityField(grid, np.abs(f.values - exact)), w1) \
        / weighted_integral(DensityField(grid, exact), w1)
    assert rel <= 5e-3

    resids = []
    for cells in (256, 512):
        gr = SizeGrid.geometric(1e-3, 30.0, cells)
        gg = project(lambda x: np.exp(-x), gr)
        resids.append(resolvent_residual(resolvent_apply(gg, sp, ks, antid), gg, sp, ks))
    assert resids[0] / resids[1] >= 1.8

    # the exact norm of the discrete resolvent, not a sample of fields
    margin = resolvent_norm(grid, sp, ks, antid) * (sp.lam - sp.omega)
    assert margin <= 1.0
    _ok("3", f"closed form {rel:.2e} <= 5e-3; residual ratio {resids[0]/resids[1]:.2f}; "
             f"bound margin {margin:.3f} < 1")


def test_c04_weighted_integral_inequalities():
    ks0 = make_kernels()
    rep = {r.name: r for r in resolvent_integral_bounds(1.0, 4.0, 1.0, ks0, Antiderivatives(ks0))}
    assert rep["I"].measured == pytest.approx(9.0 / 16.0, abs=1e-6)
    count = 0
    for growth, r0, r1 in (("constant", 1.0, 0.0), ("linear", 0.0, 1.0),
                           ("affine", 1.0, 1.0)):
        ks = make_kernels(a0=1.0, growth=growth, r0=r0, r1=r1)
        antid = Antiderivatives(ks)
        for m in (1.0, 2.0):
            omega = 2.0 * m * ks.r.rtilde
            for lam in (1.5 * omega, 3.0 * omega):
                for alpha in (0.5, 1.0, 5.0):
                    for r in resolvent_integral_bounds(alpha, lam, m, ks, antid):
                        assert r.passed, (growth, m, lam, alpha, r.name)
                        count += 1
    _ok("4", f"I = 9/16 reproduced; {count} bound checks hold")


def test_c05_quasi_contractivity(contexts):
    worst = worst_exact = 0.0
    for name, ctx in contexts.items():
        m = ctx.cfg.m
        omega = 2.0 * m * ctx.ks.r.rtilde
        w = WeightSpec(m, "shifted")
        base = weighted_integral(ctx.f0, w)
        for t in np.linspace(0.25, 2.0, 8):
            val = weighted_integral(transport_apply(ctx.f0, float(t), ctx.ks, m, ctx.antid), w)
            ratio = val / (math.exp(omega * t) * base)
            worst = max(worst, ratio)
            assert ratio <= 1.0 + 1e-6, name
        # and for the semigroup itself: its exact norm, the sup over point masses
        ts = np.linspace(0.25, 2.0, 8)
        norms = transport_norms(ctx.ks, ctx.grid, m, ts, ctx.antid)
        exact = float(np.max(norms * np.exp(-omega * ts)))
        assert exact <= 1.0 + 1e-6, name
        worst_exact = max(worst_exact, exact)
    _ok("5", f"growth bound holds on all presets, worst ratio {worst:.4f} on f0, "
             f"{worst_exact:.4f} exact")


def test_c06_laplace_consistency():
    ks = make_kernels()
    sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
    vals = []
    for cells, n_time in ((256, 2049), (512, 4097)):
        grid = SizeGrid.geometric(1e-3, 30.0, cells)
        g = project(lambda x: np.exp(-x), grid)
        vals.append(laplace_consistency(g, sp, ks, Antiderivatives(ks), tmax=14.0, n_time=n_time))
    assert vals[-1] <= 1e-3
    assert vals[1] < vals[0]
    _ok("6", f"discrepancy {vals[1]:.2e} <= 1e-3, decaying under refinement")


def _oracle_rows(ctx) -> dict:
    """The scenario's `oracle/*` rows, each of which must pass (not n/a)."""
    rows = {r.name: r for r in SUITES["oracle"](ctx)}
    assert sorted(rows) == ["closed-form-number", "closed-form-profile", "mass-conserved"]
    assert all(r.status == "pass" for r in rows.values()), rows
    return rows


def test_c07_coagulation_oracles(contexts):
    rows = _oracle_rows(contexts["constant-coag"])
    # 3.5e-4 against the number on [xmin, xmax]; against the number on
    # (0, inf) it would read the share below xmin, 1 - e^(-xmin) = 1.0e-3
    assert rows["closed-form-number"].measured < 5e-4

    errs = []
    for cells in (224, 448):
        grid = SizeGrid.geometric(2.0**-8, 2.0**6, cells)
        ct = build_coag_tables(CoagulationKernel("constant", k0=2.0, alpha=0.5), grid)
        f = DensityField(grid, np.where(grid.centers < 1.0, 1.0, 0.0))
        kf = apply_coag(f, ct)
        x = grid.centers
        body = ((x > 0.05) & (x < 0.95)) | ((x > 1.05) & (x < 1.95))
        exact = np.where(x < 1.0, x - 2.0, np.where(x < 2.0, 2.0 - x, 0.0))
        errs.append(float(np.max(np.abs(kf.values - exact)[body])))
    assert errs[1] <= 0.025
    assert errs[0] / errs[1] >= 1.5     # first order in the cell width
    _ok("7", f"oracle rows pass: number {rows['closed-form-number'].measured:.2e}, "
             f"mass {rows['mass-conserved'].measured:.1e}; "
             f"pointwise O(h): {errs[0]:.3f} -> {errs[1]:.3f}")


def test_c08_fragmentation_oracle(contexts):
    ctx = contexts["aizenman-bak-frag"]
    t = float(ctx.trajectory.times[-1])
    # oracle sanity: the profile solves the equation (time derivative equals
    # the fragmentation action) at a probe point, via quadrature
    x_probe = 1.3
    lhs = 2 * (1 + t) * np.exp(-x_probe * (1 + t)) - x_probe * (1 + t) ** 2 * np.exp(-x_probe * (1 + t))
    gain, _ = quad(lambda y: (1 + t) ** 2 * np.exp(-y * (1 + t)) * 2.0, x_probe, 200.0)
    rhs = -x_probe * (1 + t) ** 2 * np.exp(-x_probe * (1 + t)) + gain
    assert lhs == pytest.approx(rhs, rel=1e-8)

    rows = _oracle_rows(ctx)
    # 3.2e-4 against the number on [xmin, xmax], 1.7e-3 against (0, inf)
    assert rows["closed-form-number"].measured < 5e-4
    _ok("8", f"oracle rows pass: profile {rows['closed-form-profile'].measured:.2e}, "
             f"mass {rows['mass-conserved'].measured:.1e}")


def test_c09_positivity_and_negative_control(contexts):
    for name, ctx in contexts.items():
        assert float(np.min(ctx.trajectory.min_density)) >= 0.0, name
    # negative control: a coagulation-dominated explicit step past the step
    # bound, which solve rejects, taken directly
    ks = make_kernels(k0=50.0, coag_kind="constant", growth="constant", r0=0.0)
    grid = SizeGrid.geometric(0.05, 8.0, 64)
    f = project(lambda x: 3.0 * np.exp(-x), grid)
    cfg = SolverConfig(dt=0.25, t_end=0.25, output_every=0.25, scheme="lie-split",
                       m=2.0, ball_radius=1.0)
    with pytest.raises(ConfigError, match="positivity"):
        solve(f, cfg, ks)
    assert SplitStepper(ks, grid, cfg).step(f, cfg.dt).min_value() < 0.0
    _ok("9", "all preset snapshots nonnegative; stress run without the step bound undershoots")


def test_c10_solver_cross_validation(contexts):
    ctx = contexts["gfc-global-ii"]
    traj = ctx.trajectory
    dcfg = SolverConfig(**{**ctx.cfg.__dict__, "scheme": "duhamel",
                           "output_every": 0.5 * ctx.cfg.output_every})
    dtraj, drep = duhamel_solve(ctx.f0, dcfg, ctx.ks)
    assert drep.converged
    w = WeightSpec(ctx.cfg.m, "shifted")
    worst = 0.0
    for k, t in enumerate(dtraj.times):
        j = int(np.argmin(np.abs(traj.times - t)))
        if abs(traj.times[j] - t) > 1e-9:
            continue
        gap = weighted_integral(
            DensityField(ctx.grid, np.abs(traj.fields[j].values - dtraj.fields[k].values)), w)
        worst = max(worst, gap / traj.norm0m[j])
    assert worst <= 0.02
    _ok("10", f"split vs Duhamel within {worst:.2e} <= 2e-2 at all outputs")


def test_c11_regularization_probe(contexts):
    report, _ = run_suites(contexts["regularization-probe"],
                           suites=["regularization-probe"])
    rows = {r.name: r for r in report.rows}
    assert np.isfinite(rows["bounded-product"].measured)
    assert rows["grid-stability"].passed
    assert rows["grid-stability"].measured < 0.25
    _ok("11", f"sup product {rows['bounded-product'].measured:.3f} finite; "
              f"variation {rows['grid-stability'].measured:.3f} < 0.25")


def test_c12_moment_domination(contexts):
    for name in ("gfc-global-i", "gfc-global-ii"):
        ctx = contexts[name]
        cond = mb.global_conditions(ctx.ks)
        assert cond.any_holds
        traj = ctx.trajectory
        env = mb.m01_envelope(cond, ctx.ks, traj.M0[0], traj.M1[0], traj.times, ctx.cfg.dt)
        par = mb.assemble_bound_params(ctx.ks, ctx.cfg.m, env, cond)
        bounds = mb.bound_system(par, {0: traj.M0[0], 1: traj.M1[0], 2: traj.M2[0]},
                                 traj.times, ctx.cfg.dt)
        rows = mb.check_domination(traj, bounds, ctx.ks)
        assert all(r.passed for r in rows), (name, [(r.name, r.measured) for r in rows])
        if cond.certified == "ii":
            env = traj.M1[0] * np.exp(ctx.ks.r.rtilde * traj.times)
            assert float(np.max(np.abs(traj.M1 - env) / env)) <= 0.02
    _ok("12", "simulated moments below bound trajectories (tol 5%); "
              "exponential mass envelope tight on the linear-growth preset")


def test_c12_domination_is_measured_after_the_data(contexts):
    """At t = 0 the bound is the data, so a ratio of 1 there says nothing."""
    rows = {r.name: r for r in SUITES["moment-domination"](contexts["gfc-global-ii"])}
    for name in ("M2", "Mm", "Phi"):
        assert rows[name].measured < 1.0, (name, rows[name].measured)


def test_c13_determinism(tmp_path):
    import yaml
    raw = load_scenario("constant-coag").echo()
    raw["grid"]["cells"] = 128
    raw["time"] = {"dt": 4.0e-3, "t_end": 0.2, "output_every": 0.04}
    cfg = tmp_path / "det.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "det_trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "det_trajectory.csv").read_bytes()
    assert a == b
    _ok("13", "bit-identical trajectory CSVs across reruns")
