import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfc.evolution
from conftest import make_kernels
from gfc.cli import main
from gfc.coagulation import apply_coag_beta, build_coag_tables
from gfc.config import ScenarioConfig, load_scenario
from gfc.evolution import (ConfigError, NumericalFailureError, SetupError,
                           SolverConfig, SplitStepper, duhamel_solve, mild_premise,
                           pde_residual, regularization_probe, solve)
from gfc.fragmentation import build_daughter_matrix
from gfc.grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from gfc.presets import get_preset
from gfc.report import ScenarioContext, trajectory_csv_text
from gfc.transport import Antiderivatives, transport_apply


def mk_cfg(**kw):
    base = dict(dt=1e-3, t_end=0.1, scheme="lie-split", m=2.0,
                output_every=0.05, ball_radius=1.0)
    base.update(kw)
    return SolverConfig(**base)


class TestConfigValidation:
    def test_steps_past_the_advective_cfl_verify(self, tmp_path, capsys):
        """Transport is exact along characteristics, so the positivity step
        bound is the only limit on dt: gfc-global-i at dt = 5e-3 crosses
        more than one cell per step near xmin and still passes every row."""
        sc = load_scenario("gfc-global-i", {"time": {"dt": 5e-3}})
        ks, grid = sc.kernel_set(), sc.grid()
        cfl = float(np.min(grid.widths / ks.r(grid.edges[1:])))
        assert 5e-3 > cfl and 5e-3 * float(np.max(ks.q(grid.centers))) <= 1.0
        assert main(["verify", "--config", "gfc-global-i", "--dt", "5e-3",
                     "--out", str(tmp_path)]) == 0
        assert "25 checks, 0 failures" in capsys.readouterr().out

    def test_weight_order_too_small(self):
        ks = make_kernels(k0=1.0, coag_kind="sum", alpha=0.8)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        with pytest.raises(ConfigError, match="alpha"):
            mk_cfg(m=1.5, dt=1e-3).validate(ks, grid)

    def test_duhamel_premise_is_law_level(self):
        """The Duhamel scheme needs alpha < gamma0 and m > alpha + 1, read
        from the laws and m alone: the secondary orders are not asked for,
        and any given are not read."""
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", alpha=0.5, growth="linear",
                          r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        for orders in ({}, {"n": 1.25, "p": 1.4}, {"n": 1.05, "p": 1.5}):
            mk_cfg(scheme="duhamel", m=2.0, **orders).validate(ks, grid)
        for gamma0 in (0.5, 0.4):
            with pytest.raises(ConfigError, match=f"alpha = 0.5 < gamma0 = {gamma0:g}"):
                mk_cfg(scheme="duhamel", m=2.0).validate(replace(ks, a=replace(
                    ks.a, gamma0=gamma0)), grid)
        # without coagulation only the mild formulation asks for m > alpha + 1
        ks0 = make_kernels(a0=1.0, alpha=0.5, growth="linear", r0=0.0, r1=0.2)
        mk_cfg(m=1.5).validate(ks0, grid)
        with pytest.raises(ConfigError, match=r"m = 1.5 > alpha \+ 1 = 1.5"):
            mk_cfg(scheme="duhamel", m=1.5).validate(ks0, grid)

    @settings(max_examples=300, deadline=None)
    @given(*(st.integers(1, 64).map(lambda k: k / 16) for _ in range(3)))
    def test_mild_premise_refuses_exactly_when_no_orders_exist(self, m, alpha, gamma0):
        """The old rule asked for orders 1 < n < p < m with p = m - alpha and
        m - n < gamma0.  On sixteenths, where every difference is exact,
        `mild_premise` refuses exactly when no n on a 1/1024 lattice (as
        fine as any gap between the bounds) meets them."""
        ks = make_kernels(a0=1.0, gamma0=gamma0, alpha=alpha)
        p = m - alpha
        exists = any(1.0 < n < p < m and m - n < gamma0
                     for n in np.arange(1, 1024 * (m + 1)) / 1024)
        assert (mild_premise(ks, m) is None) == exists

    def test_positivity_step_bound_guard(self):
        ks = make_kernels(k0=50.0, coag_kind="constant", alpha=0.5, growth="constant", r0=0.0,
                          ball_radius=4.0)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        cfg = mk_cfg(dt=0.05, ball_radius=4.0)
        with pytest.raises(ConfigError, match="positivity"):
            cfg.validate(ks, grid)
        # the rejected step, taken directly, undershoots
        f = project(lambda x: 3.0 * np.exp(-x), grid)
        assert SplitStepper(ks, grid, cfg).step(f, cfg.dt).min_value() < 0.0

    def test_shift_for_another_ball_rejected(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear", r0=0.0, r1=0.2,
                          ball_radius=2.0)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        with pytest.raises(ConfigError, match="ball radius 1.0"):
            mk_cfg(ball_radius=1.0).validate(ks, grid)
        with pytest.raises(ConfigError, match="ball radius 1.0"):
            mk_cfg(ball_radius=1.0, scheme="duhamel").validate(ks, grid)
        # a stepper built directly takes the shift it is given
        stepper = SplitStepper(ks, grid, mk_cfg(ball_radius=1.0))
        assert np.array_equal(stepper.a1, ks.a1(grid.centers))
        mk_cfg(ball_radius=2.0).validate(ks, grid)

    def test_table_kernel_over_class_bound_rejected(self):
        # k0 omitted reads as 0, so beta = 0 shields nothing and the
        # explicit coagulation step undershoots below zero
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["time"].update(dt=0.01, t_end=0.2)
        raw["kernels"]["coagulation"] = {"kind": "table", "alpha": 0.5,
                                         "table_x": [1e-4, 1.0, 400.0],
                                         "table_k": [[2000.0] * 3] * 3}
        with pytest.raises(ConfigError, match=r"class bound .* at \(x_\d+, x_\d+\)") as loaded:
            load_scenario(raw)
        sc = ScenarioConfig(raw)
        ks, grid, cfg = sc.kernel_set(), sc.grid(), sc.solver_config()
        f0 = sc.initial_field(grid)
        # the premise is evaluated once per (kernel, grid) and kept, and every
        # solve asks it again: each refuses with the same error
        for _ in range(2):
            with pytest.raises(ConfigError) as solved:
                solve(f0, cfg, ks)
            with pytest.raises(ConfigError) as picard:
                duhamel_solve(f0, replace(cfg, scheme="duhamel"), ks)
            assert str(solved.value) == str(picard.value) == str(loaded.value)
        stepped = SplitStepper(ks, grid, cfg).step(f0, cfg.dt)
        assert stepped.min_value() < 0.0


class TestStepSplit:
    def test_pure_transport_matches_semigroup(self):
        ks = make_kernels(growth="constant", r0=1.0)
        grid = SizeGrid.geometric(0.1, 30.0, 256)
        f = project(lambda x: x * np.exp(-x), grid)
        cfg = mk_cfg(dt=1e-3)
        cfg.validate(ks, grid)
        stepped = SplitStepper(ks, grid, cfg).step(f, 1e-3)
        direct = transport_apply(f, 1e-3, ks, 2.0, Antiderivatives(ks), include_absorption=False)
        # a Lie step is one remap over the whole step
        assert np.array_equal(stepped.values, direct.values)
        assert stepped.escaped_mass == direct.escaped_mass

    def test_solve_rejects_duhamel_scheme(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear", r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        with pytest.raises(ConfigError, match="duhamel_solve"):
            solve(f, mk_cfg(scheme="duhamel"), ks)

    def test_zero_initial_state_stays_zero(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear", r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        traj = solve(DensityField.zeros(grid), mk_cfg(), ks)
        assert np.all(traj.norm0m == 0.0)

    def test_escaped_mass_monotone(self):
        ks = make_kernels(growth="constant", r0=1.0)
        grid = SizeGrid.geometric(0.1, 5.0, 64)
        f = project(lambda x: np.exp(-x), grid)
        traj = solve(f, mk_cfg(dt=5e-4, t_end=1.0, output_every=0.1), ks)
        assert np.all(np.diff(traj.escaped_mass) >= 0)
        assert traj.escaped_mass[-1] > 0

    def test_mass_budget_closes_with_growth(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        traj = solve(f, mk_cfg(t_end=0.5, ball_radius=1.0), ks)
        assert np.max(traj.mass_residual(np.max(traj.M1))) < 1e-12

    def test_riccati_oracle_and_dt_convergence(self):
        ks = make_kernels(k0=2.0, coag_kind="constant", growth="constant", r0=0.0,
                          ball_radius=4.0)
        grid = SizeGrid.geometric(1e-3, 50.0, 128)
        f = project(lambda x: np.exp(-x), grid)
        errs = []
        for dt in (4e-3, 2e-3):
            traj = solve(f, mk_cfg(dt=dt, t_end=1.0, output_every=1.0, ball_radius=4.0), ks)
            pred = traj.M0[0] / (1.0 + 2.0 * traj.M0[0] * traj.times[-1] / 2.0)
            errs.append(abs(traj.M0[-1] - pred) / pred)
        assert errs[0] < 0.01
        assert errs[0] / errs[1] >= 1.8

    @pytest.mark.parametrize("name", ["gfc-global-ii", "gfc-global-i"])
    def test_split_step_is_first_order(self, name):
        """The one splitting scheme has the order of its reaction substep:
        at dt = 8, 4, 2, 1 ms against dt = 0.125 ms, each halving of dt
        shrinks the (1 + x^2)-weighted relative L1 error of the final state
        by an order between 0.9 and 1.3."""
        sc = load_scenario(get_preset(name), {"grid": {"cells": 64}})
        ks, grid = sc.kernel_set(), sc.grid()
        f0 = sc.initial_field(grid)
        dm, ct = build_daughter_matrix(ks.b, grid), build_coag_tables(ks.k, grid)
        w = WeightSpec(2.0, "shifted")

        def final(dt):
            cfg = replace(sc.solver_config(), dt=dt, t_end=0.2, output_every=0.2)
            return solve(f0, cfg, ks, dm=dm, ct=ct).fields[-1]

        ref = final(1.25e-4)
        errs = np.array([
            weighted_integral(DensityField(grid, np.abs(final(dt).values - ref.values)), w)
            for dt in (8e-3, 4e-3, 2e-3, 1e-3)]) / weighted_integral(ref, w)
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all((orders >= 0.9) & (orders <= 1.3)), orders

    def test_blowup_monitor_is_result_not_error(self, monkeypatch):
        monkeypatch.setattr(gfc.evolution, "BLOWUP_CEILING", 1.0 + 1e-4)
        ks = make_kernels(growth="linear", r0=0.0, r1=1.0)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: x * np.exp(-x), grid)
        cfg = mk_cfg(dt=1e-3, t_end=1.0, output_every=0.01)
        traj = solve(f, cfg, ks)
        assert traj.outcome == "blowup"
        assert traj.times[-1] < 1.0

    def test_blowup_monitor_sees_negative_runaway(self, monkeypatch):
        # negative data under linear growth: |f| grows while the signed norm
        # only falls
        monkeypatch.setattr(gfc.evolution, "BLOWUP_CEILING", 1.0 + 1e-4)
        ks = make_kernels(growth="linear", r0=0.0, r1=1.0)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = DensityField(grid, -project(lambda x: x * np.exp(-x), grid).values)
        traj = solve(f, mk_cfg(dt=1e-3, t_end=1.0, output_every=0.01), ks)
        assert traj.outcome == "blowup"
        assert traj.times[-1] < 1.0
        assert traj.norm0m[-1] < 0.0    # the signed norm stays below any ceiling

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numerical_failure_raises_with_diagnostics(self):
        ks = make_kernels(k0=1.0, coag_kind="constant", growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.1, 10.0, 32)
        f = DensityField(grid, np.full(32, 1e300))
        cfg = mk_cfg(dt=1e-3, t_end=0.01, output_every=1e-3)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            solve(f, cfg, ks)

    def test_step_past_the_bound_undershoots(self):
        ks = make_kernels(k0=50.0, coag_kind="constant", growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.05, 8.0, 64)
        f = project(lambda x: 3.0 * np.exp(-x), grid)
        cfg = mk_cfg(dt=0.25, t_end=0.25, output_every=0.25)
        with pytest.raises(ConfigError, match="positivity"):
            solve(f, cfg, ks)
        assert SplitStepper(ks, grid, cfg).step(f, cfg.dt).min_value() < 0.0

    def test_guarded_scheme_stays_nonnegative(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        traj = solve(f, mk_cfg(t_end=0.5), ks)
        assert traj.min_density.min() >= 0.0


class TestDuhamel:
    def test_zero_coagulation_converges_immediately(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 0.05 * x * np.exp(-x), grid)
        cfg = mk_cfg(scheme="duhamel", t_end=0.2, output_every=0.05)
        traj, rep = duhamel_solve(f, cfg, ks)
        assert rep.converged and rep.iterations <= 2
        assert np.all(traj.min_density >= 0)

    def test_requires_initial_state_in_ball(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 10.0 * x * np.exp(-x), grid)
        cfg = mk_cfg(scheme="duhamel")
        with pytest.raises(ConfigError, match="ball"):
            duhamel_solve(f, cfg, ks)

    def test_rejects_a_splitting_scheme(self):
        """validate skips the Duhamel premise for a splitting scheme, so
        duhamel_solve refuses one: here alpha = gamma0."""
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", alpha=1.0, growth="linear",
                          r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 32)
        f = project(lambda x: 0.05 * x * np.exp(-x), grid)
        cfg = mk_cfg(scheme="lie-split", m=2.5)
        cfg.validate(ks, grid)
        with pytest.raises(ConfigError, match="duhamel_solve iterates scheme 'duhamel'"):
            duhamel_solve(f, cfg, ks)
        with pytest.raises(ConfigError, match="alpha = 1 < gamma0 = 1"):
            duhamel_solve(f, replace(cfg, scheme="duhamel"), ks)

    def test_secondary_orders_are_not_read(self):
        """A Duhamel solve without n and p is bit for bit the one with them."""
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 48)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        cfg = mk_cfg(scheme="duhamel", t_end=0.1, output_every=0.025)
        bare, rep = duhamel_solve(f, cfg, ks)
        given, rep_n = duhamel_solve(f, replace(cfg, n=1.25, p=1.5), ks)
        assert rep.converged and rep == rep_n
        assert trajectory_csv_text(bare) == trajectory_csv_text(given)
        for a, b in zip(bare.fields, given.fields):
            assert np.array_equal(a.values, b.values)

    def test_agrees_with_split_solver(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        cfg = mk_cfg(dt=1e-3, t_end=0.25, output_every=0.025)
        traj = solve(f, cfg, ks)
        dcfg = mk_cfg(dt=1e-3, t_end=0.25, output_every=0.0125, scheme="duhamel")
        dtraj, rep = duhamel_solve(f, dcfg, ks)
        assert rep.converged
        w = WeightSpec(2.0, "shifted")
        for k, t in enumerate(dtraj.times):
            j = np.argmin(np.abs(traj.times - t))
            if abs(traj.times[j] - t) > 1e-9:
                continue
            gap = weighted_integral(
                DensityField(grid, np.abs(traj.fields[j].values - dtraj.fields[k].values)), w)
            assert gap / traj.norm0m[j] < 0.02

    def test_contraction_window_reads_the_last_iteration(self, monkeypatch):
        # the cross-validation config of gfc-global-ii, stopped after two
        # iterations while the factor (2.06) is still above 1: the error
        # shrank at the nodes up to t = 0.375 and not beyond
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 128
        sc = load_scenario(raw)
        cfg = sc.solver_config()
        dcfg = replace(cfg, scheme="duhamel", output_every=0.5 * cfg.output_every)
        monkeypatch.setattr(gfc.evolution, "PICARD_MAX_ITER", 2)
        _, rep = duhamel_solve(sc.initial_field(sc.grid()), dcfg, sc.kernel_set())
        assert not rep.converged and rep.update > gfc.evolution.PICARD_TOL
        assert rep.contraction_factors[-1] >= 1.0
        assert rep.contraction_window == pytest.approx(0.375, abs=1e-12)


def test_picard_stopped_short_of_tolerance_is_not_converged():
    """constant-coag as a Duhamel run at 128 cells: Picard diverges (update
    4e4 after PICARD_MAX_ITER iterations) and the iterate goes negative, so
    the trajectory must not read as a completed run."""
    raw = get_preset("constant-coag")
    raw["grid"]["cells"] = 128
    raw["solver"]["scheme"] = "duhamel"
    sc = load_scenario(raw)
    traj, rep = duhamel_solve(sc.initial_field(sc.grid()), sc.solver_config(), sc.kernel_set())
    assert not rep.converged and rep.iterations == gfc.evolution.PICARD_MAX_ITER
    assert traj.outcome == "not-converged"
    assert np.min(traj.min_density) < 0.0


def test_linear_sink_is_folded_once_per_step_and_mode(monkeypatch):
    """The folded sink is kept per (dt, keep_shift): a split solve of 200
    steps folds once, and alternating the two modes at one dt folds each
    once."""
    folds = []
    real = gfc.evolution.fold_sink
    monkeypatch.setattr(gfc.evolution, "fold_sink", lambda *args: folds.append(1) or real(*args))
    sc = load_scenario("gfc-global-ii", {"grid": {"cells": 64}, "time": {"t_end": 0.2}})
    ks, grid, cfg = sc.kernel_set(), sc.grid(), sc.solver_config()
    solve(sc.initial_field(grid), cfg, ks)
    assert len(folds) == 1
    stepper = SplitStepper(ks, grid, cfg)
    g = sc.initial_field(grid).values
    outs = [stepper._linear_sink(g, cfg.dt, keep) for keep in (True, False, True, False)]
    assert len(folds) == 3
    assert np.array_equal(outs[0], outs[2]) and np.array_equal(outs[1], outs[3])


def sequential_picard(f0, cfg, ks):
    """The Picard iteration one sweep at a time: each iteration propagates
    over the whole horizon, one field per call, before the next one starts.
    Returns the nodes of the last iteration and the report's fields."""
    grid = f0.grid
    wm = WeightSpec(cfg.m, "shifted")
    prop = SplitStepper(ks, grid, cfg)
    n_out = int(round(cfg.t_end / cfg.output_every))
    d_out = cfg.t_end / n_out
    n_sub = max(1, int(round(d_out / cfg.dt)))
    times = np.arange(n_out + 1) * d_out
    lin = [f0.copy()]
    for _ in range(n_out):
        lin.append(prop.advance_linear(lin[-1], d_out, n_sub))

    def k_beta(f):
        return apply_coag_beta(f, prop.ct, prop.a1)

    iterates = [fld.copy() for fld in lin]
    scale = max(1.0, weighted_integral(f0, wm))
    prev_err = node_factors = None
    factors, update, it = [], np.inf, 0
    for it in range(1, gfc.evolution.PICARD_MAX_ITER + 1):
        sources = [k_beta(fld) for fld in iterates]
        new = [f0.copy()]
        G = DensityField.zeros(grid)
        for k in range(1, n_out + 1):
            carry = DensityField(grid, G.values + 0.5 * d_out * sources[k - 1].values,
                                 G.escaped_mass + 0.5 * d_out * sources[k - 1].escaped_mass)
            G = prop.advance_linear(carry, d_out, n_sub)
            G = DensityField(grid, G.values + 0.5 * d_out * sources[k].values,
                             G.escaped_mass + 0.5 * d_out * sources[k].escaped_mass)
            new.append(DensityField(grid, lin[k].values + G.values,
                                    lin[k].escaped_mass + G.escaped_mass))
        err_nodes = np.array([
            weighted_integral(DensityField(grid, np.abs(new[k].values - iterates[k].values)), wm)
            for k in range(n_out + 1)])
        update = float(np.max(err_nodes)) / scale
        if prev_err is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                node_factors = np.where(prev_err > 0, err_nodes / np.maximum(prev_err, 1e-300), 0.0)
            factors.append(float(np.max(node_factors[1:])) if n_out else 0.0)
        prev_err = err_nodes
        iterates = new
        if update <= gfc.evolution.PICARD_TOL:
            break
    window = cfg.t_end
    if factors and factors[-1] >= 1.0:
        idx = np.nonzero(np.maximum.accumulate(node_factors) < 1.0)[0]
        window = float(times[idx[-1]]) if idx.size else 0.0
    return iterates, (update, it, factors, window)


def cross_validation_case(cells, t_end, output_every):
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = cells
    sc = load_scenario(raw)
    cfg = replace(sc.solver_config(), scheme="duhamel", t_end=t_end, output_every=output_every)
    return sc.initial_field(sc.grid()), cfg, sc.kernel_set()


class TestPicardWavefront:
    """duhamel_solve runs the iterations in blocks of stacked linear substeps
    and must give the one-sweep-at-a-time result bit for bit."""

    @pytest.mark.parametrize("t_end,output_every,patch", [
        (0.25, 0.025, {}),                      # n_out = 10: many iterations in flight
        (0.1, 0.1, {}),                         # n_out = 1: one row per wave
        (0.1, 0.025, {"PICARD_TOL": 0.0}),      # stops at PICARD_MAX_ITER
        (1.0, 0.025, {"PICARD_MAX_ITER": 2}),   # stops while the factor is above 1
    ])
    def test_bit_identical_to_sequential_sweeps(self, monkeypatch, t_end, output_every, patch):
        for name, value in patch.items():
            monkeypatch.setattr(gfc.evolution, name, value)
        f0, cfg, ks = cross_validation_case(64, t_end, output_every)
        traj, rep = duhamel_solve(f0, cfg, ks)
        assert_same_as_sequential(traj, rep, f0, cfg, ks)
        if patch:
            assert rep.iterations == gfc.evolution.PICARD_MAX_ITER
        assert traj.outcome == ("not-converged" if patch else "completed")

    @pytest.mark.parametrize("t_end,output_every", [(0.1, 0.025), (0.06, 0.06)])
    def test_one_remap_per_wave_substep(self, monkeypatch, t_end, output_every):
        """Each block takes n_out waves of n_sub stacked substeps, one remap
        each, against (J + 1) * n_out * n_sub one sweep at a time.  This pins
        the schedule, not a result."""
        calls = []
        remap = gfc.evolution.transport_apply

        def counted(*args, **kwargs):
            calls.append(1)
            return remap(*args, **kwargs)

        monkeypatch.setattr(gfc.evolution, "transport_apply", counted)
        f0, cfg, ks = cross_validation_case(64, t_end, output_every)
        _, rep = duhamel_solve(f0, cfg, ks)
        n_out = int(round(cfg.t_end / cfg.output_every))
        n_sub = int(round(cfg.t_end / n_out / cfg.dt))
        assert rep.converged and rep.iterations > 2
        assert rep.waves == len(rep.blocks) * n_out
        assert len(calls) == rep.waves * n_sub

    def test_picard_xval_takes_blocks_of_four_and_eight(self):
        """The picard-xval configuration: 11 iterations in blocks of 4 and 8,
        so 8 waves, well within J + n_out - 1 = 14."""
        f0, cfg, ks = cross_validation_case(128, 0.1, 0.025)
        _, rep = duhamel_solve(f0, cfg, ks)
        assert (rep.iterations, rep.blocks, rep.waves) == (11, [4, 8], 8)
        assert rep.schedule == "11 iterations in blocks 4+8, 8 waves"

    @settings(max_examples=60, deadline=None)
    @given(cells=st.sampled_from([32, 64]), n_out=st.integers(1, 6),
           tol=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5]), max_iter=st.integers(1, 12),
           horizon=st.sampled_from(["derived", "one", "max"]))
    def test_any_schedule_is_sequential_picard(self, cells, n_out, tol, max_iter, horizon):
        """Whatever the tolerance, the iteration cap and the block sizes (the
        derived estimate, or one forced to 1 or to PICARD_MAX_ITER), the solve
        is the sequential one bit for bit, and every block but the last has
        at least n_out iterations, so it takes at most J + n_out - 1 waves."""
        f0, cfg, ks = _short_case(cells)
        cfg = replace(cfg, t_end=0.01 * n_out, output_every=0.01)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gfc.evolution, "PICARD_TOL", tol)
            mp.setattr(gfc.evolution, "PICARD_MAX_ITER", max_iter)
            if horizon != "derived":
                k = 1 if horizon == "one" else max_iter
                mp.setattr(gfc.evolution, "_picard_horizon", lambda update, factor: k)
            waves = []
            advance = SplitStepper.advance_linear

            def counted(self, *args):
                waves.append(1)
                return advance(self, *args)

            with pytest.MonkeyPatch.context() as counting:
                counting.setattr(SplitStepper, "advance_linear", counted)
                traj, rep = duhamel_solve(f0, cfg, ks)
            assert_same_as_sequential(traj, rep, f0, cfg, ks)
        assert 1 <= rep.iterations <= max_iter
        assert len(waves) == rep.waves == n_out * len(rep.blocks)
        assert len(waves) <= rep.iterations + n_out - 1
        assert all(b >= n_out for b in rep.blocks[:-1])


@functools.lru_cache(maxsize=None)
def _short_case(cells):
    return cross_validation_case(cells, 0.01, 0.01)


def assert_same_as_sequential(traj, rep, f0, cfg, ks):
    nodes, (update, iterations, factors, window) = sequential_picard(f0, cfg, ks)
    assert len(traj.fields) == len(nodes)
    for got, ref in zip(traj.fields, nodes):
        assert got.values.tobytes() == ref.values.tobytes()
        assert np.float64(got.escaped_mass).tobytes() == np.float64(ref.escaped_mass).tobytes()
    assert (rep.update, rep.iterations, rep.contraction_window) == (update, iterations, window)
    assert rep.contraction_factors == factors


def _ledger_case():
    ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="affine", r0=0.2, r1=0.25)
    grid = SizeGrid.geometric(1e-2, 5.0, 48)   # mass crosses xmax
    f = project(lambda x: x * np.exp(-x), grid)
    return f, mk_cfg(dt=2e-3, t_end=0.2, output_every=0.05), ks


def test_growth_ledger_is_the_moment_ledger(monkeypatch):
    """A solve's growth_mass is, bit for bit, the per-cell ledger: each remap
    adds x_i dx_i (after_i - before_i) to cell i and the change of the
    escaped mass to one float, and each output sums the cells with fsum.  It
    agrees with the ledger summed step by step from `grid.moment` (M1 +
    escaped mass after each remap less before it) to rounding.

    The rounding bound, with u = eps/2, N remaps and s_k the remap's scale
    sum_i x_i dx_i (|before_i| + |after_i|) + |escaped before| + |escaped
    after|: a per-cell term rounds three times (the difference, x dx and
    the product), at most 3u s_k per remap, and N recursive adds to one
    cell err by at most (N - 1)u times the sum of its terms; a moment term
    rounds each product twice and each fsum, the escaped add and the
    difference once, at most 5u s_k, and N recursive adds err by (N - 1)u
    times the sum of the terms; the final fsum and add round twice more.
    Every term is at most s_k, so the two ledgers differ by at most
    (2N + 8) u sum_k s_k.  fsum rounds once whatever the cell count, so the
    cells enter only through s_k."""
    remaps = []

    def recorded(f, *args, **kwargs):
        out = transport_apply(f, *args, **kwargs)
        remaps.append((f, out))
        return out

    monkeypatch.setattr(gfc.evolution, "transport_apply", recorded)
    f, cfg, ks = _ledger_case()
    traj = solve(f, cfg, ks)
    grid = f.grid
    weight = grid.centers * grid.widths
    cells, escaped = np.zeros(grid.cells), 0.0
    by_moment, per_cell, expected = 0.0, [0.0], [0.0]
    scale = 0.0
    for step, (before, after) in enumerate(remaps, start=1):
        moved = after.values - before.values
        moved *= weight
        cells += moved
        escaped += after.escaped_mass - before.escaped_mass
        by_moment += (moment(after, 1.0) + after.escaped_mass
                      - (moment(before, 1.0) + before.escaped_mass))
        scale += float(np.sum(weight * (np.abs(before.values) + np.abs(after.values))))
        scale += abs(before.escaped_mass) + abs(after.escaped_mass)
        if step % 25 == 0:
            per_cell.append(math.fsum(cells.tolist()) + escaped)
            expected.append(by_moment)
    n_steps = len(remaps)
    assert n_steps == 100 and remaps[-1][1].escaped_mass > 0.0
    assert traj.growth_mass.tobytes() == np.array(per_cell).tobytes()
    bound = (2 * n_steps + 8) * (np.finfo(float).eps / 2) * scale
    assert np.max(np.abs(traj.growth_mass - np.array(expected))) <= bound
    assert abs(traj.growth_mass[-1]) > 1e3 * bound   # the ledger reads growth, not rounding


def test_growth_ledger_is_summed_once_per_output(monkeypatch):
    """A solve of N steps with K outputs sums its ledger exactly K + 1 times
    (the start and each output), not twice per step."""
    sums = []

    def counted(terms):
        sums.append(1)
        return math.fsum(terms)

    monkeypatch.setattr(gfc.evolution, "math",
                        SimpleNamespace(**{**vars(math), "fsum": counted}))
    f, cfg, ks = _ledger_case()
    traj = solve(f, cfg, ks)
    n_out = len(traj.times) - 1
    assert (n_out, round(cfg.t_end / cfg.dt)) == (4, 100)
    assert len(sums) == n_out + 1


class TestTrajectoryColumns:
    @pytest.mark.parametrize("scheme", ["lie-split", "duhamel"])
    def test_columns_are_the_observables_of_the_snapshots(self, scheme):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        cfg = mk_cfg(t_end=0.05, output_every=0.025, scheme=scheme)
        traj = duhamel_solve(f, cfg, ks)[0] if scheme == "duhamel" else solve(f, cfg, ks)
        w = WeightSpec(cfg.m, "shifted")
        observables = {
            "M0": lambda g: moment(g, 0.0), "M1": lambda g: moment(g, 1.0),
            "M2": lambda g: moment(g, 2.0), "Mm": lambda g: moment(g, cfg.m),
            "norm0m": lambda g: weighted_integral(g, w),
            "min_density": lambda g: g.min_value(),
            "escaped_mass": lambda g: g.escaped_mass,
        }
        assert np.allclose(traj.times, [0.0, 0.025, 0.05], rtol=0.0, atol=1e-12)
        assert len(traj.fields) == 3 and traj.fields[0] is not f
        for name, observable in observables.items():
            assert np.array_equal(getattr(traj, name),
                                  [observable(g) for g in traj.fields]), name
        if scheme == "duhamel":
            # the mild form keeps no growth ledger, so there is no residual to read
            assert traj.growth_mass is None and traj.mass_residual(1.0) is None
        else:
            assert traj.growth_mass.shape == (3,) and traj.mass_residual(1.0).shape == (3,)


@pytest.fixture(scope="module")
def probe_ks():
    return make_kernels(a0=1.0, growth="linear", r0=0.0, r1=1.0)


def probe_rows(*args, **kwargs):
    return {r.name: r for r in regularization_probe(*args, **kwargs)}


class TestRegularizationProbe:
    def test_probe_passes_on_reference_setup(self, probe_ks):
        grid = SizeGrid.geometric(1e-4, 128.0, 256)
        t_list = np.geomspace(1e-2, 1.0, 9)
        rows = regularization_probe(probe_ks, grid, 3.5, 1.5, 2.0, t_list, dt=2e-3)
        assert [r.name for r in rows] == ["bounded-product", "grid-stability"]
        assert all(r.suite == "regularization-probe" and r.status == "pass" for r in rows)
        assert np.isfinite(rows[0].measured)
        assert rows[1].measured < 0.25 and rows[1].bound == 0.25

    def test_smaller_n_still_bounded(self, probe_ks):
        grid = SizeGrid.geometric(1e-4, 128.0, 256)
        t_list = np.geomspace(1e-2, 1.0, 9)
        rows = probe_rows(probe_ks, grid, 3.5, 1.25, 2.0, t_list, dt=2e-3)
        assert np.isfinite(rows["bounded-product"].measured)
        assert rows["grid-stability"].measured < 0.25

    def test_norms_come_from_the_two_probe_curves(self, probe_ks, monkeypatch):
        curves = []
        original = gfc.evolution._linear_norm_curve

        def counted(*args, **kwargs):
            curves.append(args[1].cells)
            return original(*args, **kwargs)

        monkeypatch.setattr(gfc.evolution, "_linear_norm_curve", counted)
        grid = SizeGrid.geometric(1e-4, 128.0, 64)
        t_list = np.geomspace(1e-2, 0.5, 5)
        rows = probe_rows(probe_ks, grid, 3.5, 1.5, 2.0, t_list, dt=5e-3)
        # one curve on the grid, one on the refined grid
        assert curves == [64, 128]
        # the reported supremum is t^((m-n)/gamma0) e^(-theta t) times the
        # curve on the grid, theta fitted on the late third of the times
        f0 = project(lambda x: np.power(1.0 + x, -(2.0 + 1.0 + 0.25)), grid)
        direct = original(probe_ks, grid, 3.5, f0, t_list, 5e-3)
        tail = t_list >= t_list[-1] / 3.0
        theta = max(0.0, float(np.polyfit(t_list[tail], np.log(direct[tail]), 1)[0]))
        sup = float(np.max(np.power(t_list, 2.0) * np.exp(-theta * t_list) * direct))
        assert rows["bounded-product"].measured == sup
        assert rows["bounded-product"].detail == f"theta_hat = {theta:.3g}"

    def test_integrable_profile_rejected(self, probe_ks, monkeypatch):
        grid = SizeGrid.geometric(1e-4, 128.0, 128)
        # eta pushed so far that the profile is m-integrable on the full axis
        monkeypatch.setattr(gfc.evolution, "PROBE_ETA", 4.0)
        with pytest.raises(SetupError, match="m-integrable"):
            regularization_probe(probe_ks, grid, 3.5, 1.5, 2.0,
                                 np.geomspace(1e-2, 1.0, 5), dt=5e-3)

    def test_m_equal_p_no_blowup(self, probe_ks):
        # initial data already carries the target moment: early norms stay tame
        grid = SizeGrid.geometric(1e-4, 128.0, 128)
        f0 = project(lambda x: np.power(1.0 + x, -(2.0 + 1.0 + 0.25)), grid)
        from gfc.evolution import _linear_norm_curve
        t_list = np.geomspace(1e-3, 0.1, 6)
        norms = _linear_norm_curve(probe_ks, grid, 2.0, f0, t_list, dt=1e-3)
        base = weighted_integral(f0, WeightSpec(2.0, "shifted"))
        assert np.all(norms <= 3.0 * base)


class TestPdeResidual:
    def test_zero_state_zero_residual(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        traj = solve(DensityField.zeros(grid), mk_cfg(t_end=0.2), ks)
        dm = build_daughter_matrix(ks.b, grid)
        (row,) = pde_residual(traj, ks, dm, None)
        assert (row.suite, row.name, row.measured, row.status) == \
            ("pde-residual", "interior", 0.0, "pass")

    def test_too_few_snapshots_not_applicable(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        traj = solve(DensityField.zeros(grid), mk_cfg(t_end=0.05), ks)
        assert len(traj.fields) == 2
        (row,) = pde_residual(traj, ks, build_daughter_matrix(ks.b, grid), None)
        assert row.status == "n/a" and row.detail == "too few snapshots"

    def test_aizenman_bak_residual_small_and_decaying(self):
        ks = make_kernels(a0=1.0, growth="constant", r0=0.0)
        norms = []
        for cells, dt in ((128, 2e-3), (256, 1e-3)):
            grid = SizeGrid.geometric(1e-3, 40.0, cells)
            f = project(lambda x: np.exp(-x), grid)
            cfg = mk_cfg(dt=dt, t_end=0.2, output_every=0.02)
            traj = solve(f, cfg, ks)
            dm = build_daughter_matrix(ks.b, grid)
            (row,) = pde_residual(traj, ks, dm, None, p=1.5)
            assert row.status == "pass"
            # the row is relative to the p-weighted norm of |f| at mid-run
            mid = traj.fields[len(traj.fields) // 2]
            scale = weighted_integral(DensityField(grid, np.abs(mid.values)),
                                      WeightSpec(1.5, "shifted"))
            norms.append(row.measured * scale)
        assert norms[1] < norms[0]
        assert norms[1] < 0.05


def assert_invariants(ctx: ScenarioContext) -> None:
    """Mass-ledger closure to 1e-8, no negative density under the validated
    step bound, and a bit-identical CSV from a second solve."""
    traj = ctx.trajectory
    assert np.max(traj.mass_residual(np.max(np.abs(traj.M1)))) <= 1e-8
    assert np.min(traj.min_density) >= 0.0
    assert trajectory_csv_text(ctx.fresh_solve()[0]) == trajectory_csv_text(traj)


def step_within_bounds(draw, raw: dict) -> None:
    """Set a dt inside the positivity step bound, the only bound on dt, and
    at most 20 steps, into the raw scenario; the larger steps cross several
    cells."""
    sc = ScenarioConfig(raw)
    ks, grid = sc.kernel_set(), sc.grid()
    shield = float(np.max(ks.q(grid.centers)))   # a + beta*(1 + x^alpha)
    dt = draw(st.floats(0.1, 0.99)) / shield
    steps = draw(st.integers(1, 20))
    raw["time"] = {"dt": dt, "t_end": steps * dt, "output_every": dt}


@st.composite
def closed_form_scenarios(draw):
    """gfc-global-ii with a random closed-form coagulation kernel (alpha <
    gamma0, k0 <= 1), random constant/linear/affine growth whose r0 and r1
    are 0 or in [0.05, 1] (linear needs r1 > 0), and a random grid range of
    16-32 cells."""
    raw = get_preset("gfc-global-ii")
    raw["grid"] = {"xmin": draw(st.floats(1e-3, 0.1)), "xmax": draw(st.floats(10.0, 100.0)),
                   "cells": draw(st.integers(16, 32))}
    ker = raw["kernels"]
    gamma0 = draw(st.floats(0.5, 1.5))
    ker["fragmentation"].update(gamma0=gamma0, a0=draw(st.floats(0.1, 2.0)))
    kind = draw(st.sampled_from(["constant", "sum", "product"]))
    ker["coagulation"] = {"kind": kind, "k0": draw(st.floats(0.01, 1.0)),
                          "alpha": draw(st.floats(0.05, 0.95)) * min(gamma0, 1.0),
                          "bound_class": "local" if kind == "product" else "global"}
    growth = draw(st.sampled_from(["constant", "linear", "affine"]))
    coefficient = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    ker["growth"] = {"kind": growth, "r0": draw(coefficient),
                     "r1": draw(st.floats(0.05, 1.0) if growth == "linear" else coefficient)}
    step_within_bounds(draw, raw)
    return raw


@settings(max_examples=30, deadline=None)
@given(closed_form_scenarios())
def test_admissible_closed_form_kernels_keep_the_invariants(raw):
    assert_invariants(ScenarioContext(load_scenario(raw)))


@st.composite
def table_scenarios(draw):
    """gfc-global-ii on 16-32 cells with random admissible table kernels: a
    positive growth table, a nonnegative daughter table and a coagulation
    table between 10% and 90% of its sum-class bound k0 (1 + x^a + y^a) at
    the knots (the knots are close enough that the interpolant stays below
    the bound), run for at most 20 steps with dt inside the positivity
    step bound.  Returns the raw scenario and the coagulation table's
    smallest share of its bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = draw(st.integers(16, 32))
    ker = raw["kernels"]
    gx = np.geomspace(1e-4, 400.0, int(rng.integers(2, 12)))
    ker["growth"] = {"kind": "table", "table_x": gx.tolist(),
                     "table_r": rng.uniform(0.01, 0.5, gx.size).tolist()}
    u = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, 8)))), [1.0]])
    phi = rng.uniform(0.0, 4.0, u.size)
    phi[int(rng.integers(u.size))] += 1.0
    ker["daughter"] = {"kind": "table", "table_u": u.tolist(), "table_phi": phi.tolist()}
    k0, alpha = ker["coagulation"]["k0"], ker["coagulation"]["alpha"]
    kx = np.geomspace(1e-4, 400.0, 24)
    share = rng.uniform(0.1, 0.9, (kx.size, kx.size))
    share = 0.5 * (share + share.T)
    bound = k0 * (1.0 + kx[:, None] ** alpha + kx[None, :] ** alpha)
    ker["coagulation"] = {"kind": "table", "table_x": kx.tolist(),
                          "table_k": (share * bound).tolist(), "k0": k0, "alpha": alpha,
                          "bound_class": "global"}
    step_within_bounds(draw, raw)
    return raw, float(np.min(share))


@settings(max_examples=40, deadline=None)
@given(table_scenarios())
def test_admissible_table_kernels_keep_the_invariants(case):
    raw, least_share = case
    assert_invariants(ScenarioContext(load_scenario(raw)))
    # the same table scaled so that every knot sits at twice its bound or
    # more exceeds the bound wherever it is sampled
    coag = raw["kernels"]["coagulation"]
    coag["table_k"] = (np.array(coag["table_k"]) * (2.0 / least_share)).tolist()
    with pytest.raises(ConfigError, match="class bound"):
        load_scenario(raw)
