import numpy as np
import pytest

from conftest import make_kernels
from gfc.config import load_scenario
from gfc.evolution import (ConfigError, NumericalFailureError, SetupError,
                           SolverConfig, SplitStepper, duhamel_solve, pde_residual,
                           regularization_probe, solve)
from gfc.fragmentation import build_daughter_matrix
from gfc.grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from gfc.presets import get_preset
from gfc.transport import transport_apply


def mk_cfg(**kw):
    base = dict(dt=1e-3, t_end=0.1, scheme="strang-split", m=2.0,
                output_every=0.05, ball_radius=1.0)
    base.update(kw)
    return SolverConfig(**base)


class TestConfigValidation:
    def test_cfl_violation_rejected(self):
        ks = make_kernels(growth="constant", r0=1.0)
        grid = SizeGrid.geometric(1e-3, 10.0, 256)
        with pytest.raises(ConfigError, match="CFL"):
            mk_cfg(dt=0.1).validate(ks, grid)

    def test_weight_order_too_small(self):
        ks = make_kernels(k0=1.0, coag_kind="sum", alpha=0.8)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        with pytest.raises(ConfigError, match="alpha"):
            mk_cfg(m=1.5, dt=1e-3).validate(ks, grid)

    def test_duhamel_needs_p_equal_m_minus_alpha(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", alpha=0.5, growth="linear",
                          r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        with pytest.raises(ConfigError, match="p = m - alpha"):
            mk_cfg(scheme="duhamel", m=2.0, n=1.25, p=1.4).validate(ks, grid)
        with pytest.raises(ConfigError, match="gamma0"):
            cfg = mk_cfg(scheme="duhamel", m=2.0, n=1.05, p=1.5)
            ks2 = make_kernels(a0=1.0, gamma0=0.9, k0=0.5, coag_kind="sum", alpha=0.5,
                               growth="linear", r0=0.0, r1=0.2)
            cfg.validate(ks2, grid)

    def test_positivity_policy_guard(self):
        ks = make_kernels(k0=50.0, coag_kind="constant", alpha=0.5, growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        with pytest.raises(ConfigError, match="positivity"):
            mk_cfg(dt=0.05, ball_radius=4.0).validate(ks, grid)
        mk_cfg(dt=0.05, ball_radius=4.0, positivity_policy="off").validate(ks, grid)

    def test_table_kernel_over_class_bound_rejected(self):
        # k0 omitted reads as 0, so beta = 0 shields nothing and the
        # explicit coagulation step undershoots below zero
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["time"].update(dt=0.01, t_end=0.2)
        raw["kernels"]["coagulation"] = {"kind": "table", "alpha": 0.5,
                                         "table_x": [1e-4, 1.0, 400.0],
                                         "table_k": [[2000.0] * 3] * 3}
        with pytest.raises(ConfigError, match=r"class bound .* at \(x_\d+, x_\d+\)"):
            load_scenario(raw)
        raw["solver"]["positivity_policy"] = "off"
        load_scenario(raw)


class TestStepSplit:
    def test_pure_transport_matches_semigroup(self):
        ks = make_kernels(growth="constant", r0=1.0)
        grid = SizeGrid.geometric(0.1, 30.0, 256)
        f = project(lambda x: x * np.exp(-x), grid)
        cfg = mk_cfg(dt=1e-3)
        cfg.validate(ks, grid)
        stepped = SplitStepper(ks, grid, cfg).step(f, 1e-3)
        direct = transport_apply(f, 1e-3, ks, 2.0, include_absorption=False)
        w = WeightSpec(2.0, "shifted")
        # two half-step remaps against one: only interpolation noise remains
        gap = weighted_integral(DensityField(grid, np.abs(stepped.values - direct.values)), w)
        assert gap / weighted_integral(direct, w) < 1e-5

    def test_solve_rejects_duhamel_scheme(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear", r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        with pytest.raises(ConfigError, match="duhamel_solve"):
            solve(f, mk_cfg(scheme="duhamel", n=1.25, p=1.5), ks)

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
        resid = np.abs(traj.M1 + traj.escaped_mass - traj.growth_mass - traj.M1[0])
        assert np.max(resid) / np.max(traj.M1) < 1e-12

    def test_riccati_oracle_and_dt_convergence(self):
        ks = make_kernels(k0=2.0, coag_kind="constant", growth="constant", r0=0.0)
        grid = SizeGrid.geometric(1e-3, 50.0, 128)
        f = project(lambda x: np.exp(-x), grid)
        errs = []
        for dt in (4e-3, 2e-3):
            traj = solve(f, mk_cfg(dt=dt, t_end=1.0, output_every=1.0, ball_radius=4.0), ks)
            pred = traj.M0[0] / (1.0 + 2.0 * traj.M0[0] * traj.times[-1] / 2.0)
            errs.append(abs(traj.M0[-1] - pred) / pred)
        assert errs[0] < 0.01
        assert errs[0] / errs[1] >= 1.8

    def test_blowup_monitor_is_result_not_error(self):
        ks = make_kernels(growth="linear", r0=0.0, r1=1.0)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: x * np.exp(-x), grid)
        cfg = mk_cfg(dt=1e-3, t_end=1.0, output_every=0.01, blowup_ceiling=1.0 + 1e-4)
        traj = solve(f, cfg, ks)
        assert traj.outcome == "blowup"
        assert traj.times[-1] < 1.0

    def test_blowup_monitor_sees_negative_runaway(self):
        ks = make_kernels(k0=50.0, coag_kind="constant", growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.05, 8.0, 64)
        f = project(lambda x: 3.0 * np.exp(-x), grid)
        cfg = mk_cfg(dt=0.25, t_end=1.0, output_every=0.25, scheme="lie-split",
                     reaction="naive", positivity_policy="off", use_beta_shift=False)
        traj = solve(f, cfg, ks)
        assert traj.outcome == "blowup"
        assert traj.times[-1] < 1.0
        assert traj.norm0m[-1] < 0.0    # the signed norm stays below any ceiling

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numerical_failure_raises_with_diagnostics(self):
        ks = make_kernels(k0=1.0, coag_kind="constant", growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.1, 10.0, 32)
        f = DensityField(grid, np.full(32, 1e300))
        cfg = mk_cfg(dt=1e-3, t_end=0.01, output_every=1e-3,
                     positivity_policy="off", reaction="naive")
        with pytest.raises(NumericalFailureError, match="non-finite"):
            solve(f, cfg, ks)

    def test_naive_reaction_permits_undershoot(self):
        ks = make_kernels(k0=50.0, coag_kind="constant", growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.05, 8.0, 64)
        f = project(lambda x: 3.0 * np.exp(-x), grid)
        cfg = mk_cfg(dt=0.25, t_end=0.25, output_every=0.25, scheme="lie-split",
                     reaction="naive", positivity_policy="off", ball_radius=1.0,
                     use_beta_shift=False)
        traj = solve(f, cfg, ks)
        assert traj.min_density.min() < 0.0

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
        cfg = mk_cfg(scheme="duhamel", t_end=0.2, n=1.25, p=1.5, output_every=0.05)
        traj, rep = duhamel_solve(f, cfg, ks)
        assert rep.converged and rep.iterations <= 2
        assert np.all(traj.min_density >= 0)

    def test_requires_initial_state_in_ball(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.2)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 10.0 * x * np.exp(-x), grid)
        cfg = mk_cfg(scheme="duhamel", n=1.25, p=1.5)
        with pytest.raises(ConfigError, match="ball"):
            duhamel_solve(f, cfg, ks)

    def test_agrees_with_split_solver(self):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 128)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        cfg = mk_cfg(dt=1e-3, t_end=0.25, output_every=0.025)
        traj = solve(f, cfg, ks)
        dcfg = mk_cfg(dt=1e-3, t_end=0.25, output_every=0.0125, scheme="duhamel",
                      n=1.25, p=1.5)
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


class TestTrajectoryColumns:
    @pytest.mark.parametrize("scheme", ["strang-split", "duhamel"])
    def test_columns_are_the_observables_of_the_snapshots(self, scheme):
        ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                          r0=0.0, r1=0.25)
        grid = SizeGrid.geometric(1e-2, 30.0, 64)
        f = project(lambda x: 0.1 * x * np.exp(-x), grid)
        cfg = mk_cfg(t_end=0.05, output_every=0.025, scheme=scheme, n=1.25, p=1.5)
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
        assert traj.growth_mass.shape == (3,)
        if scheme == "duhamel":
            assert np.all(traj.growth_mass == 0.0)


@pytest.fixture(scope="module")
def probe_ks():
    return make_kernels(a0=1.0, growth="linear", r0=0.0, r1=1.0)


class TestRegularizationProbe:
    def test_probe_passes_on_reference_setup(self, probe_ks):
        grid = SizeGrid.geometric(1e-4, 128.0, 256)
        t_list = np.geomspace(1e-2, 1.0, 9)
        rep = regularization_probe(probe_ks, grid, 3.5, 1.5, 2.0, t_list, dt=2e-3)
        assert np.isfinite(rep.sup_product)
        assert rep.variation < 0.25

    def test_smaller_n_still_bounded(self, probe_ks):
        grid = SizeGrid.geometric(1e-4, 128.0, 256)
        t_list = np.geomspace(1e-2, 1.0, 9)
        rep = regularization_probe(probe_ks, grid, 3.5, 1.25, 2.0, t_list, dt=2e-3)
        assert np.isfinite(rep.sup_product) and rep.variation < 0.25

    def test_norms_come_from_the_two_probe_curves(self, probe_ks, monkeypatch):
        import gfc.evolution
        curves = []
        original = gfc.evolution._linear_norm_curve

        def counted(*args, **kwargs):
            curves.append(args[1].cells)
            return original(*args, **kwargs)

        monkeypatch.setattr(gfc.evolution, "_linear_norm_curve", counted)
        grid = SizeGrid.geometric(1e-4, 128.0, 64)
        t_list = np.geomspace(1e-2, 0.5, 5)
        rep = regularization_probe(probe_ks, grid, 3.5, 1.5, 2.0, t_list, dt=5e-3)
        # one curve on the grid, one on the refined grid
        assert curves == [64, 128]
        f0 = project(lambda x: np.power(1.0 + x, -(2.0 + 1.0 + 0.25)), grid)
        direct = original(probe_ks, grid, 3.5, f0, t_list, 5e-3)
        assert np.array_equal(rep.norms, direct)

    def test_integrable_profile_rejected(self, probe_ks):
        grid = SizeGrid.geometric(1e-4, 128.0, 128)
        # eta pushed so far that the profile is m-integrable on the full axis
        with pytest.raises(SetupError, match="m-integrable"):
            regularization_probe(probe_ks, grid, 3.5, 1.5, 2.0,
                                 np.geomspace(1e-2, 1.0, 5), eta=4.0, dt=5e-3)

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
        rep = pde_residual(traj, ks, dm, None)
        assert rep.max_norm == 0.0

    def test_aizenman_bak_residual_small_and_decaying(self):
        ks = make_kernels(a0=1.0, growth="constant", r0=0.0)
        norms = []
        for cells, dt in ((128, 2e-3), (256, 1e-3)):
            grid = SizeGrid.geometric(1e-3, 40.0, cells)
            f = project(lambda x: np.exp(-x), grid)
            cfg = mk_cfg(dt=dt, t_end=0.2, output_every=0.02)
            traj = solve(f, cfg, ks)
            dm = build_daughter_matrix(ks.b, grid)
            rep = pde_residual(traj, ks, dm, None, p=1.5)
            norms.append(rep.max_norm)
        assert norms[1] < norms[0]
        assert norms[1] < 0.05
