import copy

import numpy as np
import pytest

from conftest import make_kernels
from gfc import moment_bounds as mb
from gfc.evolution import solve, SolverConfig
from gfc.grid import SizeGrid, moment, project


def test_binary_expansion_constants():
    # (x+y)^2 - x^2 - y^2 = 2xy gives C_2 = 1; for i = 3 the ratio is
    # identically 3 on the simplex, so C_3 = 3
    assert mb.binary_expansion_constant(2.0) == pytest.approx(1.0, rel=1e-6)
    assert mb.binary_expansion_constant(3.0) == pytest.approx(3.0, rel=1e-6)


class TestGlobalConditions:
    def test_linear_production_certifies_condition_i(self):
        ks = make_kernels(a0=1.0, growth="affine", r0=0.1, r1=0.1,
                          k0=0.5, coag_kind="sum")
        cond = mb.global_conditions(ks, 50.0)
        assert cond.cond_i
        assert cond.m0 == pytest.approx(0.0, abs=1e-6)
        assert cond.m1 == pytest.approx(1.0, rel=1e-6)
        assert not cond.cond_ii
        assert cond.certified == "i"
        # logarithmic norm of [[0, 1], [0.1, 0.1]] dominates both envelopes
        a_sym = np.array([[0.0, 0.55], [0.55, 0.1]])
        assert cond.mu == pytest.approx(np.max(np.linalg.eigvalsh(a_sym)), rel=1e-9)

    def test_linear_growth_certifies_condition_ii(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks, 50.0)
        assert cond.cond_ii and cond.certified == "ii"

    def test_superlinear_production_fails_both(self):
        ks = make_kernels(a0=1.0, gamma0=2.0, growth="affine", r0=1.0, r1=1.0,
                          k0=0.5, coag_kind="sum")
        cond = mb.global_conditions(ks, 50.0)
        assert not cond.cond_i and not cond.cond_ii
        with pytest.raises(mb.InfeasibleParamsError):
            mb.assemble_bound_params(ks, 2.0, 1.0, cond, sample_hi=500.0)


class TestBoundSystem:
    def _params(self, ks, cond, m1max=1.0):
        return mb.assemble_bound_params(ks, 2.0, m1max, cond, sample_hi=500.0)

    def test_condition_ii_m1_is_exponential(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks, 50.0)
        par = self._params(ks, cond, m1max=float(np.exp(0.3)))
        times = np.linspace(0, 1, 21)
        bt = mb.bound_system(par, {0: 1.0, 1: 1.0, 2: 2.0}, times, dt=1e-3)
        assert np.allclose(bt.column(1), np.exp(0.3 * times), rtol=1e-12)

    def test_pure_fragmentation_bound_closed_form(self):
        # k = 0, r = 0: dM_i <= nu_i M_i integrates to M_i(0) e^(nu_i t)
        ks = make_kernels(a0=1.0, growth="constant", r0=0.0)
        cond = mb.global_conditions(ks, 50.0)
        par = self._params(ks, cond)
        assert par.K[2] == 0.0
        times = np.linspace(0, 1, 11)
        bt = mb.bound_system(par, {0: 1.0, 1: 1.0, 2: 3.0}, times, dt=1e-3)
        assert np.allclose(bt.column(2), 3.0 * np.exp(par.nu[2] * times), rtol=1e-9)

    def test_zero_initial_moments_bounded_by_source_envelope(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks, 50.0)
        par = self._params(ks, cond, m1max=1.5)
        times = np.linspace(0, 1, 11)
        bt = mb.bound_system(par, {0: 0.0, 1: 0.0, 2: 0.0}, times, dt=1e-3)
        d0, d1 = par.D0[2], par.D1[2]
        envelope = d0 / d1 * (np.exp(d1 * times) - 1.0)
        assert np.all(bt.column(2) <= envelope * (1 + 1e-9))

    def test_monotone_in_k0_and_delta(self):
        times = np.linspace(0, 1, 11)
        init = {0: 1.0, 1: 1.0, 2: 2.0}
        ks1 = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                           coag_kind="sum")
        ks2 = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=1.0,
                           coag_kind="sum")
        cond = mb.global_conditions(ks1, 50.0)
        p1 = self._params(ks1, cond)
        p2 = self._params(ks2, mb.global_conditions(ks2, 50.0))
        b1 = mb.bound_system(p1, init, times, dt=1e-3)
        b2 = mb.bound_system(p2, init, times, dt=1e-3)
        assert np.all(b2.column(2) >= b1.column(2) * (1 - 1e-12))
        # artificially halving the sink surrogate only loosens the bound
        p3 = copy.deepcopy(p1)
        for i in p3.orders:
            p3.delta[i] *= 0.5
            eps = (0.9 * p3.delta[i] * p3.gamma0 / (p3.alpha * p3.K[i] * (p3.M1_max + 1.0))) ** (p3.alpha / p3.gamma0)
            p3.eps[i] = eps
            rec = eps ** (-p3.gamma0 / (p3.gamma0 - p3.alpha))
            young = (p3.gamma0 - p3.alpha) / p3.gamma0 * rec
            p3.D2[i] = p3.rtilde + p3.K[i] * p3.M1_max * (1.0 + p3.c_alpha + young)
            p3.D3[i] = p3.K[i] * young
        b3 = mb.bound_system(p3, init, times, dt=1e-3)
        assert np.all(b3.column(2) >= b1.column(2) * (1 - 1e-12))

    def test_condition_ii_m1_column_ignores_m0(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks, 50.0)
        par = self._params(ks, cond, m1max=1.5)
        times = np.linspace(0, 1, 11)
        b_small = mb.bound_system(par, {0: 0.1, 1: 1.0, 2: 2.0}, times, dt=1e-3)
        b_large = mb.bound_system(par, {0: 99.0, 1: 1.0, 2: 2.0}, times, dt=1e-3)
        assert np.array_equal(b_small.column(1), b_large.column(1))
        assert np.array_equal(b_small.column(2), b_large.column(2))


@pytest.fixture(scope="module")
def scenario():
    ks = make_kernels(a0=1.0, k0=0.5, coag_kind="sum", growth="linear",
                      r0=0.0, r1=0.25)
    grid = SizeGrid.geometric(1e-2, 30.0, 128)
    f0 = project(lambda x: 0.1 * x * np.exp(-x), grid)
    cfg = SolverConfig(dt=1e-3, t_end=0.5, m=2.0, output_every=0.05,
                       ball_radius=1.0)
    traj = solve(f0, cfg, ks)
    cond = mb.global_conditions(ks, grid.xmax)
    env = mb.m1_envelope_max(cond, ks, traj.M0[0], traj.M1[0], cfg.t_end)
    par = mb.assemble_bound_params(ks, 2.0, env, cond, sample_hi=10 * grid.xmax)
    bounds = mb.bound_system(par, {0: traj.M0[0], 1: traj.M1[0], 2: traj.M2[0]},
                             traj.times, cfg.dt)
    return ks, traj, par, bounds


class TestDomination:
    def test_all_orders_dominated(self, scenario):
        ks, traj, par, bounds = scenario
        rows = mb.check_domination(traj, bounds, ks, tol=0.05)
        assert all(r.passed for r in rows), [(r.name, r.measured) for r in rows]
        names = {r.name for r in rows}
        assert {"M0", "M1", "M2", "Mm", "Phi"} <= names

    def test_comparison_principle(self, scenario):
        ks, traj, par, _ = scenario
        assert mb.comparison_principle_residual(traj, par) <= 1e-6
