import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from conftest import make_kernels
from gfc import moment_bounds as mb
from gfc.config import load_scenario
from gfc.evolution import solve, SolverConfig
from gfc.fragmentation import fragmentation_constants
from gfc.grid import SizeGrid, moment, project
from gfc.kernels import UNREACHABLE, FragmentationRate, GrowthRate
from gfc.presets import get_preset
from gfc.report import SUITES, ScenarioContext


@pytest.mark.parametrize("i", range(2, 9))
def test_binary_expansion_constant_is_exact(i):
    """C_i = 2^(i-1) - 1, and no smaller: it is at least the supremum of the
    ratio sampled densely over u = x/(x+y) in (0, 1/2], which is scale free.
    The sample's numerator is the binomial sum, free of the cancellation in
    1 - u^i - (1-u)^i; its rounding is a few ulps (at i = 3 the ratio is flat)."""
    u = np.linspace(1e-7, 0.5, 200001)
    num = sum(math.comb(i, k) * u**k * (1.0 - u)**(i - k) for k in range(1, i))
    sampled = np.max(num / (u * (1.0 - u)**(i - 1) + u**(i - 1) * (1.0 - u)))
    assert mb.binary_expansion_constant(i) == 2**(i - 1) - 1
    assert mb.binary_expansion_constant(i) >= sampled * (1.0 - 1e-14)


@pytest.mark.parametrize("i", [2.5, 1])
def test_binary_expansion_constant_needs_an_integer_order_from_2(i):
    with pytest.raises(ValueError, match="integer order >= 2"):
        mb.binary_expansion_constant(i)


class TestGlobalConditions:
    def test_linear_production_certifies_condition_i(self):
        ks = make_kernels(a0=1.0, growth="affine", r0=0.1, r1=0.1,
                          k0=0.5, coag_kind="sum")
        cond = mb.global_conditions(ks)
        assert cond.cond_i
        assert cond.m0 == pytest.approx(0.0, abs=1e-6)
        assert cond.m1 == pytest.approx(1.0, rel=1e-6)
        assert not cond.cond_ii
        assert cond.certified == "i"

    def test_linear_growth_certifies_condition_ii(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks)
        assert cond.cond_ii and cond.certified == "ii"

    def test_superlinear_production_fails_both(self):
        ks = make_kernels(a0=1.0, gamma0=2.0, growth="affine", r0=1.0, r1=1.0,
                          k0=0.5, coag_kind="sum")
        cond = mb.global_conditions(ks)
        assert not cond.cond_i and not cond.cond_ii
        with pytest.raises(mb.InfeasibleParamsError):
            mb.m01_envelope(cond, ks, 1.0, 1.0, np.linspace(0, 1, 11), 1e-3)
        with pytest.raises(mb.InfeasibleParamsError):
            mb.assemble_bound_params(ks, 2.0, {1: np.ones(11)}, cond)

    def test_growth_table_reaching_the_origin_is_not_condition_ii(self):
        """r(0+) = 1e-12 stays below 0.25 x at every sampled size, but the
        origin is reachable, so r(x) <= rtilde x fails near 0."""
        ks = replace(make_kernels(a0=1.0, k0=0.5, coag_kind="sum"),
                     r=GrowthRate("table", r0=1e-12, r1=0.25, table_x=[1e-9, 1.0, 400.0],
                                  table_r=[1e-12, 0.25, 100.0]))
        cond = mb.global_conditions(ks)
        assert ks.r.origin_class != UNREACHABLE
        assert not cond.cond_ii and cond.certified != "ii"

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.builds(lambda r0, r1: GrowthRate("affine", r0=r0, r1=r1),
                  st.one_of(st.just(0.0), st.floats(1e-300, 10.0)), st.floats(0.0, 10.0)),
        st.builds(lambda lo, values, r1: GrowthRate(
                      "table", r0=values[0], r1=r1,
                      table_x=np.geomspace(lo, 400.0, len(values)), table_r=values),
                  st.floats(1e-12, 1e-2),
                  st.lists(st.floats(1e-12, 10.0), min_size=2, max_size=6),
                  st.floats(0.0, 10.0))))
    def test_condition_ii_is_the_unreachable_origin(self, growth):
        """Condition (ii) is certified exactly when the growth law's origin
        is unreachable, over affine laws and growth tables."""
        ks = replace(make_kernels(a0=1.0, k0=0.5, coag_kind="sum"), r=growth)
        cond = mb.global_conditions(ks)
        assert (cond.certified == "ii") == (growth.origin_class == UNREACHABLE)


@pytest.mark.parametrize("growth,r0,certified,share", [("linear", 0.0, "ii", 0.5),
                                                        ("affine", 0.1, "i", 1.0)])
def test_young_parameter_spends_the_sink_share(growth, r0, certified, share):
    """Under condition (ii) half the fragmentation sink pays for the Phi
    functional, so the Young parameter balances coagulation against delta_i/2."""
    ks = make_kernels(a0=1.0, growth=growth, r0=r0, r1=0.3, k0=0.5, coag_kind="sum")
    cond = mb.global_conditions(ks)
    assert cond.certified == certified
    env = mb.m01_envelope(cond, ks, 1.0, 1.0, np.linspace(0, 1, 11), 1e-3)
    par = mb.assemble_bound_params(ks, 3.0, env, cond)
    assert par.orders == [2, 3]
    for i in par.orders:
        closed = (0.9 * share * par.delta[i] * par.gamma0
                  / (par.alpha * par.K[i] * (par.M1_max + 1.0))) ** (par.alpha / par.gamma0)
        assert par.eps[i] == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("growth,r0,a0", [("linear", 0.0, 1.0), ("affine", 0.1, 1.0),
                                          ("affine", 0.1, 0.0)])
@pytest.mark.parametrize("m,orders", [(1.5, [2]), (2.0, [2]), (2.5, [2, 3]), (3.0, [2, 3])])
def test_without_coagulation_the_young_split_is_empty(growth, r0, a0, m, orders):
    """k0 = 0 runs the one set of formulas with K_i = 0: eps = inf and no
    Young term, so D0 = D3 = 0 and D2 = rtilde exactly, with no refusal even
    where there is no fragmentation sink (a0 = 0).  Orders run to
    max(ceil(m), 2)."""
    ks = make_kernels(a0=a0, growth=growth, r0=r0, r1=0.3)
    cond = mb.global_conditions(ks)
    env = mb.m01_envelope(cond, ks, 1.0, 1.0, np.linspace(0, 1, 11), 1e-3)
    par = mb.assemble_bound_params(ks, m, env, cond)
    assert par.orders == orders
    for i in orders:
        assert par.K[i] == 0.0 and par.eps[i] == math.inf
        assert par.D0[i] == 0.0 and par.D3[i] == 0.0
        assert par.D1[i] == par.nu[i] + par.rtilde and par.D2[i] == par.rtilde


@pytest.mark.parametrize("x0,gamma0,nu", [(1.0, 1.0, 0.0), (0.37, 0.6, 1.5), (4.0, 2.0, 0.0),
                                          (2.5, 0.0, 0.0)])
def test_sup_of_a_below_x0_is_exact_and_shared(x0, gamma0, nu):
    """nu_i and a_tilde both read one exact sup of a on [0, x0]: a(x0) for a
    power law, nondecreasing as gamma0 >= 0, which no size in [0, x0]
    exceeds; a_tilde is then the exact sup of 2 b0 a(x) (1 + x^2) there.
    At gamma0 = 0 coagulation is off, as alpha < gamma0 is its premise."""
    ks = make_kernels(a0=1.0, gamma0=gamma0, x0=x0, daughter="power-law", nu=nu,
                      growth="linear", r0=0.0, r1=0.3, k0=0.5 if gamma0 > 0.5 else 0.0,
                      coag_kind="sum")
    sup = ks.a.sup_below_x0()
    xs = np.linspace(0.0, x0, 100001)
    assert sup == float(ks.a(x0)) == float(np.max(ks.a(xs)))
    cond = mb.global_conditions(ks)
    env = mb.m01_envelope(cond, ks, 1.0, 1.0, np.linspace(0, 1, 11), 1e-3)
    par = mb.assemble_bound_params(ks, 3.0, env, cond)
    for i in par.orders:
        delta = (1.0 - float(ks.b.shape_integral(i, 1.0))) * ks.a.a0
        assert par.nu[i] == delta * sup
        assert fragmentation_constants(ks, i)[2] == par.nu[i]
    weighted = 2.0 * par.b0 * float(np.max(ks.a(xs) * (1.0 + xs**mb.PHI_ORDER)))
    assert par.a_tilde == pytest.approx(weighted, rel=1e-15)


# a table rate that peaks between two of any 200 evenly spaced sizes in
# [0, 1], and between two of any 400 in [0, 50]: 1 outside [0.5, 0.502]
PEAK = FragmentationRate("table", a0=1.0, x0=1.0, table_x=[0.5, 0.501, 0.502],
                         table_a=[1.0, 50.0, 1.0])


def test_table_peak_sets_the_sup_below_x0():
    """A peak of 50 inside [0, x0] is the sup that nu_i and a_tilde read:
    nu_2 = (1/3) 50 for the binary daughter, not the 1/3 a sample of
    sizes that straddles the peak reads."""
    ks = replace(make_kernels(growth="linear", r0=0.0, r1=0.3, k0=0.5, coag_kind="sum"),
                 a=PEAK)
    _, delta, nu = fragmentation_constants(ks, 2.0)
    assert delta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert nu == delta * 50.0
    assert ks.a.sup_below_x0() == 50.0
    cond = mb.global_conditions(ks)
    env = mb.m01_envelope(cond, ks, 1.0, 1.0, np.linspace(0, 1, 11), 1e-3)
    par = mb.assemble_bound_params(ks, 2.0, env, cond)
    assert par.nu[2] == nu and par.a_tilde == 2.0 * par.b0 * (50.0 * 2.0)
    # past x0 the peak is not read; below the first knot a is its value there
    assert replace(PEAK, x0=0.4).sup_below_x0() == 1.0
    at = replace(PEAK, x0=0.5005)
    assert at.sup_below_x0() == float(at(0.5005)) == pytest.approx(25.5, rel=1e-12)


def test_table_peak_sets_the_condition_i_majorant():
    """The production (n0 - 1) a peaks at 500 between sizes any fit on the
    grid would read; the majorant holds there: m0 = 500, m1 = 0."""
    ks = replace(make_kernels(growth="affine", r0=0.1, r1=0.1, k0=0.5, coag_kind="sum"),
                 a=replace(PEAK, table_a=[1.0, 500.0, 1.0]))
    cond = mb.global_conditions(ks)
    assert cond.certified == "i" and (cond.m0, cond.m1) == (500.0, 0.0)
    assert cond.m0 + cond.m1 * 0.501 >= float(ks.a(0.501))


SIZES = np.geomspace(1e-12, 1e12, 2401)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.builds(lambda a0, gamma0: FragmentationRate(a0=a0, gamma0=gamma0),
              st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), st.floats(0.0, 1.0)),
    st.builds(lambda lo, values: FragmentationRate(
                  "table", table_x=np.geomspace(lo, lo * 10.0 ** len(values), len(values)),
                  table_a=values),
              st.floats(1e-12, 1e3),
              st.lists(st.floats(0.0, 1e3), min_size=2, max_size=8))),
    st.one_of(st.just(0.0), st.floats(-0.9, 5.0)))
def test_condition_i_majorizes_the_production(a, nu):
    """Over random power laws with 0 <= gamma0 <= 1 and random tables,
    m0 + m1 x majorizes (n0 - 1) a(x) from 1e-12 to 1e12 and at every knot,
    to rounding."""
    ks = replace(make_kernels(daughter="power-law", nu=nu), a=a)
    cond = mb.global_conditions(ks)
    assert cond.cond_i and cond.m0 >= 0.0 and cond.m1 >= 0.0
    xs = SIZES if a.kind != "table" else np.union1d(SIZES, a.table_x)
    production = (ks.b.number_of_daughters() - 1.0) * a(xs)
    assert np.all(production <= (cond.m0 + cond.m1 * xs) * (1.0 + 1e-13))


@pytest.mark.parametrize("gamma0", [1.0 + 1e-9, 1.5, 2.0])
def test_superlinear_power_law_has_no_affine_majorant(gamma0):
    """(n0 - 1) a0 x^gamma0 / x grows without bound for gamma0 > 1, unless
    it is 0."""
    cond = mb.global_conditions(make_kernels(a0=1.0, gamma0=gamma0))
    assert not cond.cond_i and cond.m0 == cond.m1 == math.inf
    assert mb.global_conditions(make_kernels(a0=0.0, gamma0=gamma0)).cond_i


class TestBoundSystem:
    @staticmethod
    def _params(ks, cond, times, M0=1.0, M1=1.0):
        env = mb.m01_envelope(cond, ks, M0, M1, times, 1e-3)
        return mb.assemble_bound_params(ks, 2.0, env, cond)

    def test_condition_ii_m1_is_exponential(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks)
        times = np.linspace(0, 1, 21)
        par = self._params(ks, cond, times)
        # M1_max is the peak of the M1 column the bound system prints
        assert par.M1_max == float(np.exp(0.3 * times[-1]))
        bt = mb.bound_system(par, {0: 1.0, 1: 1.0, 2: 2.0}, times, dt=1e-3)
        assert np.allclose(bt.column(1), np.exp(0.3 * times), rtol=1e-12)
        assert par.M1_max == float(np.max(bt.column(1)))

    def test_envelope_at_other_times_rejected(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        par = self._params(ks, mb.global_conditions(ks), np.linspace(0, 1, 11))
        with pytest.raises(ValueError, match="other times"):
            mb.bound_system(par, {0: 1.0, 1: 1.0, 2: 2.0}, np.linspace(0, 1, 21), dt=1e-3)

    def test_condition_i_m1_max_is_the_printed_peak(self):
        ks = make_kernels(a0=1.0, growth="affine", r0=0.1, r1=0.1, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks)
        assert cond.certified == "i"
        times = np.linspace(0, 1, 11)
        par = self._params(ks, cond, times)
        bt = mb.bound_system(par, {0: 1.0, 1: 1.0, 2: 2.0}, times, dt=1e-3)
        assert par.M1_max == float(np.max(bt.column(1)))
        assert bt.column(0)[-1] > 1.0 and bt.column(1)[-1] > 1.0

    def test_pure_fragmentation_bound_closed_form(self):
        # k = 0, r = 0: dM_i <= nu_i M_i integrates to M_i(0) e^(nu_i t)
        ks = make_kernels(a0=1.0, growth="constant", r0=0.0)
        cond = mb.global_conditions(ks)
        times = np.linspace(0, 1, 11)
        par = self._params(ks, cond, times)
        assert par.K[2] == 0.0
        bt = mb.bound_system(par, {0: 1.0, 1: 1.0, 2: 3.0}, times, dt=1e-3)
        assert np.allclose(bt.column(2), 3.0 * np.exp(par.nu[2] * times), rtol=1e-9)

    def test_zero_initial_moments_bounded_by_source_envelope(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks)
        times = np.linspace(0, 1, 11)
        # constants assembled on an M1 envelope from M1(0) = 1.5, cascade
        # driven by a zero M1 column: only the source term D0 is left
        par = replace(self._params(ks, cond, times, M1=1.5),
                      envelope={1: np.zeros_like(times)})
        bt = mb.bound_system(par, {0: 0.0, 1: 0.0, 2: 0.0}, times, dt=1e-3)
        d0, d1 = par.D0[2], par.D1[2]
        assert d0 > 0.0
        envelope = d0 / d1 * (np.exp(d1 * times) - 1.0)
        assert np.all(bt.column(2) <= envelope * (1 + 1e-9))

    def test_monotone_in_k0_and_delta(self):
        times = np.linspace(0, 1, 11)
        init = {0: 1.0, 1: 1.0, 2: 2.0}
        ks1 = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                           coag_kind="sum")
        ks2 = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=1.0,
                           coag_kind="sum")
        cond = mb.global_conditions(ks1)
        p1 = self._params(ks1, cond, times)
        p2 = self._params(ks2, mb.global_conditions(ks2), times)
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
            p3.D2[i] = p3.rtilde + p3.K[i] * p3.M1_max * (1.0 + mb.C_ALPHA + young)
            p3.D3[i] = p3.K[i] * young
        b3 = mb.bound_system(p3, init, times, dt=1e-3)
        assert np.all(b3.column(2) >= b1.column(2) * (1 - 1e-12))

    def test_condition_ii_m1_column_ignores_m0(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=0.3, k0=0.5,
                          coag_kind="sum")
        cond = mb.global_conditions(ks)
        times = np.linspace(0, 1, 11)
        p_small = self._params(ks, cond, times, M0=0.1)
        p_large = self._params(ks, cond, times, M0=99.0)
        b_small = mb.bound_system(p_small, {0: 0.1, 1: 1.0, 2: 2.0}, times, dt=1e-3)
        b_large = mb.bound_system(p_large, {0: 99.0, 1: 1.0, 2: 2.0}, times, dt=1e-3)
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
    cond = mb.global_conditions(ks)
    env = mb.m01_envelope(cond, ks, traj.M0[0], traj.M1[0], traj.times, cfg.dt)
    par = mb.assemble_bound_params(ks, 2.0, env, cond)
    bounds = mb.bound_system(par, {0: traj.M0[0], 1: traj.M1[0], 2: traj.M2[0]},
                             traj.times, cfg.dt)
    return ks, traj, par, bounds


class TestDomination:
    def test_all_orders_dominated(self, scenario):
        ks, traj, par, bounds = scenario
        rows = mb.check_domination(traj, bounds, ks)
        assert all(r.passed for r in rows), [(r.name, r.measured) for r in rows]
        names = {r.name for r in rows}
        assert {"M0", "M1", "M2", "Mm", "Phi"} <= names

    def test_comparison_principle(self, scenario):
        ks, traj, par, _ = scenario
        assert mb.comparison_principle_residual(traj, par) <= 1e-6


def test_phi_is_checked_against_the_order_2_bound():
    """Phi starts at M2(0) and obeys the order-2 comparison ODE, so its
    envelope is the M2 bound itself, not a second integration of it."""
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    ctx = ScenarioContext(load_scenario(raw))
    traj, bounds, ks = ctx.trajectory, ctx.bounds, ctx.ks
    assert ctx.conditions.certified == "ii" and mb.PHI_ORDER == 2
    assert all(isinstance(key, int) for key in bounds.columns)
    flux = np.array([mb._frag_flux(f, ks, 2) for f in traj.fields])
    acc = np.concatenate([[0.0], cumulative_trapezoid(flux, traj.times)])
    phi = traj.M2 + 0.5 * bounds.params.delta_prime[2] * acc
    rows = {r.name: r for r in SUITES["moment-domination"](ctx)}
    assert rows["Phi"].measured == float(np.max((phi / bounds.column(2))[1:]))
