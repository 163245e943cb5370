import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import GROWTH_SPELLINGS, make_kernels
import gfc.kernels
from gfc.fragmentation import build_daughter_matrix, fragmentation_constants
from gfc.grid import SizeGrid
from gfc.kernels import (REACHABLE, UNREACHABLE, CoagulationKernel,
                         DaughterDistribution, GrowthRate, QuadratureError, compute_beta,
                         daughter_moment, moment_deficit, validate_kernel_set)
from gfc.transport import Antiderivatives, ParameterDomainError


SHAPE_ORDERS = (0.0, 1.0, 1.5, 2.0, 3.5)
TABLE_U = np.linspace(0.0, 1.0, 17)


def assert_shape_integrals_match_quadrature(b, u, knots=()):
    """Phi_p(u) = int_0^u s^p phi(s) ds, phi(s) = b(s, 1), against adaptive
    quadrature at every order of SHAPE_ORDERS."""
    points = [float(k) for k in knots if 0.0 < k < u] or None
    for p in SHAPE_ORDERS:
        oracle, _ = quad(lambda s: b(s, 1.0) * s**p, 0.0, u, points=points,
                         limit=100, epsabs=0.0, epsrel=1e-13)
        assert b.shape_integral(p, u) == pytest.approx(oracle, rel=1e-9, abs=1e-300)


class TestDaughterMoments:
    def test_uniform_binary_first_moment_is_parent(self):
        b = DaughterDistribution("uniform-binary")
        assert daughter_moment(b, 1.0, 5.0) == pytest.approx(5.0, rel=1e-14)

    def test_uniform_binary_count(self):
        b = DaughterDistribution("uniform-binary")
        oracle, _ = quad(lambda x: 2.0 / 5.0, 0.0, 5.0)
        assert oracle == pytest.approx(2.0, abs=1e-12)
        assert daughter_moment(b, 0.0, 5.0) == pytest.approx(2.0, rel=1e-14)

    def test_power_law_closed_form_matches_quadrature(self):
        b = DaughterDistribution("power-law", nu=1.0)
        val = daughter_moment(b, 2.0, 2.0)
        oracle, _ = quad(lambda x: 3.0 * x / 4.0 * x**2, 0.0, 2.0)
        assert val == pytest.approx(3.0, rel=1e-14)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_moment_deficit_signs(self):
        b = DaughterDistribution("uniform-binary")
        assert moment_deficit(b, 1.0, 7.0) == pytest.approx(0.0, abs=1e-12)
        assert moment_deficit(b, 2.0, 3.0) == pytest.approx(3.0, rel=1e-14)
        assert moment_deficit(b, 0.0, 3.0) == pytest.approx(-1.0, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(0.05, 20.0), st.floats(0.0, 4.0))
    def test_power_law_homogeneity(self, y, c, m):
        b = DaughterDistribution("power-law", nu=0.5)
        lhs = daughter_moment(b, m, c * y)
        rhs = c**m * daughter_moment(b, m, y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
    def test_deficit_ratio_increasing_in_order(self, nu):
        b = DaughterDistribution("power-law", nu=nu)
        for y in (0.3, 2.0, 40.0):
            ratios = [moment_deficit(b, m, y) / y**m for m in (1.5, 2.0, 3.0, 4.5)]
            assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_table_kind_is_renormalized_exactly(self):
        u = np.linspace(0.0, 1.0, 9)
        b = DaughterDistribution("table", table_u=u, table_phi=1.0 + np.sin(np.pi * u))
        for y in (0.5, 3.0, 12.0):
            mass, _ = quad(lambda x: b(x, y) * x, 0, y, limit=100)
            assert mass == pytest.approx(y, rel=1e-9)
        # partial integrals agree with quadrature
        part = b.partial_mass(4.0, 1.5)
        oracle, _ = quad(lambda x: b(x, 4.0) * x, 0, 1.5, limit=100)
        assert part == pytest.approx(oracle, rel=1e-9)
        num = b.partial_number(4.0, 1.5)
        oracle_n, _ = quad(lambda x: b(x, 4.0), 0, 1.5, limit=100)
        assert num == pytest.approx(oracle_n, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_table_kind_random_tables(self, data):
        knots = data.draw(st.integers(2, 20))
        inner = data.draw(st.lists(st.floats(0.01, 0.99), min_size=knots - 2,
                                   max_size=knots - 2, unique=True))
        u = np.array([0.0, *sorted(inner), 1.0])
        assume(np.all(np.diff(u) > 1e-3))
        phi = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=knots,
                                          max_size=knots)))
        assume(np.any(phi > 0.01))
        b = DaughterDistribution("table", table_u=u, table_phi=phi)
        y = data.draw(st.floats(0.01, 50.0))
        up_to = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 60.0)))
        z = min(up_to, y)
        points = [float(k * y) for k in u if 0.0 < k * y < z]
        for p, value in ((0, b.partial_number(y, up_to)), (1, b.partial_mass(y, up_to))):
            oracle, _ = quad(lambda x: b(x, y) * x**p, 0.0, z, points=points or None,
                             limit=100, epsabs=0.0, epsrel=1e-13)
            assert value == pytest.approx(oracle, rel=1e-9, abs=1e-300)
        grid = SizeGrid.geometric(data.draw(st.floats(1e-4, 0.1)), 40.0,
                                  data.draw(st.integers(4, 96)))
        dm = build_daughter_matrix(b, grid)
        np.testing.assert_allclose(dm.column_moment(1.0), grid.centers, rtol=1e-12)
        assert_shape_integrals_match_quadrature(b, data.draw(st.floats(0.0, 1.0)), u)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.9, 6.0), st.floats(0.0, 1.0))
    def test_power_law_shape_integral_random_exponents(self, nu, u):
        b = DaughterDistribution("power-law", nu=nu)
        if u >= 2.0**-960:
            assert_shape_integrals_match_quadrature(b, u)
            return
        # Near the subnormals adaptive quadrature cannot bisect [0, u] finely
        # enough to resolve s**nu (it returns nan or a wrong value below about
        # 1e-304), so the oracle integrates [0, m], u = m * 2**e, and scales
        # back by Phi_p(u) = 2**(e*(nu + p + 1)) Phi_p(m), which holds exactly
        # for phi(s) proportional to s**nu.
        m, e = math.frexp(u)
        for p in SHAPE_ORDERS:
            oracle, _ = quad(lambda s: b(s, 1.0) * s**p, 0.0, m,
                             limit=100, epsabs=0.0, epsrel=1e-13)
            assert b.shape_integral(p, u) == pytest.approx(
                2.0**(e * (nu + p + 1.0)) * oracle, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("b", [
        DaughterDistribution("power-law", nu=0.5),
        DaughterDistribution("table", table_u=TABLE_U,
                             table_phi=6.0 * TABLE_U * (1.0 - TABLE_U) + 0.5)])
    def test_daughter_constants_need_no_quadrature(self, monkeypatch, b):
        def refuse(*args, **kwargs):
            raise QuadratureError("a daughter constant asked for quadrature")

        monkeypatch.setattr(gfc.kernels, "_quad", refuse)
        # growth off, so no growth-origin quadrature runs either
        ks = dataclasses.replace(make_kernels(a0=1.0, r0=0.0), b=b)
        for m in (0.0, 1.5, 2.0, 3.0):
            assert daughter_moment(b, m, 7.0) == 7.0**m * b.shape_integral(m, 1.0)
        for i in (2.0, 3.0):
            assert fragmentation_constants(ks, i)[0] == 1.0 - b.shape_integral(i, 1.0)
        rows = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2, m=2.0)}
        assert rows["daughter-liminf"].measured == 1.0 - b.shape_integral(2.0, 1.0)
        assert rows["daughter-liminf"].passed
        # the independent checks of b still integrate it numerically
        assert rows["daughter-mass-conservation"].measured == math.inf
        assert rows["daughter-number-bound"].measured == math.inf

    def test_uniform_binary_is_the_power_law_at_nu_zero(self):
        grid = SizeGrid.geometric(1e-3, 50.0, 256)
        binary = build_daughter_matrix(DaughterDistribution("uniform-binary", nu=0.7), grid)
        power = build_daughter_matrix(DaughterDistribution("power-law", nu=0.0), grid)
        np.testing.assert_array_equal(binary.w, power.w)


class TestGrowthRate:
    def test_affine_bound_and_rtilde(self):
        r = GrowthRate("affine", r0=1.0, r1=1.0)
        assert r.rtilde == 1.0
        x = np.linspace(0.01, 100, 50)
        assert np.all(r(x) <= r.rtilde * (1 + x) + 1e-12)

    def test_origin_classification(self):
        assert GrowthRate("constant", r0=2.0).origin_class == REACHABLE
        assert GrowthRate("affine", r0=0.5, r1=1.0).origin_class == REACHABLE
        assert GrowthRate("linear", r1=1.0).origin_class == UNREACHABLE

    @pytest.mark.parametrize("canonical, affine", GROWTH_SPELLINGS)
    def test_spellings_of_one_affine_law_agree(self, canonical, affine):
        rates = [GrowthRate(**canonical), GrowthRate(**affine)]
        assert len({(r.is_zero, r.origin_class) for r in rates}) == 1
        kernel_sets = [dataclasses.replace(make_kernels(a0=1.0), r=r) for r in rates]
        if rates[0].is_zero:
            for ks in kernel_sets:
                with pytest.raises(ParameterDomainError):
                    Antiderivatives(ks, 1e-4, 1e3)
            return
        ref, alt = (Antiderivatives(ks, 1e-4, 1e3) for ks in kernel_sets)
        x, u = np.geomspace(1e-4, 1e3, 60), np.linspace(-8.0, 8.0, 41)
        np.testing.assert_array_equal(ref.R(x), alt.R(x))
        np.testing.assert_array_equal(ref.R_inverse(u), alt.R_inverse(u))
        assert ref.R_at_origin == alt.R_at_origin


    # the table rate is linear between knots and constant beyond them
    @staticmethod
    def exact_table_rate(xs, rs, x: float) -> Fraction:
        k = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0), len(xs) - 2)
        lo, hi = Fraction(float(xs[k])), Fraction(float(xs[k + 1]))
        xc = min(max(Fraction(x), lo), hi)
        return (Fraction(float(rs[k])) * (hi - xc) + Fraction(float(rs[k + 1])) * (xc - lo)) / (hi - lo)

    def test_steeply_falling_table_piece_does_not_cancel(self):
        xs, rs = [1e-3, 1e-2], [1e20, 1e-3]
        r = GrowthRate("table", table_x=xs, table_r=rs)
        x = 1e-2 * (1 - 2.0**-52)
        exact = self.exact_table_rate(np.array(xs), np.array(rs), x)
        assert float(exact) == pytest.approx(19274.70628863, rel=1e-12)
        assert abs(Fraction(float(r(x))) - exact) <= Fraction(math.ulp(float(exact)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-4.0, 3.0), min_size=2, max_size=6, unique=True),
           st.lists(st.floats(-3.0, 20.0), min_size=6, max_size=6),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_table_rate_within_four_ulp(self, log_x, log_r, where):
        # rising and falling pieces over 23 decades of rate, read inside
        # each piece, at the knots, beside them and beyond both ends
        xs = np.sort(10.0 ** np.array(log_x))
        assume(np.all(np.diff(xs) > 0))
        rs = 10.0 ** np.array(log_r[:xs.size])
        r = GrowthRate("table", table_x=xs, table_r=rs)
        lo, hi = math.log10(xs[0]) - 1.0, math.log10(xs[-1]) + 1.0
        pts = np.concatenate([10.0 ** (lo + (hi - lo) * np.array(where)), xs,
                              np.nextafter(xs, 0.0), np.nextafter(xs, np.inf)])
        got = r(pts)
        for x, value in zip(pts.tolist(), got.tolist()):
            exact = self.exact_table_rate(xs, rs, x)
            assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(float(exact)))
        assert np.all(r(xs) == rs)
        assert np.all(r(pts[pts <= xs[0]]) == rs[0]) and np.all(r(pts[pts >= xs[-1]]) == rs[-1])


class TestCoagulationKernel:
    def test_class_bounds(self):
        x = np.linspace(0.1, 30, 20)
        const = CoagulationKernel("constant", k0=2.0, alpha=0.5, bound_class="global")
        assert np.all(const(x[:, None], x[None, :]) <= const.class_bound(x[:, None], x[None, :]))
        prod = CoagulationKernel("product", k0=1.0, alpha=0.5, bound_class="local")
        assert np.all(np.abs(prod(x[:, None], x[None, :])
                             - prod.class_bound(x[:, None], x[None, :])) < 1e-12)

    def test_product_kernel_violates_global_class(self):
        ks = make_kernels(a0=1.0, k0=1.0, coag_kind="product", bound_class="global",
                          growth="constant", r0=1.0)
        rows = {r.name: r for r in validate_kernel_set(ks, 0.1, 50.0)}
        assert not rows["coag-class-bound"].passed


def test_compute_beta_values():
    assert compute_beta(1.0, 1.0) == 4.0
    assert compute_beta(0.0, 5.0) == 0.0
    assert compute_beta(0.5, 3.0) == 4.0


class TestValidation:
    def test_aizenman_bak_set_passes(self):
        ks = make_kernels(a0=1.0, gamma0=1.0, growth="constant", r0=0.0)
        rows = validate_kernel_set(ks, 1e-3, 1e2, m=2.0)
        assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
        assert {r.name: r for r in rows}["growth-positive"].status == "n/a"

    def test_growth_set_passes_with_origin_class(self):
        ks = make_kernels(a0=1.0, growth="affine", r0=1.0, r1=1.0)
        rows = validate_kernel_set(ks, 1e-3, 1e2, m=2.0)
        assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
        assert {r.name: r for r in rows}["growth-origin-class"].passed

    def test_non_conserving_daughter_fails_mass_check(self):
        class Half(DaughterDistribution):
            # int x * (1/y) dx = y/2: violates local mass conservation
            def __call__(self, x, y):
                x, y = np.asarray(x, float), np.asarray(y, float)
                return np.where(x > y, 0.0, np.broadcast_to(1.0 / y, np.broadcast_shapes(x.shape, y.shape)))

        ks = make_kernels(a0=1.0)
        object.__setattr__(ks, "b", Half("uniform-binary"))
        rows = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2, m=2.0)}
        row = rows["daughter-mass-conservation"]
        assert not row.passed
        assert row.measured == pytest.approx(0.5, rel=1e-6)   # residual y/2, relative
        # int (1/y) dx = 1, half the n0 = 2 of the kind the bounds read
        row = rows["daughter-number-bound"]
        assert not row.passed
        assert row.measured == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_liminf_check_catches_degenerate_daughter(self):
        ks = make_kernels(a0=1.0, daughter="power-law", nu=1000.0)
        rows = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2, m=2.0)}
        assert not rows["daughter-liminf"].passed

    def test_weight_order_rows(self):
        ks = make_kernels(a0=1.0, k0=1.0, coag_kind="sum", alpha=0.5)
        rows = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2, m=1.2)}
        assert rows["weight-order"].passed            # 1.2 > 1
        assert not rows["weight-order-coagulation"].passed   # needs m > 1.5
