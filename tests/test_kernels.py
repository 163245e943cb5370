import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import GROWTH_SPELLINGS, make_kernels, quad_per_interval, recorded_intervals
import gfc.fragmentation
import gfc.kernels
from gfc.config import load_scenario
from gfc.fragmentation import build_daughter_matrix, fragmentation_constants
from gfc.grid import SizeGrid
from gfc.kernels import (REACHABLE, UNREACHABLE, CoagulationKernel,
                         DaughterDistribution, FragmentationRate, GrowthRate, QuadratureError,
                         compute_beta, daughter_moment, moment_deficit, validate_kernel_set)
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


def exact_bracket(xs, x: float) -> tuple[int, Fraction, Fraction]:
    """The one table rule in exact arithmetic, linear between knots and
    constant beyond them: the piece k of x and the weights of knots k, k + 1."""
    k = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0), len(xs) - 2)
    lo, hi = Fraction(float(xs[k])), Fraction(float(xs[k + 1]))
    xc = min(max(Fraction(x), lo), hi)
    return k, (hi - xc) / (hi - lo), (xc - lo) / (hi - lo)


def exact_table_value(xs, vs, x: float) -> Fraction:
    k, w_lo, w_hi = exact_bracket(xs, x)
    return Fraction(float(vs[k])) * w_lo + Fraction(float(vs[k + 1])) * w_hi


def exact_bilinear(xs, K, x: float, y: float) -> Fraction:
    (i, xl, xh), (j, yl, yh) = exact_bracket(xs, x), exact_bracket(xs, y)
    return sum((wx * wy * Fraction(float(K[i + a, j + b]))
                for a, wx in ((0, xl), (1, xh)) for b, wy in ((0, yl), (1, yh))), Fraction(0))


def assert_within_ulps(got: float, exact: Fraction, ulps: int = 4) -> None:
    assert abs(Fraction(float(got)) - exact) <= ulps * Fraction(math.ulp(float(exact))), \
        (got, float(exact))


@st.composite
def daughter_tables(draw):
    """A table daughter law: 2 to 20 knots on [0, 1], phi in [0, 10], not all near 0."""
    knots = draw(st.integers(2, 20))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=knots - 2,
                          max_size=knots - 2, unique=True))
    u = np.array([0.0, *sorted(inner), 1.0])
    assume(np.all(np.diff(u) > 1e-3))
    phi = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=knots, max_size=knots)))
    assume(np.any(phi > 0.01))
    return DaughterDistribution("table", table_u=u, table_phi=phi)


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
        b = data.draw(daughter_tables())
        u = b.table_u
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
        v = data.draw(st.floats(0.0, 1.0))
        if v >= 2.0**-960:
            assert_shape_integrals_match_quadrature(b, v, u)
            return
        # quad cannot resolve [0, v] near the subnormals (see the power-law
        # test below); v lies below the first inner knot, where phi is linear
        c0, c1 = b(0.0, 1.0), (b(u[1], 1.0) - b(0.0, 1.0)) / u[1]
        for p in SHAPE_ORDERS:
            assert b.shape_integral(p, v) == pytest.approx(
                c0 * v**(p + 1) / (p + 1) + c1 * v**(p + 2) / (p + 2), rel=1e-9, abs=1e-300)

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

        for helper in ("_quad", "_quad_intervals"):
            monkeypatch.setattr(gfc.kernels, helper, refuse)
        # growth off, so no growth-origin quadrature runs either
        ks = dataclasses.replace(make_kernels(a0=1.0, r0=0.0), b=b)
        for m in (0.0, 1.5, 2.0, 3.0):
            assert daughter_moment(b, m, 7.0) == 7.0**m * b.shape_integral(m, 1.0)
        for i in (2.0, 3.0):
            assert fragmentation_constants(ks, i)[0] == 1.0 - b.shape_integral(i, 1.0)
        rows = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2, m=2.0)}
        assert rows["daughter-liminf"].measured == 1.0 - b.shape_integral(2.0, 1.0)
        assert rows["daughter-liminf"].passed
        # both read the one daughter deficit N_m(1)
        orders = []
        for module in (gfc.kernels, gfc.fragmentation):
            monkeypatch.setattr(module, "moment_deficit",
                                lambda b, m, y: orders.append((m, y)) or moment_deficit(b, m, y))
        fragmentation_constants(ks, 3.0)
        validate_kernel_set(ks, 1e-3, 1e2, m=2.0)
        assert orders == [(3.0, 1.0), (2.0, 1.0)]
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
                    Antiderivatives(ks)
            return
        ref, alt = (Antiderivatives(ks) for ks in kernel_sets)
        x, u = np.geomspace(1e-4, 1e3, 60), np.linspace(-8.0, 8.0, 41)
        np.testing.assert_array_equal(ref.R(x), alt.R(x))
        np.testing.assert_array_equal(ref.R_inverse(u), alt.R_inverse(u))
        assert ref.R_at_origin == alt.R_at_origin


    def test_steeply_falling_table_piece_does_not_cancel(self):
        xs, rs = [1e-3, 1e-2], [1e20, 1e-3]
        r = GrowthRate("table", table_x=xs, table_r=rs)
        x = 1e-2 * (1 - 2.0**-52)
        exact = exact_table_value(np.array(xs), np.array(rs), x)
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
            exact = exact_table_value(xs, rs, x)
            assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(float(exact)))
        assert np.all(r(xs) == rs)
        assert np.all(r(pts[pts <= xs[0]]) == rs[0]) and np.all(r(pts[pts >= xs[-1]]) == rs[-1])


def read_table(coefficient: str, knots, values):
    """(read, scale): coefficient 'a' or 'phi' built from the table, read at
    x, and the factor it applies to the table's value there (phi's
    renormalisation; it is read at parent size 1)."""
    if coefficient == "phi":
        b = DaughterDistribution("table", table_u=knots, table_phi=values)
        return (lambda u: b(u, 1.0)), b._scale
    return FragmentationRate("table", table_x=knots, table_a=values), 1.0


BELOW_1E_2 = 1e-2 * (1 - 2.0**-52)


class TestTableRule:
    """Every coefficient table is read by one rule, linear between knots and
    constant beyond them, as a convex combination of knot values (bilinear
    for k): a steep piece does not cancel next to a knot.  The growth rate's
    cases are TestGrowthRate's."""

    @pytest.mark.parametrize("coefficient, knots, values, x, value", [
        ("a", [1e-3, 1e-2], [1e20, 1e-3], BELOW_1E_2, 19274.706288631),
        ("phi", [0.0, 0.5, 1.0], [1e6, 1e-3, 1.0], 0.5 * (1 - 2.0**-52), 1.000000222e-3),
    ])
    def test_steep_piece_beside_a_knot(self, coefficient, knots, values, x, value):
        """Read through np.interp, a was 49152 here and phi 5.8e-8 relative off."""
        read, scale = read_table(coefficient, knots, values)
        exact = exact_table_value(knots, values, x)
        assert float(exact) == pytest.approx(value, rel=1e-10)
        assert_within_ulps(read(x), Fraction(scale) * exact)

    def test_steep_kernel_piece_beside_a_knot(self):
        k = CoagulationKernel("table", table_x=[1e-3, 1e-2, 1.0],
                              table_k=[[1e20, 1e-3, 1.0], [1e-3, 1e-3, 1.0], [1.0, 1.0, 1.0]])
        exact = exact_bilinear(k.table_x, k.table_k, BELOW_1E_2, 1e-3)
        assert float(exact) == pytest.approx(19274.706288631, rel=1e-10)
        assert_within_ulps(k(BELOW_1E_2, 1e-3), exact)
        assert_within_ulps(k(1e-3, BELOW_1E_2), exact)

    @staticmethod
    def steep_values(data, n):
        """n values from 1e-3 to 1e20, rising, falling or in any order."""
        logs = np.array(data.draw(st.lists(st.floats(-3.0, 20.0), min_size=n, max_size=n)))
        order = data.draw(st.sampled_from(["rising", "falling", "any"]))
        return 10.0 ** {"rising": np.sort(logs), "falling": np.sort(logs)[::-1],
                        "any": logs}[order]

    @staticmethod
    def knots(data, n, unit=False):
        """n strictly increasing knots, geometric over up to 14 decades or,
        for phi, from 0 to 1."""
        gaps = np.array(data.draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1,
                                           max_size=n - 1)))
        if unit:
            xs = np.concatenate([[0.0], np.cumsum(gaps) / np.sum(gaps)])
            xs[-1] = 1.0
        else:
            xs = 10.0 ** (data.draw(st.floats(-4.0, 1.0))
                          + np.concatenate([[0.0], np.cumsum(gaps)]))
        assume(np.all(np.diff(xs) > 0))
        return xs

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["a", "phi"]), st.integers(2, 10), st.data())
    def test_steep_tables_within_four_ulp(self, coefficient, n, data):
        """A knot returns its value, beyond the ends the end value, and one
        ulp either side of a knot stays within 4 ulp of the exact piece."""
        knots = self.knots(data, n, unit=coefficient == "phi")
        values = self.steep_values(data, n)
        read, scale = read_table(coefficient, knots, values)
        np.testing.assert_array_equal(read(knots), scale * values)
        beside = np.concatenate([np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        if coefficient == "phi":
            beside = beside[(beside >= 0.0) & (beside <= 1.0)]
        else:
            ends = np.array([0.0, knots[0] / 10, knots[-1] * 10, np.inf])
            np.testing.assert_array_equal(read(ends), values[[0, 0, -1, -1]])
        for x, got in zip(beside.tolist(), read(beside).tolist()):
            assert_within_ulps(got, Fraction(scale) * exact_table_value(knots, values, x))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_steep_kernel_tables_within_ten_ulp(self, n, data):
        """The same for k in each argument, on the symmetrized table, within
        10 ulp: each weight carries three roundings and each of the two
        nested 1-D readings two more, and an ulp exceeds 2^-53 of the value."""
        knots = self.knots(data, n)
        k = CoagulationKernel("table", table_x=knots,
                              table_k=self.steep_values(data, n * n).reshape(n, n))
        K = k.table_k
        np.testing.assert_array_equal(k(knots[:, None], knots[None, :]), K)
        ends = np.array([0.0, knots[0] / 10, knots[-1] * 10, np.inf])
        np.testing.assert_array_equal(k(ends[:, None], ends[None, :]),
                                      K[np.ix_([0, 0, -1, -1], [0, 0, -1, -1])])
        pts = np.concatenate([ends[:-1], knots, np.nextafter(knots, 0.0),
                              np.nextafter(knots, np.inf)])
        got = k(pts[:, None], pts[None, :])
        for i, x in enumerate(pts.tolist()):
            for j, y in enumerate(pts.tolist()):
                assert_within_ulps(got[i, j], exact_bilinear(knots, K, x, y), ulps=10)


class TestCoagulationKernel:
    def test_class_bounds(self):
        x = np.linspace(0.1, 30, 20)
        const = CoagulationKernel("constant", k0=2.0, alpha=0.5, bound_class="global")
        assert np.all(const(x[:, None], x[None, :]) <= const.class_bound(x[:, None], x[None, :]))
        prod = CoagulationKernel("product", k0=1.0, alpha=0.5, bound_class="local")
        assert np.all(np.abs(prod(x[:, None], x[None, :])
                             - prod.class_bound(x[:, None], x[None, :])) < 1e-12)

    @pytest.mark.parametrize("kind", ["constant", "sum", "product", "table"])
    def test_on_grid_is_kept_per_grid(self, kind):
        """Every kind evaluates its pair values once per (kernel, grid): a
        second on_grid, on the same or an equal grid, returns the same
        read-only array; another grid gets its own."""
        k = CoagulationKernel(kind, k0=1.0, alpha=0.5, table_x=[0.1, 10.0],
                              table_k=[[1.0, 2.0], [2.0, 3.0]])
        first = k.on_grid(SizeGrid.geometric(0.1, 10.0, 16))
        assert first.shape == (16, 16) and not first.flags.writeable
        assert k.on_grid(SizeGrid.geometric(0.1, 10.0, 16)) is first
        assert k.on_grid(SizeGrid.geometric(0.1, 10.0, 8)).shape == (8, 8)

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

    def test_frag_lower_bound_reads_a_table_on_all_of_x0_to_inf(self):
        """The cascade assumes a(x) >= a0 x^gamma0 on [x0, inf).  A table is
        constant past its last knot, so with a0 gamma0 > 0 it breaks that
        there, however well it fits the probes in [xmin, xmax]."""
        knots = np.geomspace(1e-3, 60.0, 30).tolist()

        def row(**frag):
            sc = load_scenario("gfc-global-ii", {"grid": {"cells": 64},
                                                 "kernels": {"fragmentation": frag}})
            grid = sc.grid()
            rows = validate_kernel_set(sc.kernel_set(), grid.xmin, grid.xmax)
            return grid.xmax, {r.name: r for r in rows}["frag-lower-bound"]

        xmax, identity = row(kind="table", table_x=knots, table_a=knots, a0=1.0, gamma0=1.0)
        assert xmax < knots[-1]          # every probe lies where a(x) = x
        assert identity.measured == -math.inf and not identity.passed
        # gamma0 = 0: the bound is a0 everywhere, met at x0 and every knot past it
        _, flat = row(kind="table", table_x=knots, table_a=knots, a0=1.0, gamma0=0.0)
        assert flat.passed and flat.measured == 0.0   # a(x0) = x0 = 1 = a0
        # ... and broken at a knot past xmax, which no probe reaches
        _, row_dip = row(kind="table", table_x=[1e-3, 60.0, 100.0, 200.0],
                         table_a=[1.0, 5.0, 0.5, 5.0], a0=1.0, gamma0=0.0)
        assert row_dip.measured == pytest.approx(-0.5, rel=1e-15) and not row_dip.passed
        # the power law meets its own bound exactly
        assert row(kind="power-law", a0=1.0, gamma0=1.0, x0=1.0)[1].measured == 0.0

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

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(daughter_tables(), st.floats(-1.0, 50.0, exclude_min=True).map(
               lambda nu: DaughterDistribution("power-law", nu=nu))),
           st.floats(1e-4, 0.1), st.floats(1.0, 1e3))
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_mass_residual_matches_scalar_quadrature(self, b, xmin, xmax):
        """The one vector quadrature over all sizes reads the mass residual
        that a scalar quad per size reads, to 1e-12."""
        ks = dataclasses.replace(make_kernels(a0=1.0, r0=0.0), b=b)   # growth off
        with recorded_intervals(gfc.kernels) as calls:
            rows = {r.name: r for r in validate_kernel_set(ks, xmin, xmax)}
        ((fun, lo, ys, options, mass),) = calls
        oracle = quad_per_interval(fun, lo, ys, **options)
        np.testing.assert_allclose(mass / ys, oracle / ys, rtol=0.0, atol=1e-12)
        assert rows["daughter-mass-conservation"].measured == pytest.approx(
            np.max(np.abs(oracle - ys) / ys), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_non_integrable_daughter_mass_reads_inf(self):
        class Steep(DaughterDistribution):
            # phi(u) = u^-2.5, so x*b(x, y) = y*u^-1.5 is not integrable at 0
            def __call__(self, x, y):
                x, y = np.asarray(x, float), np.asarray(y, float)
                with np.errstate(divide="ignore"):
                    return np.where(x > y, 0.0, (x / y) ** -2.5 / y)

        ks = make_kernels(a0=1.0)
        object.__setattr__(ks, "b", Steep("uniform-binary"))
        rows = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2, m=2.0)}
        assert rows["daughter-mass-conservation"].measured == math.inf
        assert not rows["daughter-mass-conservation"].passed
        assert rows["daughter-number-bound"].measured == math.inf
        assert not rows["daughter-number-bound"].passed
        with pytest.raises(QuadratureError):
            gfc.kernels._quad_intervals(lambda x: x**-1.5, 0.0, np.geomspace(1e-3, 1e2, 50))

    @pytest.mark.parametrize("growth", [{"growth": "linear", "r1": 0.25},
                                        {"growth": "affine", "r0": 0.5, "r1": 1.0}])
    def test_misdeclared_origin_class_fails(self, growth):
        class Misdeclared(GrowthRate):
            @property
            def origin_class(self):
                return REACHABLE if super().origin_class == UNREACHABLE else UNREACHABLE

        ks = make_kernels(a0=1.0, **growth)
        honest = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2)}["growth-origin-class"]
        object.__setattr__(ks, "r", Misdeclared(ks.r.kind, ks.r.r0, ks.r.r1))
        row = {r.name: r for r in validate_kernel_set(ks, 1e-3, 1e2)}["growth-origin-class"]
        assert honest.passed and not row.passed
        assert row.measured == honest.measured and row.relation != honest.relation

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
