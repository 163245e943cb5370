import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import make_kernels
from gfc.fragmentation import build_daughter_matrix
from gfc.grid import SizeGrid
from gfc.kernels import (REACHABLE, UNREACHABLE, CoagulationKernel,
                         DaughterDistribution, GrowthRate,
                         SamplePlan, compute_beta, daughter_moment,
                         moment_deficit, validate_kernel_set)


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
        rows = {r.name: r for r in validate_kernel_set(ks, SamplePlan(xmin=0.1, xmax=50.0))}
        assert not rows["coag-class-bound"].passed


def test_compute_beta_values():
    assert compute_beta(1.0, 1.0) == 4.0
    assert compute_beta(0.0, 5.0) == 0.0
    assert compute_beta(0.5, 3.0) == 4.0


class TestValidation:
    def test_aizenman_bak_set_passes(self):
        ks = make_kernels(a0=1.0, gamma0=1.0, growth="constant", r0=0.0)
        rows = validate_kernel_set(ks, SamplePlan(m=2.0))
        assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
        assert {r.name: r for r in rows}["growth-positive"].status == "n/a"

    def test_growth_set_passes_with_origin_class(self):
        ks = make_kernels(a0=1.0, growth="affine", r0=1.0, r1=1.0)
        rows = validate_kernel_set(ks, SamplePlan(m=2.0))
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
        rows = {r.name: r for r in validate_kernel_set(ks, SamplePlan(m=2.0))}
        row = rows["daughter-mass-conservation"]
        assert not row.passed
        assert row.measured == pytest.approx(0.5, rel=1e-6)   # residual y/2, relative

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_liminf_check_catches_degenerate_daughter(self):
        ks = make_kernels(a0=1.0, daughter="power-law", nu=1000.0)
        rows = {r.name: r for r in validate_kernel_set(ks, SamplePlan(m=2.0))}
        assert not rows["daughter-liminf"].passed

    def test_weight_order_rows(self):
        ks = make_kernels(a0=1.0, k0=1.0, coag_kind="sum", alpha=0.5)
        rows = {r.name: r for r in validate_kernel_set(ks, SamplePlan(m=1.2))}
        assert rows["weight-order"].passed            # 1.2 > max(1, 0)
        assert not rows["weight-order-coagulation"].passed   # needs m > 1.5
