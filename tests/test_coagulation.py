import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import make_kernels
from gfc.config import load_scenario
from gfc.coagulation import (_event_rates, apply_coag, apply_coag_beta, build_coag_tables,
                             coag_loss_rate, coag_moment_identity)
from gfc.grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from gfc.kernels import AbsorptionRate, CoagulationKernel


@pytest.fixture(scope="module")
def grid():
    return SizeGrid.geometric(2.0**-8, 2.0**6, 448)   # edges on powers of two


@pytest.fixture(scope="module")
def ct_const(grid):
    return build_coag_tables(CoagulationKernel("constant", k0=2.0, alpha=0.5), grid)


@pytest.fixture(scope="module")
def box_field(grid):
    return DensityField(grid, np.where(grid.centers < 1.0, 1.0, 0.0))


class TestTables:
    def test_interior_split_weights(self, grid, ct_const):
        # the pair tables list the pairs i <= j partner by partner: (j, i)
        # in the row-major order of the lower triangle
        interior = ct_const.interior
        w_sum = ct_const.w_lo[interior] + ct_const.w_hi[interior]
        assert np.allclose(w_sum, 1.0, atol=1e-12)
        x = grid.centers
        s = (x[:, None] + x[None, :])[np.tril_indices(grid.cells)][interior]
        placed = (ct_const.w_lo[interior] * x[ct_const.idx_lo[interior]]
                  + ct_const.w_hi[interior] * x[ct_const.idx_hi[interior]])
        assert np.max(np.abs(placed - s) / s) < 1e-12

    def test_weights_nonnegative(self, ct_const):
        assert np.all(ct_const.w_lo >= 0) and np.all(ct_const.w_hi >= 0)
        assert np.all(ct_const.esc_coeff >= 0)


class TestApplyCoag:
    def test_zero_field(self, grid, ct_const):
        out = apply_coag(DensityField.zeros(grid), ct_const)
        assert np.all(out.values == 0) and out.escaped_mass == 0

    def test_mass_neutral_including_escape(self, grid, ct_const):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = DensityField(grid, rng.random(grid.cells) * np.exp(-grid.centers / 4))
            out = apply_coag(f, ct_const)
            scale = moment(DensityField(grid, np.abs(out.values)), 1.0) + out.escaped_mass
            assert abs(moment(out, 1.0) + out.escaped_mass) <= 1e-12 * scale

    def test_closed_form_on_box(self, grid, ct_const, box_field):
        # k = 2, f = 1 on (0,1): Kf = x - 2 on (0,1) and 2 - x on (1,2)
        out = apply_coag(box_field, ct_const)
        x = grid.centers
        lo = (x > 0.05) & (x < 0.95)
        hi = (x > 1.05) & (x < 1.95)
        assert np.max(np.abs(out.values[lo] - (x[lo] - 2.0))) < 0.02
        assert np.max(np.abs(out.values[hi] - (2.0 - x[hi]))) < 0.02

    def test_quadratic_scaling_exact(self, grid, ct_const, box_field):
        out1 = apply_coag(box_field, ct_const)
        out3 = apply_coag(DensityField(grid, 3.0 * box_field.values), ct_const)
        assert np.allclose(out3.values, 9.0 * out1.values, rtol=1e-13, atol=1e-13)
        assert out3.escaped_mass == pytest.approx(9.0 * out1.escaped_mass, rel=1e-12)

    def test_bilinearity_parallelogram_identity(self, grid, ct_const):
        # K is a quadratic form of the underlying symmetric bilinear map, so
        # K(a+b) + K(a-b) = 2 K(a) + 2 K(b) holds exactly
        rng = np.random.default_rng(7)
        fa = DensityField(grid, rng.random(grid.cells) * np.exp(-grid.centers))
        fb = DensityField(grid, rng.random(grid.cells) * np.exp(-grid.centers))
        plus = apply_coag(DensityField(grid, fa.values + fb.values), ct_const).values
        minus = apply_coag(DensityField(grid, fa.values - fb.values), ct_const).values
        rhs = 2.0 * apply_coag(fa, ct_const).values + 2.0 * apply_coag(fb, ct_const).values
        assert np.allclose(plus + minus, rhs, rtol=1e-11, atol=1e-12)

    def test_loss_bound_from_kernel_class(self, grid):
        ks = make_kernels(k0=0.5, coag_kind="sum", alpha=0.5)
        ct = build_coag_tables(ks.k, grid)
        f = project(lambda x: 0.2 * np.exp(-x), grid)
        lam = coag_loss_rate(f, ct)
        norm = weighted_integral(f, WeightSpec(2.0, "shifted"))
        cap = 2.0 * 0.5 * (1.0 + grid.centers**0.5) * norm
        assert np.all(lam <= cap * (1 + 1e-12))

    def test_escape_routing_near_xmax(self, grid, ct_const):
        f = project(lambda x: np.exp(-((x - 50.0) / 5.0) ** 2), grid)
        out = apply_coag(f, ct_const)
        assert out.escaped_mass > 0
        scale = moment(DensityField(grid, np.abs(out.values)), 1.0) + out.escaped_mass
        assert abs(moment(out, 1.0) + out.escaped_mass) <= 1e-12 * scale


class TestWorkspace:
    def test_apply_allocates_nothing_of_pair_length(self):
        sc = load_scenario("gfc-global-ii")
        grid = sc.grid()
        assert grid.cells == 512
        ct = build_coag_tables(sc.kernel_set().k, grid)
        f = sc.initial_field(grid)
        apply_coag(f, ct)   # warm-up
        tracemalloc.start()
        try:
            apply_coag(f, ct)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.cells * (grid.cells + 1) // 2 * 8

    def test_interleaved_applications_are_reentrant(self, grid):
        # the tables are read-only after set-up: applications interleaved on
        # one set give, bit for bit, what each gives on tables of its own
        k = CoagulationKernel("sum", k0=0.7, alpha=0.5)
        ct = build_coag_tables(k, grid)
        tables = [a.copy() for a in (ct.gain.data, ct.gain.indices, ct.gain.indptr,
                                     ct.row_partner, ct.row_target)]
        rng = np.random.default_rng(3)
        fields = [DensityField(grid, rng.random(grid.cells) * np.exp(-grid.centers))
                  for _ in range(3)]
        shared = [apply_coag(f, ct) for f in fields + fields[::-1]]
        for f, out in zip(fields + fields[::-1], shared):
            fresh = apply_coag(f, build_coag_tables(k, grid))
            assert np.array_equal(out.values, fresh.values)
            assert out.escaped_mass == fresh.escaped_mass
        assert all(np.array_equal(a, b) for a, b in zip(tables, (
            ct.gain.data, ct.gain.indices, ct.gain.indptr, ct.row_partner, ct.row_target)))


def reference_coag(f, kernel):
    """Coagulation rate by a plain loop over all ordered pairs (i, j): each
    event 0.5*k_ij*a_i*a_j (a = f*dx) removes one particle from i and one
    from j and places its merged number on the centers bracketing x_i + x_j,
    or on the last center and a virtual node at xmax, or past xmax."""
    grid = f.grid
    x, n = grid.centers.tolist(), grid.cells
    a = (f.values * grid.widths).tolist()
    gain, loss, esc = [0.0] * n, [0.0] * n, 0.0
    for i in range(n):
        for j in range(n):
            rate = 0.5 * kernel[i, j] * a[i] * a[j]
            loss[i] += rate
            loss[j] += rate
            s = x[i] + x[j]
            if s <= x[-1]:
                lo = min(bisect.bisect_right(x, s) - 1, n - 2)
                wl = (x[lo + 1] - s) / (x[lo + 1] - x[lo])
                gain[lo] += wl * rate
                gain[lo + 1] += (1.0 - wl) * rate
            elif s <= grid.xmax:
                wl = (grid.xmax - s) / (grid.xmax - x[-1])
                gain[-1] += wl * rate
                esc += (1.0 - wl) * grid.xmax * rate
            else:
                esc += s * rate
    return np.array(gain) / grid.widths, np.array(loss) / grid.widths, esc


@st.composite
def coag_cases(draw):
    cells = draw(st.integers(8, 96))
    xmin = 10.0 ** draw(st.floats(-4.0, -1.0))
    # xmax/xmin >= 100 keeps x_0 below half the last cell width, so some
    # pairs straddle the last center; pairs beyond xmax always occur
    grid = SizeGrid.geometric(xmin, xmin * 10.0 ** draw(st.floats(2.0, 5.0)), cells)
    kind = draw(st.sampled_from(["constant", "sum", "product", "table"]))
    k0, alpha = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "table":
        tx = np.geomspace(grid.xmin * 2.0, grid.xmax / 2.0, int(rng.integers(2, 12)))
        tk = rng.random((tx.size, tx.size)) * k0
        k = CoagulationKernel("table", k0=k0, alpha=alpha, table_x=tx, table_k=tk + tk.T)
    else:
        k = CoagulationKernel(kind, k0=k0, alpha=alpha)
    vals = rng.random(cells) * (rng.random(cells) < draw(st.floats(0.2, 1.0)))
    return grid, k, DensityField(grid, vals * np.exp(-grid.centers / grid.xmax))


class TestAgainstPairLoop:
    @settings(max_examples=40, deadline=None)
    @given(coag_cases())
    def test_operator_matches_pair_loop(self, case):
        grid, k, f = case
        ct = build_coag_tables(k, grid)
        straddle = ~ct.interior & (ct.idx_lo >= 0)
        assert straddle.any() and (ct.idx_lo < 0).any()
        gain, loss, esc = reference_coag(f, ct.kernel)
        out = apply_coag(f, ct)
        scale = np.max(gain + loss)
        assert np.max(np.abs(out.values - (gain - loss))) <= 1e-13 * scale
        assert abs(out.escaped_mass - esc) <= 1e-13 * esc
        mass_scale = moment(DensityField(grid, gain + loss), 1.0) + esc
        assert abs(moment(out, 1.0) + out.escaped_mass) <= 1e-12 * mass_scale
        # every kind, a table too, takes its loss through the kernel's factors
        assert ct.loss_u.shape[0] == ct.loss_w.shape[1] == grid.cells
        dense = ct.kernel @ (f.values * grid.widths)
        lam = coag_loss_rate(f, ct)
        assert np.max(np.abs(lam - dense)) <= 1e-13 * np.max(np.abs(dense))


def assert_gain_places_each_pair(grid, ct):
    """The gain operator alone, read entry by entry: every pair (i, j), i <= j,
    has two entries, which carry its coefficient 0.5*k*(2 - delta_ij) as
    number onto cells (interior pairs) and place its mass x_i + x_j, the
    escape row counting as mass already."""
    x, n = grid.centers, grid.cells
    g = ct.gain.tocoo()
    assert np.all(g.data >= 0)
    i, j, t = g.col, ct.row_partner[g.row], ct.row_target[g.row]
    assert np.all(i <= j)
    cell = t < n
    number, mass, count = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n), int)
    np.add.at(number, (i[cell], j[cell]), g.data[cell])
    np.add.at(mass, (i[cell], j[cell]), x[t[cell]] * g.data[cell])
    np.add.at(mass, (i[~cell], j[~cell]), g.data[~cell])
    np.add.at(count, (i, j), 1)
    upper = np.triu(np.ones((n, n), bool))
    coeff = np.where(np.eye(n, dtype=bool), 0.5, 1.0) * ct.kernel
    s = x[:, None] + x[None, :]
    interior = upper & (s <= x[-1])
    assert np.all(count[upper] == 2) and np.all(count[~upper] == 0)
    assert np.allclose(number[interior], coeff[interior], rtol=1e-12, atol=0.0)
    placed = (s * coeff)[upper]
    assert np.all(np.abs(mass[upper] - placed) <= 1e-12 * placed)


class TestGainPlacement:
    def test_sum_kernel_on_power_of_two_edges(self, grid):
        # 2*x_j falls on a center here, so brackets meet their ties
        ct = build_coag_tables(CoagulationKernel("sum", k0=0.7, alpha=0.5), grid)
        assert_gain_places_each_pair(grid, ct)

    @settings(max_examples=20, deadline=None)
    @given(coag_cases())
    def test_every_kernel_kind(self, case):
        grid, k, _ = case
        assert_gain_places_each_pair(grid, build_coag_tables(k, grid))


# geometric grids on which some pairs straddle the last center and some lie
# beyond xmax; the first has its edges on powers of two, so sums meet centers
GAIN_GRIDS = [SizeGrid.geometric(2.0**-8, 2.0**6, 448), SizeGrid.geometric(1e-3, 50.0, 200),
              SizeGrid.geometric(0.01, 10.0, 17)]


def table_kernel(grid):
    tx = np.geomspace(grid.xmin * 2.0, grid.xmax / 2.0, 7)
    tk = np.random.default_rng(11).random((7, 7))
    return CoagulationKernel("table", k0=3.0, alpha=0.5, table_x=tx, table_k=tk + tk.T)


@pytest.fixture(params=[(g, kind) for g in GAIN_GRIDS for kind in ("sum", "table")],
                ids=lambda p: f"{p[0].cells}-{p[1]}")
def gain_case(request):
    grid, kind = request.param
    k = table_kernel(grid) if kind == "table" else CoagulationKernel("sum", k0=0.7, alpha=0.5)
    ct = build_coag_tables(k, grid)
    assert (~ct.interior & (ct.idx_lo >= 0)).any() and (ct.idx_lo < 0).any()
    return grid, ct


class TestGainCSR:
    """The gain is built as CSR directly, rows (j, t) with ascending columns i."""

    def test_product_matches_scipy_csc_bit_for_bit(self, gain_case):
        # a CSC product adds each row's terms in ascending column order, as
        # the CSR product of ascending columns does, so the two agree exactly
        grid, ct = gain_case
        assert ct.gain.format == "csr"
        g = ct.gain.tocoo()
        csc = sparse.csc_matrix((g.data, (g.row, g.col)), shape=g.shape)
        rng = np.random.default_rng(4)
        for a in (rng.random(grid.cells), rng.standard_normal(grid.cells),
                  rng.random(grid.cells) * np.exp(-grid.centers)):
            assert (ct.gain @ a).tobytes() == (csc @ a).tobytes()

    def test_rows_are_ascending_contiguous_columns(self, gain_case):
        _, ct = gain_case
        indptr, cols = ct.gain.indptr, ct.gain.indices
        step = np.diff(cols)
        within = np.ones(step.size, bool)
        within[indptr[1:-1][(indptr[1:-1] > 0) & (indptr[1:-1] < cols.size)] - 1] = False
        assert np.all(step[within] == 1)

    def test_each_pair_in_its_two_target_rows(self, gain_case):
        # pair (i, j) sits in rows (j, lo) and (j, lo + 1), with lo = n - 1
        # for a pair past the last center, whose upper row is the escape row n
        grid, ct = gain_case
        n = grid.cells
        g = ct.gain.tocoo()
        i, j, t = g.col, ct.row_partner[g.row], ct.row_target[g.row]
        order = np.lexsort((t, i, j))
        i, j, t = i[order].reshape(-1, 2), j[order].reshape(-1, 2), t[order].reshape(-1, 2)
        assert np.all(i[:, 0] == i[:, 1]) and np.all(j[:, 0] == j[:, 1])
        pair = j[:, 0] * (j[:, 0] + 1) // 2 + i[:, 0]   # partner by partner
        assert np.array_equal(np.sort(pair), np.arange(n * (n + 1) // 2))
        lo = np.where(ct.interior, ct.idx_lo, n - 1)[pair]
        assert np.array_equal(t[:, 0], lo) and np.array_equal(t[:, 1], lo + 1)
        assert np.all(t[~ct.interior[pair], 1] == n)


class TestShiftedOperator:
    def test_beta_zero_reduces_to_plain(self, grid, ct_const, box_field):
        a = apply_coag(box_field, ct_const)
        b = apply_coag_beta(box_field, ct_const, np.zeros(grid.cells))
        assert np.array_equal(a.values, b.values)

    def test_positive_on_ball(self, grid):
        k0, ball = 1.0, 1.0
        ks = make_kernels(k0=k0, coag_kind="sum", alpha=0.5)
        ct = build_coag_tables(ks.k, grid)
        shift = AbsorptionRate.for_ball(ks.k, ball)
        assert shift.beta == 4.0
        a1 = shift(grid.centers)
        rng = np.random.default_rng(12)
        w = WeightSpec(2.0, "shifted")
        for _ in range(5):
            f = DensityField(grid, rng.random(grid.cells) * np.exp(-grid.centers))
            norm = weighted_integral(f, w)
            f = DensityField(grid, f.values * (1.0 + ball) / norm)  # on the ball boundary
            out = apply_coag_beta(f, ct, a1)
            assert out.min_value() >= 0.0


def identity_rows(f, ct):
    return {r.name: r for r in coag_moment_identity(f, ct)}


class TestMomentIdentities:
    def test_rows_are_the_suite_rows(self, ct_const, box_field):
        rows = coag_moment_identity(box_field, ct_const)
        assert [r.name for r in rows] == ["moment-0", "moment-1", "moment-2"]
        assert [r.bound for r in rows] == [1e-11, 1e-11, 0.25 * (box_field.grid.ratio - 1.0)**2]
        assert all(r.suite == "coag-identities" and r.status == "pass" for r in rows)
        (off,) = coag_moment_identity(box_field, None)
        assert off.status == "n/a" and off.detail == "coagulation disabled"

    def test_mass_identity_trivial(self, ct_const, box_field):
        assert identity_rows(box_field, ct_const)["moment-1"].measured < 1e-12

    def test_number_identity_collapses(self, grid, ct_const, box_field):
        assert identity_rows(box_field, ct_const)["moment-0"].measured < 1e-12
        m0 = moment(box_field, 0.0)
        rate = moment(apply_coag(box_field, ct_const), 0.0)
        assert rate == pytest.approx(-0.5 * 2.0 * m0**2, rel=1e-12)

    def test_second_moment_algebraic_identity(self, grid, ct_const, box_field):
        m1 = moment(box_field, 1.0)
        # (x+y)^2 - x^2 - y^2 = 2xy collapses the exact double sum to k0*M1^2
        x = grid.centers
        double_sum = np.sum(_event_rates(box_field, ct_const) * 2.0 * np.outer(x, x).ravel())
        assert double_sum == pytest.approx(2.0 * m1**2, rel=1e-12)
        # the pair-splitting error only, within its grid bound
        row = identity_rows(box_field, ct_const)["moment-2"]
        assert 0.0 < row.measured <= row.bound == 0.25 * (grid.ratio - 1.0)**2

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["constant", "sum", "product"]), st.floats(0.05, 1.0),
           st.floats(-3.0, 0.0), st.floats(0.5, 3.0), st.integers(8, 160),
           st.integers(0, 2**32 - 1))
    def test_second_moment_error_within_the_grid_bound(self, kind, alpha, lo, hi, cells, seed):
        """On x <= x_(n-1)/2 every pair lands on the grid, where the split of a
        pair of size s errs by at most (rho - 1)^2 s^2 / 4 in the second moment."""
        grid = SizeGrid.geometric(10.0**lo, 10.0**hi, cells)
        ct = build_coag_tables(CoagulationKernel(kind, k0=1.0, alpha=alpha), grid)
        x = grid.centers
        values = np.random.default_rng(seed).random(cells) * (x <= 0.5 * x[-1])
        row = identity_rows(DensityField(grid, values), ct)["moment-2"]
        assert row.measured <= row.bound

    @pytest.mark.parametrize("cells", [32, 64])
    @pytest.mark.parametrize("name", ["constant-coag", "gfc-global-ii", "gfc-global-i"])
    def test_coarse_preset_grids_pass(self, name, cells):
        """The bound follows the grid: at 64 cells constant-coag measures
        4.9e-3, which the grid bound 8.5e-3 admits."""
        sc = load_scenario(name, {"grid": {"cells": cells}})
        grid = sc.grid()
        rows = coag_moment_identity(sc.initial_field(grid), build_coag_tables(sc.kernel_set().k, grid))
        assert all(r.status == "pass" for r in rows)
