import dataclasses
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_kernels
from test_kernels import daughter_tables
from gfc.config import load_scenario
from gfc.coagulation import build_coag_tables
from gfc.evolution import SolverConfig, SplitStepper
from gfc.fragmentation import (apply_frag, build_daughter_matrix, daughter_gain,
                               frag_moment_identity, fragmentation_constants)
from gfc.grid import DensityField, SizeGrid, moment, project
from gfc.kernels import DaughterDistribution, KernelConfigError


@pytest.fixture(scope="module")
def octave():
    return SizeGrid.geometric(2.0**-10, 2.0**6, 512)


@pytest.fixture(scope="module")
def dm_binary(octave):
    return build_daughter_matrix(DaughterDistribution("uniform-binary"), octave)


class TestDaughterMatrix:
    def test_columns_conserve_mass_exactly(self, octave, dm_binary):
        colmass = octave.centers @ dm_binary.w
        assert np.max(np.abs(colmass - octave.centers) / octave.centers) < 1e-12

    def test_column_counts_approach_two(self, octave, dm_binary):
        n0 = dm_binary.column_moment(0.0)
        mid = octave.centers > 1.0
        assert np.max(np.abs(n0[mid] - 2.0)) < 0.02

    def test_power_law_second_moment_ratio(self, octave):
        dm = build_daughter_matrix(DaughterDistribution("power-law", nu=1.0), octave)
        ratio = dm.column_moment(2.0) / octave.centers**2
        mid = octave.centers > 1.0
        assert np.max(np.abs(ratio[mid] - 0.75)) < 0.0075

    def test_triangular_nonnegative(self, octave, dm_binary):
        assert np.all(dm_binary.w >= 0)
        n = octave.cells
        upper = dm_binary.w[np.tril_indices(n, k=-1)]  # rows > column: x_i > x_j
        assert np.all(upper == 0)

    def test_mass_below_xmin_lumped_into_smallest_cell(self, dm_binary, octave):
        # nearly all fragments of the smallest parent fall below xmin and are
        # lumped into the smallest cell, a vanishing share for parents well
        # inside the grid
        x = octave.centers
        share = x[0] * dm_binary.w[0] / x
        assert share[0] > 0.9
        assert np.all(share[x > 1.0] < 1e-5)
        assert np.all(np.diff(share) <= 1e-12)   # monotone decay with parent size

    def test_parents_whose_daughters_all_fall_below_xmin(self):
        """phi lives on [0, 0.02], so a parent below 0.05 has every daughter
        below xmin = 1e-3: its column is the row-0 lump alone, positive, and
        still carries the parent's mass."""
        grid = SizeGrid.geometric(1e-3, 50.0, 128)
        b = DaughterDistribution("table", table_u=[0.0, 0.02, 1.0], table_phi=[1.0, 0.0, 0.0])
        w, x = build_daughter_matrix(b, grid).w, grid.centers
        below = np.flatnonzero(0.02 * x <= grid.xmin)
        assert below.size == 46 and np.array_equal(below, np.arange(46))
        assert np.all(w[1:, below] == 0.0) and np.all(w[0, below] > 0.0)
        np.testing.assert_allclose(x @ w, x, rtol=1e-14, atol=0.0)

    def test_gain_positivity(self, octave, dm_binary):
        rng = np.random.default_rng(3)
        amounts = rng.random(octave.cells)
        assert np.all(daughter_gain(dm_binary, amounts) >= 0)


class TestApplyFrag:
    def test_zero_rate_gives_zero(self, octave, dm_binary):
        ks = make_kernels(a0=0.0)
        f = project(lambda x: np.exp(-x), octave)
        assert np.all(apply_frag(f, ks, dm_binary).values == 0.0)

    def test_mass_neutral_for_random_fields(self, octave, dm_binary):
        ks = make_kernels(a0=1.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = DensityField(octave, rng.random(octave.cells) * np.exp(-octave.centers))
            ff = apply_frag(f, ks, dm_binary)
            scale = moment(DensityField(octave, np.abs(ff.values)), 1.0)
            assert abs(moment(ff, 1.0)) <= 1e-12 * scale

    def test_aizenman_bak_pointwise(self, octave, dm_binary):
        # f = 1 on (0, 1]: (Ff)(x) = -x + 2(1 - x) on (0, 1)
        ks = make_kernels(a0=1.0)
        f = DensityField(octave, np.where(octave.centers < 1.0, 1.0, 0.0))
        ff = apply_frag(f, ks, dm_binary)
        i = np.argmin(np.abs(octave.centers - 0.5))
        assert ff.values[i] == pytest.approx(0.5, abs=0.02)

    def test_consistency_under_refinement(self):
        # Aizenman-Bak gain on exp(-x): F f = -x e^(-x) + 2 e^(-x) analytic
        ks = make_kernels(a0=1.0)
        errs = []
        for cells in (128, 256):
            grid = SizeGrid.geometric(2.0**-10, 2.0**5, cells)
            dm = build_daughter_matrix(ks.b, grid)
            f = project(lambda x: np.exp(-x), grid)
            ff = apply_frag(f, ks, dm)
            exact = -grid.centers * np.exp(-grid.centers) + 2.0 * np.exp(-grid.centers)
            errs.append(np.sum(np.abs(ff.values - exact) * grid.widths))
        assert errs[0] / errs[1] > 1.8


def identity_rows(f, ks, dm):
    return {r.name: r for r in frag_moment_identity(f, ks, dm)}


class TestMomentIdentity:
    def test_rows_are_the_suite_rows(self, octave, dm_binary):
        f = project(lambda x: np.exp(-x), octave)
        rows = frag_moment_identity(f, make_kernels(a0=1.0), dm_binary)
        assert [r.name for r in rows] == ["mass-neutral", "moment-0", "moment-1",
                                          "moment-2", "sink-estimate-2"]
        assert all(r.suite == "frag-identities" and r.status == "pass" for r in rows)
        (off,) = frag_moment_identity(f, make_kernels(), None)
        assert off.status == "n/a" and off.detail == "fragmentation disabled"

    def test_first_moment_identity_trivial(self, octave, dm_binary):
        # both sides vanish: F conserves mass, and every column's daughters
        # carry exactly the parent's mass
        ks = make_kernels(a0=1.0)
        f = project(lambda x: np.exp(-x), octave)
        assert moment(apply_frag(f, ks, dm_binary), 1.0) == pytest.approx(0.0, abs=1e-14)
        deficit = octave.centers - dm_binary.column_moment(1.0)
        sink = np.sum(deficit * ks.a(octave.centers) * f.values * octave.widths)
        assert sink == pytest.approx(0.0, abs=1e-14)
        rows = identity_rows(f, ks, dm_binary)
        assert rows["mass-neutral"].measured < 1e-12 and rows["moment-1"].status == "pass"

    def test_zeroth_moment_oracle(self, octave, dm_binary):
        # f = 1 on (0, 1]: production rate = int_0^1 (n0 - 1) a = int_0^1 x dx = 1/2
        ks = make_kernels(a0=1.0)
        f = DensityField(octave, np.where(octave.centers < 1.0, 1.0, 0.0))
        assert moment(apply_frag(f, ks, dm_binary), 0.0) == pytest.approx(0.5, rel=0.01)
        assert identity_rows(f, ks, dm_binary)["moment-0"].measured < 1e-12

    def test_second_moment_negative_with_estimate(self, octave, dm_binary):
        ks = make_kernels(a0=1.0)
        f = project(lambda x: np.exp(-x), octave)
        rows = identity_rows(f, ks, dm_binary)
        assert rows["moment-2"].measured < 1e-12
        # the estimate row measures the second-moment rate itself
        est = rows["sink-estimate-2"]
        assert est.measured < 0
        assert est.measured == pytest.approx(moment(apply_frag(f, ks, dm_binary), 2.0), rel=1e-12)
        assert est.status == "pass" and est.tol == 1e-12 * abs(est.bound)

    def test_surrogate_constants_aizenman_bak(self):
        # N_i(x)/x^i = (i-1)/(i+1) for binary breakup; a0 = 1, sup a on [0,1] = 1
        ks = make_kernels(a0=1.0)
        dp, d, nu = fragmentation_constants(ks, 2.0)
        assert dp == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert d == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert nu == pytest.approx(1.0 / 3.0, rel=1e-6)


def dense_oracle(b, grid):
    """The daughter matrix built densely, as for a table daughter: per-cell
    differences of partial_number, the fragment mass below xmin lumped into
    cell 0, each column renormalized to carry its parent's mass.  Also
    returns the renormalized larger term of each difference: a difference
    of nearly equal powers (a fine cell, or nu near -1) is only good to an
    ulp or so of that term, which bounds the oracle's own rounding."""
    x = grid.centers
    upper = b.partial_number(x[None, :], grid.edges[1:, None])
    w = np.diff(b.partial_number(x[None, :], grid.edges[:, None]), axis=0)
    w[0] += b.partial_mass(x, grid.xmin) / x[0]
    renorm = x / (x @ w)
    return w * renorm, upper * renorm


def exact_gain(nu, grid, amounts):
    """The same construction in 40-digit arithmetic: the gain density and the
    column moments n_0, n_1, n_2, each rounded once to float."""
    with mpmath.workdps(40):
        n, p = grid.cells, mpmath.mpf(nu) + 1
        x = [mpmath.mpf(v) for v in grid.centers.tolist()]
        e = [mpmath.mpf(v) for v in grid.edges.tolist()]
        w = [[mpmath.mpf(0)] * n for _ in range(n)]
        for j in range(n):
            for i in range(j + 1):
                w[i][j] = (p + 1) / p * ((min(e[i + 1], x[j]) / x[j]) ** p - (e[i] / x[j]) ** p)
            w[0][j] += x[j] * (e[0] / x[j]) ** (p + 1) / x[0]
            renorm = x[j] / mpmath.fsum(x[i] * w[i][j] for i in range(j + 1))
            for i in range(j + 1):
                w[i][j] *= renorm
        a = [mpmath.mpf(v) for v in amounts.tolist()]
        gain = [float(mpmath.fsum(w[i][j] * a[j] for j in range(n)) / mpmath.mpf(grid.widths[i]))
                for i in range(n)]
        moments = [[float(mpmath.fsum(x[i] ** m * w[i][j] for i in range(n))) for j in range(n)]
                   for m in (0, 1, 2)]
    return np.array(gain), np.array(moments)


def grids(max_cells=1024):
    return st.builds(lambda lo, hi, cells: SizeGrid.geometric(10.0**lo, 10.0**hi, cells),
                     st.floats(-4.0, -1.0), st.floats(0.5, 3.0), st.integers(2, max_cells))


def random_grid(data, max_cells=1024):
    return data.draw(grids(max_cells))


def seeded_amounts(seed, grid, rows=()):
    rng = np.random.default_rng(seed)
    return rng.random((*rows, grid.cells)) * np.exp(-grid.centers / grid.centers[-1] * 8.0)


def random_amounts(data, grid, rows=()):
    return seeded_amounts(data.draw(st.integers(0, 2**32 - 1)), grid, rows)


class TestFactoredGain:
    """The power-law daughter matrix is stored and applied factored; these
    pin it against a dense build and an extended-precision oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.5, 10.0), st.data())
    def test_matches_the_dense_build(self, nu, data):
        grid = random_grid(data)
        b = DaughterDistribution("power-law", nu=nu)
        dm = build_daughter_matrix(b, grid)
        w, upper = dense_oracle(b, grid)
        amounts = random_amounts(data, grid)
        ref = (w @ amounts) / grid.widths
        oracle_rounding = 2 * np.finfo(float).eps * (upper @ amounts) / grid.widths
        assert np.all(np.abs(daughter_gain(dm, amounts) - ref) <= 1e-13 * ref + oracle_rounding)
        for m in (0.0, 1.0, 1.5, 2.0):
            ref = np.power(grid.centers, m) @ w
            np.testing.assert_allclose(dm.column_moment(m), ref, rtol=1e-13, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.floats(-0.9999, -0.9), st.floats(-0.9, 10.0)), st.data())
    def test_no_worse_than_the_dense_build_against_exact_arithmetic(self, nu, data):
        # near nu = -1 both forms take differences of nearly equal powers;
        # the factored one takes them through expm1/log1p
        grid = random_grid(data, max_cells=24)
        b = DaughterDistribution("power-law", nu=nu)
        dm = build_daughter_matrix(b, grid)
        amounts = random_amounts(data, grid)
        gain, moments = exact_gain(nu, grid, amounts)
        factored = np.max(np.abs(daughter_gain(dm, amounts) - gain) / gain)
        dense = np.max(np.abs((dense_oracle(b, grid)[0] @ amounts) / grid.widths - gain) / gain)
        assert factored <= max(dense, 1e-14)
        for m, exact in zip((0.0, 1.0, 2.0), moments):
            np.testing.assert_allclose(dm.column_moment(m), exact, rtol=1e-14, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-0.99, 10.0), st.data())
    def test_nonnegative_and_mass_closing(self, nu, data):
        grid = random_grid(data)
        dm = build_daughter_matrix(DaughterDistribution("power-law", nu=nu), grid)
        amounts = random_amounts(data, grid)
        gain = daughter_gain(dm, amounts)
        assert np.all(gain >= 0)
        mass = np.sum(grid.centers * amounts)
        assert abs(np.sum(grid.centers * gain * grid.widths) - mass) <= 1e-14 * mass

    def test_refuses_a_grid_beyond_the_float_range_of_its_factors(self):
        with pytest.raises(KernelConfigError, match="float range"):
            build_daughter_matrix(DaughterDistribution("power-law", nu=10.0),
                                  SizeGrid.geometric(1e-60, 1e3, 16))
        grid = SizeGrid.geometric(1e-40, 1e3, 16)
        dm = build_daughter_matrix(DaughterDistribution("power-law", nu=10.0), grid)
        assert all(np.all(np.isfinite(f)) for f in dm.factors)
        np.testing.assert_allclose(dm.column_moment(1.0), grid.centers, rtol=1e-14)

    @pytest.mark.parametrize("cells, rows", [(2, 1), (2, 31), (3, 5), (128, 1), (512, 31),
                                             (1024, 31)])
    def test_stacked_rows_bit_identical_to_single_calls(self, cells, rows):
        grid = SizeGrid.geometric(1e-3, 50.0, cells)
        dm = build_daughter_matrix(DaughterDistribution("power-law", nu=0.5), grid)
        stack = np.random.default_rng(cells + rows).random((rows, cells))
        out = daughter_gain(dm, stack)
        assert out.shape == stack.shape
        for row, got in zip(stack, out):
            assert np.array_equal(got, daughter_gain(dm, row))

    def test_build_and_step_allocate_no_dense_matrix(self):
        # the dense matrix would take n^2 doubles; neither the build nor a
        # production split step (gfc-global-ii at 1,024 cells) may make it
        sc = load_scenario("gfc-global-ii", {"grid": {"cells": 1024}})
        grid, ks, cfg = sc.grid(), sc.kernel_set(), sc.solver_config()
        ct, f = build_coag_tables(ks.k, grid), sc.initial_field(grid)
        SplitStepper(ks, grid, cfg, ct=ct).step(f, cfg.dt)   # warm-up
        tracemalloc.start()
        try:
            dm = build_daughter_matrix(ks.b, grid)
            SplitStepper(ks, grid, cfg, dm=dm, ct=ct).step(f, cfg.dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.cells**2 * 8
        assert dm.dense is None


def unfolded_sink(stepper, g, dt, keep_shift):
    """The linear sink step by step: decay, the absorbed amount, its
    fragmentation share a/c through the daughter matrix and, with
    keep_shift, the rest returned in place."""
    c, a = stepper.c, stepper.a
    decay = np.exp(-c * dt)
    absorbed = g * (1.0 - decay)
    with np.errstate(divide="ignore", invalid="ignore"):
        to_frag = absorbed * np.where(c > 0, a / c, 0.0)   # the share a/c first
    out = decay * g
    if keep_shift:
        out = out + (absorbed - to_frag)
    if stepper.has_frag:
        out = out + daughter_gain(stepper.dm, to_frag * stepper.grid.widths)
    return out


class TestFoldedSink:
    """The split and Duhamel linear sink, folded per (dt, keep_shift) into one
    daughter matrix, against the step-by-step formula."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.0, 0.3, 2.0]), st.sampled_from([0.0, 0.4]),
           st.one_of(st.floats(-0.5, 4.0), daughter_tables()), st.booleans(),
           st.sampled_from([(), (3,)]), st.booleans(), grids(max_cells=96),
           st.floats(0.0, 2.0), st.floats(-4.0, 0.0), st.integers(0, 2**32 - 1))
    # a cell where a = c (no shift, gamma0 = 2) absorbs everything into fragments
    @example(2.0, 0.0, DaughterDistribution("table", table_u=[0.0, 0.5, 1.0],
                                            table_phi=[1.0, 0.0, 0.0]),
             True, (), False, SizeGrid.geometric(0.1, 10.0, 21), 2.0, 0.0, 1)
    def test_matches_the_unfolded_sink(self, a0, beta, daughter, keep_shift, rows, signed,
                                       grid, gamma0, log_dt, seed):
        ks = make_kernels(a0=a0, gamma0=gamma0, beta=beta)
        if isinstance(daughter, float):
            daughter = DaughterDistribution("power-law", nu=daughter)
        ks = dataclasses.replace(ks, b=daughter)
        stepper = SplitStepper(ks, grid, SolverConfig(m=2.0))
        dt = 10.0**log_dt
        g = seeded_amounts(seed, grid, rows)
        if signed:
            g = g - 0.5 * g.max(axis=-1, keepdims=True)
        out = stepper._linear_sink(g, dt, keep_shift)
        assert out.shape == g.shape
        scale = unfolded_sink(stepper, np.abs(g), dt, keep_shift)
        assert np.all(np.abs(out - unfolded_sink(stepper, g, dt, keep_shift)) <= 1e-13 * scale)
        if not signed:
            assert np.all(out >= 0.0)
        if keep_shift:
            xw = grid.centers * grid.widths
            gross = np.sum(xw * np.abs(g), axis=-1)
            assert np.all(np.abs(np.sum(xw * out, axis=-1) - np.sum(xw * g, axis=-1))
                          <= 1e-14 * gross)
