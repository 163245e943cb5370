import numpy as np
import pytest

from conftest import make_kernels
from gfc.fragmentation import (apply_frag, build_daughter_matrix, daughter_gain,
                               frag_moment_identity, fragmentation_constants)
from gfc.grid import DensityField, SizeGrid, moment, project
from gfc.kernels import DaughterDistribution


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
