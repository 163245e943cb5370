import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import gfc.evolution
import gfc.kernels
import gfc.transport
from conftest import make_kernels, quad_per_interval, recorded_intervals
from gfc.config import load_scenario
from gfc.evolution import duhamel_solve, solve
from gfc.grid import DensityField, SizeGrid, WeightSpec, project, weighted_integral
from gfc.kernels import FragmentationRate, GrowthRate, validate_kernel_set
from gfc.presets import get_preset
from gfc.transport import (Q_STEPS_PER_DECADE, Antiderivatives, ParameterDomainError, SpectralParams,
                           laplace_consistency, r_inverse_clipped, resolvent_integral_bounds,
                           resolvent_apply, resolvent_norm, resolvent_residual,
                           transport_apply, transport_norms, v_lambda_diagnostics)


def flow(r: GrowthRate, t: float, x0):
    """X(t; x0) = R^-1(R(x0) + t), the map the transport plan takes its feet from."""
    ks = dataclasses.replace(make_kernels(), r=r)
    antid = Antiderivatives(ks)
    return r_inverse_clipped(antid, antid.R(x0) + t)


class TestFlowMap:
    def test_constant_rate(self):
        assert flow(GrowthRate("constant", r0=1.0), 0.5, 2.0) == pytest.approx(2.5)

    def test_linear_rate(self):
        assert flow(GrowthRate("linear", r1=1.0), math.log(2.0), 1.0) == pytest.approx(2.0)

    def test_affine_rate(self):
        r = GrowthRate("affine", r0=1.0, r1=1.0)
        assert flow(r, math.log(2.0), 1.0) == pytest.approx(3.0)

    def test_affine_rate_matches_ode_oracle(self):
        from scipy.integrate import solve_ivp
        r = GrowthRate("affine", r0=1.0, r1=1.0)
        sol = solve_ivp(lambda t, y: r(y), (0.0, math.log(2.0)), [1.0],
                        rtol=1e-12, atol=1e-14)
        assert sol.y[0, -1] == pytest.approx(3.0, rel=1e-9)
        assert flow(r, math.log(2.0), 1.0) == pytest.approx(sol.y[0, -1], rel=1e-9)
        # and backwards, onto the starting size
        assert flow(r, -math.log(2.0), sol.y[0, -1]) == pytest.approx(1.0, rel=1e-9)

    def test_backward_exit_is_distinguished_zero(self):
        assert flow(GrowthRate("constant", r0=1.0), -2.0, 1.0) == 0.0

    def test_strictly_increasing_in_start(self):
        r = GrowthRate("affine", r0=0.3, r1=0.7)
        x0 = np.linspace(0.1, 5.0, 40)
        out = flow(r, 0.8, x0)
        assert np.all(np.diff(out) > 0)

    def test_table_growth_uses_antiderivative_inverse(self):
        from scipy.integrate import solve_ivp
        xs = np.geomspace(1e-4, 1e3, 200)
        rt = GrowthRate("table", table_x=xs, table_r=1.0 + 0.0 * xs)
        assert flow(rt, 0.5, 2.0) == pytest.approx(2.5, rel=1e-14)
        # a nonconstant table against the ODE dx/dt = r(x), to what solve_ivp meets
        rt = GrowthRate("table", table_x=xs, table_r=0.2 + 0.5 * np.sqrt(xs))
        sol = solve_ivp(lambda t, y: rt(y), (0.0, 0.7), [2.0], rtol=1e-12, atol=1e-14)
        assert flow(rt, 0.7, 2.0) == pytest.approx(sol.y[0, -1], rel=1e-10)

    def test_feet_leaving_through_the_origin_raise_no_overflow(self):
        """R^-1 is not evaluated past the origin: for r = 1 + 1000x, R(0+) + 1
        overflows exp, and the foot's value is discarded anyway."""
        ks = make_kernels(a0=0.5, growth="affine", r0=1.0, r1=1000.0, beta=0.0)
        f = project(lambda x: np.exp(-x), SizeGrid.geometric(1e-3, 50.0, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = transport_apply(f, 1e-3, ks, 2.0, Antiderivatives(ks), include_absorption=False)
        assert np.all(np.isfinite(out.values)) and out.values[0] == 0.0


class TestTransport:
    def test_time_zero_identity(self, unit_growth_kernels, small_grid):
        f = project(lambda x: np.exp(-x), small_grid)
        out = transport_apply(f, 0.0, unit_growth_kernels, 1.0,
                              Antiderivatives(unit_growth_kernels))
        assert np.array_equal(out.values, f.values)

    def test_pure_translation(self, unit_growth_kernels):
        grid = SizeGrid.geometric(2.0**-6, 2.0**5, 352)  # 32 per octave
        f = DensityField(grid, np.where((grid.centers > 1) & (grid.centers < 2), 1.0, 0.0))
        out = transport_apply(f, 0.5, unit_growth_kernels, 1.0,
                              Antiderivatives(unit_growth_kernels))
        c = grid.centers
        body = (c > 1.55) & (c < 1.95)
        assert np.all(np.abs(out.values[body] - 1.0) < 1e-9)
        assert np.all(out.values[c < 1.45] < 1e-9)

    def test_constant_absorption_scales_translation(self):
        # a(x) = 0.7 (power law with zero exponent): factor exp(-0.7 t)
        ks = make_kernels(a0=0.7, gamma0=0.0, x0=0.5)
        grid = SizeGrid.geometric(2.0**-6, 2.0**5, 352)
        f = DensityField(grid, np.where((grid.centers > 1) & (grid.centers < 2), 1.0, 0.0))
        out = transport_apply(f, 0.5, ks, 1.0, Antiderivatives(ks))
        body = (grid.centers > 1.55) & (grid.centers < 1.95)
        assert out.values[body].max() == pytest.approx(math.exp(-0.35), rel=1e-6)

    def test_semigroup_property(self):
        ks = make_kernels(a0=0.5, growth="affine", r0=0.2, r1=0.3)
        grid = SizeGrid.geometric(1e-2, 30.0, 256)
        f = project(lambda x: x * np.exp(-x), grid)
        antid = Antiderivatives(ks)
        ab = transport_apply(transport_apply(f, 0.3, ks, 2.0, antid), 0.5, ks, 2.0, antid)
        once = transport_apply(f, 0.8, ks, 2.0, antid)
        w = WeightSpec(2.0, "shifted")
        gap = weighted_integral(DensityField(grid, np.abs(ab.values - once.values)), w)
        assert gap / weighted_integral(once, w) < 2e-4

    def test_positivity_preserved(self):
        ks = make_kernels(a0=1.0, growth="linear", r0=0.0, r1=1.0)
        grid = SizeGrid.geometric(1e-3, 50.0, 256)
        f, antid = project(lambda x: np.exp(-x), grid), Antiderivatives(ks)
        for t in (0.1, 0.7, 1.5):
            assert transport_apply(f, t, ks, 2.0, antid).min_value() >= 0.0

    @pytest.mark.parametrize("growth,r0,r1", [("constant", 1.0, 0.0),
                                              ("linear", 0.0, 1.0),
                                              ("affine", 1.0, 1.0)])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_quasi_contractive_bound(self, growth, r0, r1, m):
        ks = make_kernels(a0=1.0, growth=growth, r0=r0, r1=r1)
        omega = 2.0 * m * ks.r.rtilde
        grid = SizeGrid.geometric(1e-3, 80.0, 256)
        f = project(lambda x: np.exp(-x), grid)
        w = WeightSpec(m, "shifted")
        base, antid = weighted_integral(f, w), Antiderivatives(ks)
        for t in np.linspace(0.25, 2.0, 5):
            val = weighted_integral(transport_apply(f, float(t), ks, m, antid), w)
            assert val <= math.exp(omega * t) * base * (1 + 1e-6)

    def test_escaped_mass_accounting(self, unit_growth_kernels):
        grid = SizeGrid.geometric(0.1, 4.0, 64)
        f = project(lambda x: np.exp(-x), grid)
        m1_0 = weighted_integral(f, WeightSpec(1.0, "pure"))
        out = transport_apply(f, 2.0, unit_growth_kernels, 1.0,
                              Antiderivatives(unit_growth_kernels))
        assert out.escaped_mass > 0.1 * m1_0  # a solid chunk crossed xmax = 4
        m1_t = weighted_integral(out, WeightSpec(1.0, "pure"))
        growth_realized = m1_t + out.escaped_mass - m1_0
        # pure advection at unit speed adds mass at rate M0 of the surviving part
        assert growth_realized > 0


def scipy_pchip_slopes(x, y):
    """The slopes `PchipInterpolator(x, y)` hands to CubicHermiteSpline."""
    return PchipInterpolator._find_derivatives(x, y, xp=np)


def reference_transport(f0, t, ks, antid, include_absorption):
    """transport_apply as it was before the plan: one SciPy PCHIP built per call,
    and the flux cap on converging feet.  Returns the values and the escaped
    mass, each with a bound on how far the plan's four-term Hermite sum may
    round away from them.

    Both read the same cubic through the same floats: y[k], y[k+1], the
    slopes d[k], d[k+1] (SciPy's, bit for bit), the offset s = p - x_k and
    h = x_{k+1} - x_k.  Let A = |y[k]| + |y[k+1]| + h(|d[k]| + |d[k+1]|),
    u = 2^-53 and gamma_n = n u/(1 - n u).  Rounding n times along every
    path of an expression moves it by at most gamma_n times the same
    expression in absolute values.

    * PPoly sums y[k] + d[k] s + c1 s^2 + c0 s^3, in that order, with
      m = (y[k+1] - y[k])/h, T = (d[k] + d[k+1] - 2m)/h, c1 = (m - d[k])/h - T
      and c0 = T/h.  With s <= h the absolute-valued terms are at most A
      (the first two), 3A and 2A, and no path rounds more than 10 times
      (2 for m, 3 more for T, 1 for c1, 1 for its product with s^2, and at
      most 3 in the running sum); the scaling by r(x0), 1/r(x) and exp(-dQ)
      adds 3: at most gamma_13 * 6A * scale.
    * The plan sums W0 y[k] + W1 y[k+1] + W2 d[k] + W3 d[k+1], each weight a
      Hermite basis function of tau = s/h (at most 5 roundings) times its
      scale (2 roundings to form, 1 to apply), then 4 products and 3 sums:
      12 roundings.  H00 + H01 = 1 and |H10|, |H11| <= 4/27 on [0, 1], so
      the absolute-valued sum is at most A * scale: gamma_12 * A * scale.

    Per value, then, |plan - reference| <= (6 gamma_13 + gamma_12) A scale,
    and the flux cap, a minimum, does not widen it.  That holds barring
    underflow; each of those 25 roundings may also underflow, by less than
    the smallest subnormal 2^-1074 times the factors that multiply it
    afterwards: a power of s or h (at most max(1, h)^3), the scale (at most
    max(1, scale)) and a field value or slope (at most 1 + B,
    B = |y[k]| + |y[k+1]| + |d[k]| + |d[k+1]|), so
    25 (1 + B) max(1, h)^3 max(1, scale) 2^-1074 is added.  The escape
    terms obey the same bound with scale = attenuation * width (a node past
    the last center reads y[n-1], whose A is at most the last interval's); their
    correctly rounded sums then differ by at most the sum of the term
    bounds plus one rounding each, and the product with xmax and the
    addition of the escaped mass already held round twice more.
    """
    grid = f0.grid
    x, y = grid.centers, f0.values
    pchip = PchipInterpolator(x, y, extrapolate=False)
    d = scipy_pchip_slopes(x, y)
    eps = np.finfo(float).eps / 2

    def gamma(n):
        return n * eps / (1 - n * eps)

    def ev(p):
        out = pchip(np.asarray(p, dtype=float))
        return np.where(np.isnan(out), 0.0, out)

    def bound(p, scale):
        k = np.clip(np.searchsorted(x, p, side="right") - 1, 0, x.size - 2)
        h = x[k + 1] - x[k]
        b = np.abs(y[k]) + np.abs(y[k + 1]) + np.abs(d[k]) + np.abs(d[k + 1])
        a = np.abs(y[k]) + np.abs(y[k + 1]) + h * (np.abs(d[k]) + np.abs(d[k + 1]))
        magnified = 25 * (1 + b) * np.maximum(1, h)**3 * np.maximum(1, np.abs(scale))
        underflow = magnified * np.finfo(float).smallest_subnormal
        return (6 * gamma(13) + gamma(12)) * a * np.abs(scale) + underflow

    x0 = r_inverse_clipped(antid, antid.R(x) - t)
    inside = x0 >= grid.centers[0]
    x0_safe = np.where(inside, x0, 1.0)
    dQ = antid.Q(x) - antid.Q(x0_safe) if include_absorption else np.zeros_like(x)
    scale = np.where(inside, ks.r(x0_safe) / ks.r(x) * np.exp(-dQ), 0.0)
    vals = np.where(inside, ev(x0_safe) * ks.r(x0_safe) / ks.r(x) * np.exp(-dQ), 0.0)
    j = np.clip(np.searchsorted(x, x0_safe, side="right") - 1, 0, x.size - 2)
    flux = y * ks.r(x)
    cap = np.maximum(flux[j], flux[j + 1]) * (np.exp(-dQ) / ks.r(x))
    vals = np.where(inside & (ks.r(x0_safe) > ks.r(x)), np.minimum(vals, cap), vals)
    esc, esc_bound = 0.0, 0.0
    yc = r_inverse_clipped(antid, antid.R(grid.xmax) - t)
    if yc < grid.xmax:
        lo = max(float(yc), grid.centers[0])
        edges = grid.edges[(grid.edges > lo) & (grid.edges < grid.xmax)]
        nodes = np.unique(np.concatenate([[lo], edges, [grid.xmax]]))
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        if include_absorption:
            att = np.exp(-(float(antid.Q(grid.xmax)) - antid.Q(mids)))
        else:
            att = np.ones_like(mids)
        density = np.where(mids <= grid.centers[-1], ev(mids), y[-1])
        terms = density * att * np.diff(nodes)
        esc = grid.xmax * math.fsum(terms.tolist())
        term_bound = float(np.sum(bound(mids, att * np.diff(nodes))))
        esc_bound = (grid.xmax * term_bound
                     + gamma(3) * (grid.xmax * (float(np.sum(np.abs(terms))) + term_bound)
                                   + abs(f0.escaped_mass)))
    return vals, f0.escaped_mass + esc, bound(x0_safe, scale), esc_bound


def assert_bit_identical(out, ref_vals, ref_esc):
    assert out.values.tobytes() == ref_vals.tobytes()
    assert np.float64(out.escaped_mass).tobytes() == np.float64(ref_esc).tobytes()


def assert_matches_pchip(f0, t, ks, absorb):
    """The plan against a PCHIP built per call: its slopes bit for bit, zero
    where a foot is out of range or outside, and values and escaped mass
    within the rounding bound of `reference_transport`."""
    antid = Antiderivatives(ks)
    out = transport_apply(f0, t, ks, 2.0, antid=antid, include_absorption=absorb)
    slopes = antid._transport_plan.slopes(f0.values)
    assert slopes.tobytes() == scipy_pchip_slopes(f0.grid.centers, f0.values).tobytes()
    ref_vals, ref_esc, val_bound, esc_bound = reference_transport(f0, t, ks, antid, absorb)
    x = f0.grid.centers
    assert np.all(out.values[r_inverse_clipped(antid, antid.R(x) - t) < x[0]] == 0.0)
    assert np.all(np.abs(out.values - ref_vals) <= val_bound)
    assert abs(out.escaped_mass - ref_esc) <= esc_bound


def _left_end_slope(grid, y):
    """The end secant m0, its neighbour m1 and Moler's three-point slope e at
    the first center, as SciPy's `_edge_case` computes them."""
    h0, h1 = np.diff(grid.centers)[:2]
    m0, m1 = (y[1] - y[0]) / h0, (y[2] - y[1]) / h1
    return m0, m1, ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)


# zeros, plateaus and sign changes run every PCHIP slope branch: the
# flat/sign-change mask, the end slope set to 0 and the end slope clamped to 3*m0
FIELD_ATOMS = [0.0, 0.0, 1.0, 1.0, 2.5, -0.5, 1e-3, 0.1, -5.0]


@st.composite
def transport_case(draw, nonnegative=False):
    cells = draw(st.integers(8, 96))
    xmin = 10.0 ** draw(st.floats(-3.0, 0.0))
    grid = SizeGrid.geometric(xmin, xmin * 10.0 ** draw(st.floats(1.0, 4.0)), cells)
    growth = draw(st.sampled_from(["constant", "linear", "affine", "table"]))
    ks = make_kernels(a0=draw(st.sampled_from([0.0, 0.3, 1.5])),
                      gamma0=draw(st.floats(0.0, 2.0)),
                      beta=draw(st.sampled_from([0.0, 0.2])),
                      growth="constant" if growth == "table" else growth,
                      r0=draw(st.floats(0.05, 2.0)), r1=draw(st.floats(0.05, 2.0)))
    if growth == "table":
        xs = np.geomspace(grid.xmin, grid.xmax, 12)
        rs = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=12, max_size=12)))
        ks = dataclasses.replace(ks, r=GrowthRate("table", table_x=xs, table_r=rs))
    smooth = draw(st.booleans())
    if smooth:
        vals = np.exp(-grid.centers / grid.centers[cells // 2]) * draw(st.floats(0.1, 3.0))
    else:
        atoms = [v for v in FIELD_ATOMS if v >= 0 or not nonnegative]
        vals = np.array(draw(st.lists(st.sampled_from(atoms), min_size=cells, max_size=cells)))
    f0 = DensityField(grid, vals, draw(st.sampled_from([0.0, 0.25])))
    # from a fraction of one cell to several crossings
    # of the whole grid (feet exit through the origin, escape is active)
    t = 10.0 ** draw(st.floats(-5.0, 1.0))
    return f0, t, ks, draw(st.booleans())


def test_flux_does_not_grow_where_the_flow_stalls():
    """A growth table falling from 0.5 to 0.011 within a few cells stalls the
    flow on the cell at its minimum, and the foot of that center stays beside
    it.  The exact flux r*f is carried along characteristics, so its largest
    value on the grid must not grow step after step; reading f at the foot
    and scaling by r(x0)/r(x) multiplied the stalled cell by 2.4 per step."""
    xs = np.array([1e-4, 4.47e-3, 0.2, 8.94, 400.0])
    rs = np.array([0.499, 0.0109, 0.0988, 0.274, 0.304])
    ks = dataclasses.replace(make_kernels(beta=0.0), r=GrowthRate("table", table_x=xs, table_r=rs))
    grid = SizeGrid.geometric(1e-3, 50.0, 26)
    f = project(lambda x: 0.1 * np.exp(-x) / x, grid)
    antid = Antiderivatives(ks)
    r = ks.r(grid.centers)
    top, m0 = float(np.max(f.values * r)), weighted_integral(f, WeightSpec(0.0, "pure"))
    for _ in range(24):
        f = transport_apply(f, 7.8e-3, ks, 2.0, antid=antid, include_absorption=False)
        assert float(np.max(f.values * r)) <= top
    assert weighted_integral(f, WeightSpec(0.0, "pure")) <= 1.5 * m0


class TestTransportPlan:
    """The plan-based transport_apply against a PCHIP built per call."""

    @settings(max_examples=150, deadline=None)
    @given(transport_case())
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 8),
                           [0.0, 0.1, -5.0, 1.0, 1.0, 2.5, 0.1, 0.0]),
              0.3, make_kernels(a0=0.3, growth="affine", r0=0.5, r1=0.5), True))
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 8),
                           [1.0, 2.5, 2.5, 0.0, -0.5, 1e-3, -5.0, 0.1]),
              4.0, make_kernels(growth="constant", r0=1.0), False))
    # the end slopes: a signed-zero secant at both ends (m0 = -0.0, m1 != 0)
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 8),
                           [0.0, -0.0, 1.0, 2.5, 1.0, 0.1, 0.0, -0.0]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    # e cancelling to +0 with m0 of either sign: set to 0 as flipped
    @example((DensityField(SizeGrid.geometric(1.0, 100.0, 8),
                           [0.0, 4.36321740210036e-307, 3.367896165457741e-306,
                            1.0, 0.5, 0.1, 0.2, 0.3]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    @example((DensityField(SizeGrid.geometric(1.0, 100.0, 8),
                           [0.0, -8.03261720554333e-307, -6.200245871800133e-306,
                            1.0, 0.5, 0.1, 0.2, 0.3]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    # |e| exactly 3|m0| with m1 of the other sign: kept, not clamped
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 8),
                           [0.0, 3.0, -21.308504191127057, 1.0, 0.5, 0.1, 0.2, 0.3]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    # 3 and 4 cells, where the end secants [0, -1] and their neighbours [1, -2] overlap
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 3), [1.0, -0.5, 0.2]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 4), [0.0, 2.5, 0.1, 1.0]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    @example((DensityField(SizeGrid.geometric(0.1, 10.0, 4), [1.0, 0.1, 2.5, 2.5]),
              0.3, make_kernels(growth="constant", r0=1.0), False))
    def test_matches_pchip_per_call(self, case):
        assert_matches_pchip(*case)

    @pytest.mark.parametrize("y", [[0.0, 5e-324, 3e-323], [0.0, -3e-323, -2.4e-322],
                                   [0.0, 1e-323, 9e-323]])
    def test_end_slope_underflowing_to_signed_zero(self, y):
        """Subnormal end secants whose e rounds to +0 or -0, bit for bit
        against SciPy.  Their harmonic means overflow in both, as SciPy's own
        PCHIP warns, so overflow is silenced on both sides."""
        grid = SizeGrid.geometric(1.0, 100.0, 8)
        m0, _, e = _left_end_slope(grid, y)
        assert m0 != 0.0 and e == 0.0
        f0 = DensityField(grid, y + [1.0, 0.5, 0.1, 0.2, 0.3])
        ks = make_kernels(growth="constant", r0=1.0)
        antid = Antiderivatives(ks)
        with np.errstate(over="ignore"):
            transport_apply(f0, 0.3, ks, 2.0, antid=antid, include_absorption=False)
            ours = antid._transport_plan.slopes(f0.values)
            theirs = scipy_pchip_slopes(grid.centers, f0.values)
        assert ours.tobytes() == theirs.tobytes()

    def test_end_slope_examples_reach_their_branch(self):
        """The end-slope examples above hit what they are named for: e
        rounding to +0 or -0 with m0 of either sign, and |e| equal to 3|m0|."""
        wide = SizeGrid.geometric(1.0, 100.0, 8)
        signs = set()
        for y in ([0.0, 4.36321740210036e-307, 3.367896165457741e-306],
                  [0.0, -8.03261720554333e-307, -6.200245871800133e-306],
                  [0.0, 5e-324, 3e-323], [0.0, -3e-323, -2.4e-322], [0.0, 1e-323, 9e-323]):
            m0, _, e = _left_end_slope(wide, y)
            assert m0 != 0.0 and e == 0.0
            signs.add((math.copysign(1.0, m0), math.copysign(1.0, e)))
        assert signs == {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
        m0, m1, e = _left_end_slope(SizeGrid.geometric(0.1, 10.0, 8),
                                    [0.0, 3.0, -21.308504191127057])
        assert m1 < 0.0 < m0 and abs(e) == 3.0 * abs(m0)

    @pytest.mark.parametrize("cells", [2, 3])
    @pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
    def test_matches_pchip_on_tiny_grids(self, cells, t):
        ks = make_kernels(a0=0.5, growth="affine", r0=0.5, r1=0.5)
        grid = SizeGrid.geometric(0.5, 2.0, cells)
        assert_matches_pchip(DensityField(grid, [1.0, -0.5, 0.2][:cells]), t, ks, True)

    def test_memo_key_is_grid_t_and_absorption(self):
        ks = make_kernels(a0=0.5, growth="affine", r0=0.3, r1=0.4)
        grid = SizeGrid.geometric(1e-2, 20.0, 48)
        other = SizeGrid.geometric(1e-2, 20.0, 40)
        f = project(lambda x: x * np.exp(-x), grid)
        f2 = project(lambda x: np.exp(-x), grid)
        g = project(lambda x: x * np.exp(-x), other)
        antid = Antiderivatives(ks)
        # a hit with a new field, t1 -> t2 -> t1, absorption toggled, a second grid
        calls = [(f, 0.05, True), (f2, 0.05, True), (f, 0.4, True), (f, 0.05, True),
                 (f, 0.05, False), (g, 0.05, False)]
        for fld, t, absorb in calls:
            out = transport_apply(fld, t, ks, 2.0, antid=antid, include_absorption=absorb)
            fresh = transport_apply(fld, t, ks, 2.0, antid=Antiderivatives(ks),
                                    include_absorption=absorb)
            assert_bit_identical(out, fresh.values, fresh.escaped_mass)

    def test_non_finite_field_rejected(self):
        grid = SizeGrid.geometric(0.1, 10.0, 16)
        f = DensityField(grid, np.where(np.arange(16) == 5, np.nan, 1.0))
        with pytest.raises(ValueError, match="finite"):
            transport_apply(f, 0.1, make_kernels(), 1.0, Antiderivatives(make_kernels()))


def assert_stack_matches_rows(fields, t, ks, absorb=True):
    """transport_apply on the stack of `fields` against one call per field:
    every row bit for bit, values and escaped mass.  Returns the plan."""
    grid = fields[0].grid
    antid = Antiderivatives(ks)
    stack = DensityField(grid, np.array([f.values for f in fields]),
                         np.array([f.escaped_mass for f in fields]))
    out = transport_apply(stack, t, ks, 2.0, antid=antid, include_absorption=absorb)
    assert out.values.shape == stack.values.shape
    assert out.escaped_mass.shape == (len(fields),)
    for row, f in enumerate(fields):
        alone = transport_apply(f, t, ks, 2.0, antid=antid, include_absorption=absorb)
        assert_bit_identical(DensityField(grid, out.values[row], out.escaped_mass[row]),
                             alone.values, alone.escaped_mass)
    return antid._transport_plan


class TestStackedPlan:
    """A (rows, cells) stack is transported row for row as each field alone."""

    @settings(max_examples=60, deadline=None)
    @given(transport_case())
    def test_rows_bit_identical_to_single_fields(self, case):
        f0, t, ks, absorb = case
        rows = [f0, DensityField(f0.grid, f0.values[::-1].copy(), 0.5),
                DensityField(f0.grid, 3.0 * np.abs(f0.values))]
        assert_stack_matches_rows(rows, t, ks, absorb)

    @pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
    def test_two_cell_grid(self, t):
        ks = make_kernels(a0=0.5, growth="affine", r0=0.5, r1=0.5)
        grid = SizeGrid.geometric(0.5, 2.0, 2)
        rows = [DensityField(grid, v, e) for v, e in
                (([1.0, -0.5], 0.0), ([0.2, 0.3], 0.25), ([0.0, 0.0], 0.0))]
        assert_stack_matches_rows(rows, t, ks)

    def test_escape_path(self):
        ks = make_kernels(a0=0.5, growth="linear", r1=0.25)
        grid = SizeGrid.geometric(1e-3, 50.0, 64)
        rows = [project(lambda x, s=s: s * x * np.exp(-x / s), grid) for s in (1.0, 5.0, 20.0)]
        plan = assert_stack_matches_rows(rows, 0.5, ks, absorb=False)
        assert plan.escape is not None

    def test_converging_flux_cap(self):
        xs = np.array([1e-4, 4.47e-3, 0.2, 8.94, 400.0])
        rs = np.array([0.499, 0.0109, 0.0988, 0.274, 0.304])
        ks = dataclasses.replace(make_kernels(beta=0.0),
                                 r=GrowthRate("table", table_x=xs, table_r=rs))
        grid = SizeGrid.geometric(1e-3, 50.0, 26)
        rows = [project(lambda x, s=s: 0.1 * np.exp(-x / s) / x, grid) for s in (1.0, 0.1)]
        rows.append(DensityField(grid, np.where(np.arange(26) % 3 == 0, 1.0, 0.0)))
        plan = assert_stack_matches_rows(rows, 7.8e-3, ks, absorb=False)
        assert plan.converge[0].size > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(transport_case(nonnegative=True))
def test_remap_keeps_nonnegative_fields_nonnegative(case):
    """PCHIP does not leave the range of the data on an interval, so the
    four-term sum of a nonnegative field, its weights nonnegative except
    the slope ones, is nonnegative: one field and a stack of three."""
    f0, t, ks, absorb = case
    grid = f0.grid
    stack = DensityField(grid, np.array([f0.values, f0.values[::-1], 3.0 * f0.values]),
                         np.array([f0.escaped_mass, 0.5, 0.0]))
    antid = Antiderivatives(ks)
    for field in (f0, stack):
        out = transport_apply(field, t, ks, 2.0, antid=antid, include_absorption=absorb)
        assert np.all(out.values >= 0.0) and np.all(out.escaped_mass >= 0.0)


class TestNoPlanPerStep:
    """A fixed-step solve builds no transport plan per step."""

    @staticmethod
    def count_builds(monkeypatch, run) -> int:
        builds, real = [], gfc.transport._TransportPlan.__init__

        def counting(self, *args):
            builds.append(self)
            real(self, *args)

        monkeypatch.setattr(gfc.transport._TransportPlan, "__init__", counting)
        run()
        return len(builds)

    @staticmethod
    def scenario(steps: int):
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 32
        raw["time"].update(dt=2e-3, t_end=steps * 2e-3, output_every=10 * 2e-3)
        sc = load_scenario(raw)
        grid = sc.grid()
        return sc.initial_field(grid), sc.solver_config(), sc.kernel_set()

    @pytest.mark.parametrize("solver", ["split", "duhamel"])
    def test_builds_do_not_grow_with_steps(self, monkeypatch, solver):
        counts = []
        for steps in (20, 40):
            f0, cfg, ks = self.scenario(steps)
            if solver == "split":
                counts.append(self.count_builds(monkeypatch, lambda: solve(f0, cfg, ks)))
            else:
                cfg = dataclasses.replace(cfg, scheme="duhamel")
                counts.append(self.count_builds(monkeypatch, lambda: duhamel_solve(f0, cfg, ks)))
        assert counts[0] == counts[1]


def test_q_is_tabulated_on_first_use(monkeypatch):
    """A split solve transports without absorption and builds no Q table;
    Q built later is, at the lattice points, the quadrature itself."""
    made = []

    def recording(ks, grid):
        made.append(gfc.transport.make_antiderivatives(ks, grid))
        return made[-1]

    monkeypatch.setattr(gfc.evolution, "make_antiderivatives", recording)
    f0, cfg, ks = TestNoPlanPerStep.scenario(10)
    solve(f0, cfg, ks)
    (antid,) = made
    assert "_Q_table" not in vars(antid)
    knots = 10.0 ** (np.arange(-4 * Q_STEPS_PER_DECADE, 3 * Q_STEPS_PER_DECADE + 1, 20)
                     / Q_STEPS_PER_DECADE)
    oracle = np.array([Q_by_quad(ks, v) for v in knots])
    assert np.all(np.abs(antid.Q(knots) - oracle) <= 1e-12 * np.maximum(np.abs(oracle), 1.0))


class TestResolvent:
    def setup_method(self):
        self.ks = make_kernels()   # r = 1, q = 0
        self.grid = SizeGrid.geometric(1e-3, 30.0, 512)
        self.g = project(lambda x: np.exp(-x), self.grid)
        self.sp = SpectralParams.for_kernels(self.ks, 1.0, 3.0)

    def test_closed_form(self):
        f = resolvent_apply(self.g, self.sp, self.ks, Antiderivatives(self.ks))
        exact = 0.5 * (np.exp(-self.grid.centers) - np.exp(-3.0 * self.grid.centers))
        w = WeightSpec(1.0, "shifted")
        err = weighted_integral(DensityField(self.grid, np.abs(f.values - exact)), w)
        assert err / weighted_integral(DensityField(self.grid, exact), w) < 5e-3

    def test_residual_decays_under_refinement(self):
        resids = []
        for cells in (256, 512):
            grid = SizeGrid.geometric(1e-3, 30.0, cells)
            g = project(lambda x: np.exp(-x), grid)
            f = resolvent_apply(g, self.sp, self.ks, Antiderivatives(self.ks))
            resids.append(resolvent_residual(f, g, self.sp, self.ks))
        assert resids[0] / resids[1] > 1.8

    def test_norm_bound_random_fields(self):
        rng = np.random.default_rng(42)
        w = WeightSpec(1.0, "shifted")
        gap = self.sp.lam - self.sp.omega
        for _ in range(10):
            g = DensityField(self.grid, rng.random(self.grid.cells) * np.exp(-self.grid.centers))
            f = resolvent_apply(g, self.sp, self.ks, Antiderivatives(self.ks))
            assert weighted_integral(f, w) <= weighted_integral(g, w) / gap

    def test_rejects_lambda_below_growth_bound(self):
        with pytest.raises(ParameterDomainError):
            SpectralParams.for_kernels(self.ks, 1.0, 1.5)   # omega = 2

    def test_zero_growth_is_pointwise_division(self):
        ks = make_kernels(a0=0.5, gamma0=1.0, x0=0.5, growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        g = project(lambda x: np.exp(-x), grid)
        sp = SpectralParams.for_kernels(ks, 1.0, 1.0)
        f = resolvent_apply(g, sp, ks, None)
        assert np.allclose(f.values, g.values / (1.0 + ks.q(grid.centers)))


def unit_cell_columns(grid, sp, ks, antid):
    """Brute force: the weighted norm of the resolvent of each unit-norm cell."""
    w = WeightSpec(sp.m, "shifted")
    cols = []
    for j in range(grid.cells):
        vals = np.zeros(grid.cells)
        vals[j] = 1.0 / (w(grid.centers[j]) * grid.widths[j])
        cols.append(weighted_integral(resolvent_apply(DensityField(grid, vals), sp, ks, antid), w))
    return np.array(cols)


@st.composite
def resolvent_case(draw):
    """A random admissible kernel set (constant, linear, affine or table
    growth, power-law fragmentation, the shift for a random ball), a random
    grid, weight order and lambda > omega, and a random nonnegative field."""
    cells = draw(st.integers(8, 96))
    xmin = 10.0 ** draw(st.floats(-3.0, 0.0))
    grid = SizeGrid.geometric(xmin, xmin * 10.0 ** draw(st.floats(1.0, 4.0)), cells)
    growth = draw(st.sampled_from(["constant", "linear", "affine", "table"]))
    ks = make_kernels(a0=draw(st.floats(0.0, 2.0)), gamma0=draw(st.floats(0.0, 2.0)),
                      k0=draw(st.sampled_from([0.0, 0.5])), alpha=draw(st.floats(0.1, 0.9)),
                      ball_radius=draw(st.floats(0.0, 4.0)),
                      growth="constant" if growth == "table" else growth,
                      r0=draw(st.floats(0.05, 2.0)), r1=draw(st.floats(0.05, 2.0)))
    if growth == "table":
        xs = np.geomspace(grid.xmin, grid.xmax, 12)
        rs = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=12, max_size=12)))
        ks = dataclasses.replace(ks, r=GrowthRate("table", table_x=xs, table_r=rs))
    m = draw(st.floats(1.0, 3.5))
    omega = 2.0 * m * ks.r.rtilde
    sp = SpectralParams.for_kernels(ks, m, omega + draw(st.floats(0.1, 4.0)))
    g = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells)))
    g[draw(st.integers(0, cells - 1))] += 0.5
    return DensityField(grid, g), sp, ks


class TestExactNorms:
    """resolvent_norm and transport_norms, the values of the resolvent and
    quasi-contractivity rows."""

    @pytest.mark.parametrize("preset", ["gfc-global-ii", "gfc-global-i", "regularization-probe"])
    def test_resolvent_norm_is_the_largest_unit_cell_column(self, preset):
        sc = load_scenario(preset, {"grid": {"cells": 128}})
        ks, grid = sc.kernel_set(), sc.grid()
        sp = SpectralParams.for_kernels(ks, sc.solver_config().m)
        antid = Antiderivatives(ks)
        brute = float(np.max(unit_cell_columns(grid, sp, ks, antid)))
        assert resolvent_norm(grid, sp, ks, antid) == pytest.approx(brute, rel=1e-12, abs=0)

    def test_resolvent_norm_without_growth(self):
        ks = make_kernels(a0=0.5, gamma0=1.0, x0=0.5, growth="constant", r0=0.0)
        grid = SizeGrid.geometric(0.1, 10.0, 64)
        sp = SpectralParams.for_kernels(ks, 1.0, 1.0)
        brute = float(np.max(unit_cell_columns(grid, sp, ks, None)))
        assert resolvent_norm(grid, sp, ks, None) == pytest.approx(brute, rel=1e-12)
        assert resolvent_norm(grid, sp, ks, None) == pytest.approx(
            1.0 / (1.0 + 0.5 * grid.centers[0]))

    @settings(max_examples=60, deadline=None)
    @given(resolvent_case())
    def test_resolvent_norm_bounds_every_field(self, case):
        g, sp, ks = case
        antid = Antiderivatives(ks)
        w = WeightSpec(sp.m, "shifted")
        ratio = weighted_integral(resolvent_apply(g, sp, ks, antid), w) / weighted_integral(g, w)
        assert resolvent_norm(g.grid, sp, ks, antid) >= ratio * (1.0 - 1e-12)

    @staticmethod
    def closed_form(grid, m, t, X, dQ):
        """max over the grid's edges and centers of w(X(y)) e^(-dQ(y)) / w(y)."""
        y = np.concatenate([grid.edges, grid.centers])
        w = WeightSpec(m, "shifted")
        return float(np.max(w(X(y)) * np.exp(-dQ(y)) / w(y)))

    def test_transport_norm_under_constant_growth(self):
        """r = r0 and a = a0 x: X = y + r0 t and Q(X) - Q(y) = a0 (X^2 - y^2) / (2 r0)."""
        r0, a0, m = 0.7, 0.3, 2.0
        ks = make_kernels(a0=a0, gamma0=1.0, x0=1e-3, r0=r0, beta=0.0)
        grid = SizeGrid.geometric(1e-3, 20.0, 64)
        ts = np.array([0.25, 1.0, 2.0])
        got = transport_norms(ks, grid, m, ts, Antiderivatives(ks))
        for t, val in zip(ts, got):
            want = self.closed_form(grid, m, t, lambda y: y + r0 * t,
                                    lambda y: a0 * ((y + r0 * t) ** 2 - y ** 2) / (2 * r0))
            assert val == pytest.approx(want, rel=1e-6)

    def test_transport_norm_under_linear_growth(self):
        """r = r1 x and a = a0 x: X = y e^(r1 t) and Q(X) - Q(y) = a0 (X - y) / r1."""
        r1, a0, m = 0.25, 0.4, 2.0
        ks = make_kernels(a0=a0, gamma0=1.0, x0=1e-3, growth="linear", r1=r1, beta=0.0)
        grid = SizeGrid.geometric(1e-3, 50.0, 64)
        ts = np.linspace(0.25, 2.0, 8)
        got = transport_norms(ks, grid, m, ts, Antiderivatives(ks))
        for t, val in zip(ts, got):
            grow = math.exp(r1 * t)
            want = self.closed_form(grid, m, t, lambda y: y * grow,
                                    lambda y: a0 * y * (grow - 1.0) / r1)
            assert val == pytest.approx(want, rel=1e-6)
        # without absorption the norm is the weight's largest growth factor
        pure_ks = make_kernels(growth="linear", r1=r1, beta=0.0)
        pure = transport_norms(pure_ks, grid, m, ts, Antiderivatives(pure_ks))
        assert np.allclose(pure, [self.closed_form(grid, m, t, lambda y: y * math.exp(r1 * t),
                                                   lambda y: 0.0 * y) for t in ts], rtol=1e-12)

    def test_transport_norm_without_growth(self):
        ks = make_kernels(a0=1.0, gamma0=1.0, x0=1e-3, r0=0.0, beta=0.0)
        grid = SizeGrid.geometric(1e-3, 60.0, 64)
        assert transport_norms(ks, grid, 2.0, [0.25, 2.0], None) == pytest.approx(
            np.exp(-1e-3 * np.array([0.25, 2.0])), rel=1e-15)


class TestLemmaBounds:
    def test_zero_growth_is_refused(self):
        ks = make_kernels(a0=1.0, r0=0.0)
        with pytest.raises(ParameterDomainError, match="positive growth rate"):
            resolvent_integral_bounds(1.0, 3.0, 1.0, ks, Antiderivatives(ks))

    def test_closed_form_value(self):
        ks = make_kernels()
        rep = {r.name: r for r in resolvent_integral_bounds(1.0, 4.0, 1.0, ks, Antiderivatives(ks))}
        assert rep["I"].measured == pytest.approx(9.0 / 16.0, abs=1e-6)
        assert rep["I"].bound == pytest.approx(1.0, rel=1e-12)
        assert rep["I"].passed and rep["J"].passed

    @pytest.mark.parametrize("growth,r0,r1", [("constant", 1.0, 0.0),
                                              ("linear", 0.0, 1.0),
                                              ("affine", 1.0, 1.0)])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    @pytest.mark.parametrize("lam_factor", [1.5, 3.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_inequality_matrix(self, growth, r0, r1, m, lam_factor, alpha):
        ks = make_kernels(a0=1.0, growth=growth, r0=r0, r1=r1)
        lam = lam_factor * 2.0 * m * ks.r.rtilde
        for rep in resolvent_integral_bounds(alpha, lam, m, ks, Antiderivatives(ks)):
            assert rep.passed, f"{rep.name}: {rep.measured} > {rep.bound}"

    def test_large_lambda_monotone_decay(self):
        ks = make_kernels()
        antid, vals = Antiderivatives(ks), []
        for lam in (4.0, 8.0, 16.0, 32.0):
            rep = resolvent_integral_bounds(1.0, lam, 1.0, ks, antid)[0]
            vals.append((rep.measured, rep.bound))
        assert all(v2 < v1 for (v1, _), (v2, _) in zip(vals, vals[1:]))
        assert all(b2 < b1 for (_, b1), (_, b2) in zip(vals, vals[1:]))

    @pytest.mark.parametrize("table_r, lam, m", [([0.1, 100.0], 400.0, 1.0),
                                                 ([1.0, 100.0], 2400.0, 3.0)])
    def test_large_lambda_R_at_alpha_gives_rows(self, table_r, lam, m):
        """lambda R(0.5) is -2000 and -1200 on these tables, so exp(-lambda R)
        alone overflows at alpha; both sides scaled by exp(lambda R(alpha)),
        I and J are two finite rows, and the lemma holds."""
        r = GrowthRate("table", table_x=np.array([1.0, 10.0]), table_r=np.array(table_r))
        ks = dataclasses.replace(make_kernels(a0=1.0), r=r)
        rows = resolvent_integral_bounds(0.5, lam, m, ks, Antiderivatives(ks))
        assert [row.name for row in rows] == ["I", "J"]
        assert all(np.isfinite([row.measured, row.bound]).all() and row.passed for row in rows)

    def test_rate_small_at_alpha(self):
        """r = 0.01 at alpha = 3 and lambda = 1800, so the integrand of I in s
        is a spike 6e-6 wide at alpha; I = w(3)/lambda and J = lambda I, to the
        growth of w over that spike."""
        r = GrowthRate("table", table_x=10.0 ** np.arange(1, 9),
                       table_r=[0.01, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 100.0])
        ks = dataclasses.replace(make_kernels(), r=r)   # q = 0
        rows = {row.name: row for row in
                resolvent_integral_bounds(3.0, 1800.0, 3.0, ks, Antiderivatives(ks))}
        assert rows["I"].measured == pytest.approx(28.0 / 1800.0, rel=1e-5)
        assert rows["J"].measured == pytest.approx(28.0, rel=1e-5)

    @pytest.mark.parametrize("a0", [1e2, 1e6])
    def test_fast_absorption(self, a0):
        """r = 1, q = a0 and w = 1 + s: J = w(1) + 1/(lambda + a0).  At a0 = 1e6
        the integrand of J in s or v is a spike 3e-6 wide at alpha, which the
        form by parts turns into the boundary term w(alpha)."""
        ks = make_kernels(a0=a0, gamma0=0.0)
        J = resolvent_integral_bounds(1.0, 3.0, 1.0, ks, Antiderivatives(ks))[1]
        assert J.name == "J" and J.measured == pytest.approx(2.0 + 1.0 / (3.0 + a0), rel=1e-6)

    def test_zero_absorption_ties_J_to_I(self):
        ks = make_kernels()   # q = 0
        reps = {r.name: r for r in
                resolvent_integral_bounds(0.7, 5.0, 2.0, ks, Antiderivatives(ks))}
        assert reps["J"].measured == pytest.approx(5.0 * reps["I"].measured, rel=1e-8)


@st.composite
def growth_table(draw):
    """A growth table and a grid: knots from inside the grid to decades
    beyond it; values rising, falling, or jumping by up to four decades."""
    grid = SizeGrid.geometric(1e-3, 10.0 ** draw(st.floats(0.5, 3.0)), draw(st.integers(8, 64)))
    n = draw(st.integers(2, 10))
    gaps = draw(st.lists(st.floats(0.01, 1.5), min_size=n - 1, max_size=n - 1))
    xs = 10.0 ** (draw(st.floats(-5.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)]))
    logs = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["rising", "falling", "steep"]))
    logs = {"rising": np.sort(logs), "falling": np.sort(logs)[::-1], "steep": logs}[shape]
    return GrowthRate("table", table_x=xs, table_r=10.0 ** logs), grid


def R_by_quad(r: GrowthRate, x: float) -> float:
    """int_1^x ds/r by adaptive quadrature, one per piece between knots."""
    lo, hi = sorted((1.0, x))
    inner = r.table_x[(r.table_x > lo) & (r.table_x < hi)]
    cuts = np.concatenate([[lo], inner, [hi]])
    total = math.fsum(quad(lambda s: 1.0 / float(r(s)), a, b, epsabs=0.0, epsrel=1e-13)[0]
                      for a, b in zip(cuts[:-1], cuts[1:]))
    return total if x >= 1.0 else -total


def Q_by_quad(ks, x: float) -> float:
    """int_1^x q/r by adaptive quadrature, one per piece between the growth
    table's knots (if any), each split into panels of at most a decade."""
    lo, hi = sorted((1.0, x))
    knots = ks.r.table_x if ks.r.kind == "table" else np.array([])
    cuts = np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]])
    panels = np.unique(np.concatenate(
        [np.geomspace(a, b, int(np.log10(b / a)) + 2) for a, b in zip(cuts[:-1], cuts[1:])]))
    total = math.fsum(quad(lambda s: float(ks.q(s) / ks.r(s)), a, b, epsabs=0.0, epsrel=1e-13,
                           limit=200)[0] for a, b in zip(panels[:-1], panels[1:]))
    return total if x >= 1.0 else -total


class TestAntiderivatives:
    @settings(max_examples=60, deadline=None)
    @given(growth_table())
    def test_table_R_is_exact(self, case):
        """R of a table rate (linear between knots, constant beyond) against
        quadrature, and R^-1 against R.  R^-1(R(c)) = c to 1e-13 relative
        beyond what the rounding of R(c) itself allows: an ulp of R moves x
        by r times it, and an ulp of the knot x = 1."""
        r, grid = case
        antid = Antiderivatives(dataclasses.replace(make_kernels(), r=r))
        assert float(antid.R(1.0)) == 0.0
        c = grid.centers
        R = antid.R(c)
        np.testing.assert_allclose(R, [R_by_quad(r, x) for x in c], rtol=1e-12, atol=0.0)
        assert antid.R_at_origin == pytest.approx(R_by_quad(r, 0.0), rel=1e-12)
        slack = 4.0 * (np.spacing(np.maximum(c, 1.0)) + r(c) * np.spacing(np.abs(R)))
        assert np.all(np.abs(antid.R_inverse(R) - c) <= 1e-13 * c + slack)

    def test_normalized_at_one_with_limits(self):
        ks = make_kernels(a0=1.0, growth="affine", r0=0.5, r1=0.5)
        antid = Antiderivatives(ks)
        assert float(antid.R(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(antid.Q(1.0)) == 0.0
        assert np.isfinite(antid.R_at_origin)       # reachable origin
        assert float(antid.Q(1e-12)) <= 0.0 <= float(antid.Q(1e12))
        # R strictly increasing, Q nondecreasing on a sample
        xs = np.geomspace(1e-4, 50.0, 64)
        assert np.all(np.diff(antid.R(xs)) > 0)
        assert np.all(np.diff(antid.Q(xs)) >= 0)

    def test_unreachable_origin_has_divergent_R(self):
        ks = make_kernels(growth="linear", r0=0.0, r1=1.0)
        antid = Antiderivatives(ks)
        assert antid.R_at_origin == -math.inf

    # r1/r0 from 1e-12 to 1e6 every second decade, a vanishing r0 (unreachable
    # origin), r0 << r1, r0 = r1 and a constant rate
    AFFINE = [(1.0, 10.0**e) for e in range(-12, 7, 2)] + [(0.0, 1.0), (1e-6, 1.0),
                                                          (0.1, 0.1), (1.0, 0.0)]

    @pytest.mark.parametrize("r0, r1", AFFINE)
    def test_affine_R_and_feet_against_mpmath(self, r0, r1):
        """The affine R, R^-1(R(x)) and the feet R^-1(R(x) - t) of one step
        (t = 1e-3) at the gfc-global-ii centers (and down to xmin = 1e-4)
        against 50-digit arithmetic: R to 1e-14 relative, the others to 1e-12
        relative plus 8 ulp(1) absolute below 1e-2, the rounding of R^-1
        near a reachable origin.  r1 << r0 must not cancel."""
        t = 1e-3
        antid = Antiderivatives(dataclasses.replace(
            make_kernels(), r=GrowthRate("affine", r0=r0, r1=r1)))
        with mpmath.workdps(50):
            p0, p1 = mpmath.mpf(r0), mpmath.mpf(r1)

            def R(x):
                return (x - 1) / p0 if r1 == 0 else mpmath.log((p0 + p1 * x) / (p0 + p1)) / p1

            def R_inverse(u):
                x = 1 + p0 * u if r1 == 0 else ((p0 + p1) * mpmath.exp(p1 * u) - p0) / p1
                return max(x, mpmath.mpf(0))   # a foot beyond the origin reads 0

            def assert_close(got, exact, rel, near_zero=0.0):
                for g, e in zip(got.tolist(), exact):
                    allow = rel * abs(e) + (near_zero if e < 1e-2 else 0.0)
                    assert abs(mpmath.mpf(g) - e) <= allow, (g, e)

            if r0 > 0:
                assert antid.R_at_origin == pytest.approx(float(R(mpmath.mpf(0))), rel=1e-15)
            else:
                assert antid.R_at_origin == -math.inf
            for xmin in (1e-3, 1e-4):
                c = SizeGrid.geometric(xmin, 50.0, 512).centers
                exact = [R(mpmath.mpf(x)) for x in c.tolist()]
                R_c = antid.R(c)
                assert_close(R_c, exact, 1e-14)
                feet = r_inverse_clipped(antid, R_c - t)
                assert_close(feet, [R_inverse(e - t) for e in exact], 1e-12, 8 * math.ulp(1.0))
                assert_close(antid.R_inverse(R_c), [mpmath.mpf(x) for x in c.tolist()],
                             1e-12, 8 * math.ulp(1.0))


@st.composite
def absorbing_kernels(draw):
    """A power-law fragmentation rate with gamma0 in [0, 2], the shift for a
    random ball, and a constant, linear, affine or table growth rate.  A
    table's knots are 0.02 to 1.5 decades apart, and its rate moves by at
    most a decade per decade between them.  Q is read as a function of R,
    whose slope q does not see the table's kinks, so no table is filtered
    out."""
    growth = draw(st.sampled_from(["constant", "linear", "affine", "table"]))
    ks = make_kernels(a0=draw(st.floats(0.0, 3.0)), gamma0=draw(st.floats(0.0, 2.0)),
                      k0=draw(st.floats(0.0, 1.0)), alpha=draw(st.floats(0.05, 1.0)),
                      ball_radius=draw(st.floats(0.5, 8.0)))
    if growth == "table":
        n = draw(st.integers(2, 6))
        gaps = np.array(draw(st.lists(st.floats(0.02, 1.5), min_size=n - 1, max_size=n - 1)))
        xs = 10.0 ** (draw(st.floats(-4.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)]))
        # the rate moves by at most a decade per decade between knots
        steps = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1)))
        rates = 10.0 ** (draw(st.floats(-2.0, 2.0))
                         + np.concatenate([[0.0], np.cumsum(steps * gaps)]))
        return dataclasses.replace(ks, r=GrowthRate("table", table_x=xs, table_r=rates))
    r = GrowthRate("affine", r0=0.0 if growth == "linear" else draw(st.floats(0.05, 2.0)),
                   r1=0.0 if growth == "constant" else draw(st.floats(0.05, 2.0)))
    return dataclasses.replace(ks, r=r)


class TestOneQ:
    """Q is tabulated once, on one lattice in log x through x = 1."""

    @staticmethod
    def worst(ks, x) -> float:
        oracle = np.array([Q_by_quad(ks, v) for v in x])
        return float(np.max(np.abs(Antiderivatives(ks).Q(x) - oracle)
                            / np.maximum(np.abs(oracle), 1.0)))

    @settings(max_examples=60, deadline=None)
    @given(absorbing_kernels(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_matches_quadrature(self, ks, logs):
        x = np.concatenate([10.0 ** np.array(logs), [0.995, 1.005]])
        assert self.worst(ks, x) <= 1e-4

    @pytest.mark.parametrize("knots", [12, 200])
    def test_table_growth(self, knots):
        """A table of r = 0.2 + 0.5*sqrt(x): r' jumps at each knot."""
        xs = np.geomspace(1e-4, 1e3, knots)
        ks = dataclasses.replace(make_kernels(a0=1.0, gamma0=1.5, k0=0.5, ball_radius=4.0),
                                 r=GrowthRate("table", table_x=xs, table_r=0.2 + 0.5 * np.sqrt(xs)))
        assert self.worst(ks, np.concatenate([np.geomspace(1e-4, 1e4, 41), [0.995, 1.005]])) <= 1e-4

    def test_steep_law_next_to_one(self):
        """A steep law next to x = 1, where a sliver interval beside an
        inserted anchor is off by 3.7e-3 relative at x = 1.005."""
        ks = make_kernels(a0=2, gamma0=2, r0=0.05, k0=0.5, alpha=0.9, ball_radius=4)
        assert self.worst(ks, np.concatenate([np.geomspace(1e-4, 1e4, 41), [0.995, 1.005]])) <= 1e-4

    def test_gfc_global_ii_next_to_one(self):
        ks = load_scenario("gfc-global-ii").kernel_set()
        assert abs(float(Antiderivatives(ks).Q(1.005)) - Q_by_quad(ks, 1.005)) <= 1e-9

    def test_rate_rising_twelvefold_within_one_interval(self):
        """A table whose rate rises from 0.036 at x = 1 to 45.7 at x = 2.18,
        13-fold within the first lattice interval: continued below x = 1, the
        piece's 1/r has a pole 1e-3 away.  Interpolated in log x, Q(0.995) read -0.508 against
        -0.641; as a function of R, whose slope q is smooth, it is within
        1e-9 relative, and 1e-4 beside the knot, inside that interval."""
        r = GrowthRate("table", table_x=np.array([1.0, 2.184, 3.028]),
                       table_r=np.array([0.0364, 45.74, 0.106]))
        ks = dataclasses.replace(make_kernels(a0=1.87, gamma0=0.0, alpha=0.685, beta=1.4), r=r)
        Q = Antiderivatives(ks).Q
        assert float(Q(0.995)) == pytest.approx(Q_by_quad(ks, 0.995), rel=1e-8, abs=0)
        assert self.worst(ks, np.array([1.0005, 1.003, 1.01, 3.5, 10.0])) <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(absorbing_kernels())
    @example(make_kernels(a0=5e-324, beta=0.0))   # Q subnormal: its rounding steps are 5e-324
    def test_nondecreasing(self, ks):
        """q >= 0, so Q must not decrease: the transport reads exp(-dQ) <= 1.
        A Hermite cubic through exact slopes is monotone while neither slope
        exceeds three times the interval's secant (Fritsch and Carlson)."""
        Q = Antiderivatives(ks).Q(np.geomspace(1e-4, 1e4, 20001))
        assert np.all(np.diff(Q) >= 0.0)

    def test_nondecreasing_where_q_jumps_within_an_interval(self):
        """A fragmentation table rising from 0 to 5000 over 101 .. 101.1, at
        the far end of the lattice interval 100 .. 101.16: there q is about
        ten times the interval's secant, and through the exact slopes the
        cubic dipped by 1.07 in Q.  The clamped slopes keep Q nondecreasing,
        and flat, bit for bit, below the table, where q = 0."""
        a = FragmentationRate("table", table_x=np.array([101.0, 101.1]),
                              table_a=np.array([0.0, 5000.0]))
        ks = dataclasses.replace(make_kernels(beta=0.0), a=a)
        x = np.geomspace(90.0, 110.0, 20001)
        Q = Antiderivatives(ks).Q(x)
        assert np.all(np.diff(Q) >= 0.0)
        assert np.all(Q[x < 99.0] == Q[0])

    def test_sizes_past_the_first_block_extend_the_table(self):
        """Sizes beyond 1e-12 .. 1e12 grow the table by whole blocks; Q there
        is the quadrature's, and Q inside the first block does not change,
        bit for bit, because a size reads only its own lattice interval."""
        ks = make_kernels(a0=1.0, gamma0=1.5, k0=0.5, ball_radius=4.0)
        antid = Antiderivatives(ks)
        inside = np.geomspace(10.0 ** -11.985, 10.0 ** 11.985, 301)   # three steps inside
        before = antid.Q(inside)
        assert antid._Q_blocks == (1, 1)
        far = np.array([1e-40, 1e-13, 1e13, 1e40])
        got = antid.Q(far)
        assert antid._Q_blocks == (4, 4)
        oracle = np.array([Q_by_quad(ks, v) for v in far])
        assert np.all(np.abs(got - oracle) <= 1e-4 * np.maximum(np.abs(oracle), 1.0))
        np.testing.assert_array_equal(antid.Q(inside), before)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan, 1e301, 1e-301, [1.0, 1e301]])
    def test_sizes_the_lattice_cannot_reach_are_refused(self, x):
        antid = Antiderivatives(make_kernels(a0=1.0, k0=0.5))
        with pytest.raises(ParameterDomainError, match="not at size"):
            antid.Q(x)


class TestVLambda:
    def test_zero_growth_is_refused(self):
        ks = make_kernels(a0=1.0, r0=0.0)
        with pytest.raises(ParameterDomainError, match="positive growth rate"):
            v_lambda_diagnostics(SpectralParams.for_kernels(ks, 1.0, 3.0), ks, Antiderivatives(ks))

    def test_reachable_boundary_limit(self):
        ks = make_kernels()
        sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
        (row,) = v_lambda_diagnostics(sp, ks, Antiderivatives(ks))
        assert (row.suite, row.name, row.relation, row.bound) == \
            ("resolvent", "v-lambda-boundary", ">", -math.inf)
        # log(r*v_lambda) = -lambda*R(1e-5) with R(x) = x - 1 and Q = 0
        assert row.measured == pytest.approx(3.0 * (1.0 - 1e-5), rel=1e-12)
        assert row.status == "pass"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reachable_boundary_past_the_float_range(self):
        """A slow table rate near the origin puts r*v_lambda = e^(-lambda R)
        past the float range at the smallest cutoff; its log is finite."""
        r = GrowthRate("table", table_x=np.array([1e-4, 1.0, 10.0]),
                       table_r=np.array([0.01, 0.01, 2.0]))
        ks = dataclasses.replace(make_kernels(), r=r)
        (row,) = v_lambda_diagnostics(SpectralParams.for_kernels(ks, 2.0, 10.0), ks,
                                      Antiderivatives(ks))
        assert row.measured == pytest.approx(-10.0 * float(Antiderivatives(ks).R(1e-5)),
                                             rel=1e-12)
        assert row.measured > 709.0 and row.status == "pass"

    def test_unreachable_divergence_rate_tracks_lambda(self):
        ks = make_kernels(growth="linear", r0=0.0, r1=1.0)
        exps = []
        for lam in (3.0, 6.0):
            sp = SpectralParams.for_kernels(ks, 1.0, lam)
            div, mono = v_lambda_diagnostics(sp, ks, Antiderivatives(ks))
            assert (div.name, mono.name) == ("v-lambda-divergence", "v-lambda-monotone")
            assert div.status == mono.status == "pass"
            assert mono.measured == 0.0
            exps.append(div.measured)
        assert exps[0] == pytest.approx(3.0, rel=5e-2)
        assert exps[1] == pytest.approx(6.0, rel=5e-2)


class TestVectorQuadrature:
    """The growth checks read through one vector quadrature each what one
    scalar quad per interval reads: I and J, and the v_lambda totals, to 1e-8
    relative (or the rule's absolute floor, epsabs per panel, for totals that
    small).  The origin-class ratio, int 1/r over two brackets, is held to the
    exact R: on a table whose rate turns inside a panel the scalar rule was
    1e-6 off where the vector one was exact."""

    @settings(max_examples=10, deadline=None)
    @given(st.one_of(
               st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)).map(
                   lambda r: GrowthRate("affine", r0=r[0], r1=r[1])),
               st.floats(0.05, 2.0).map(lambda r1: GrowthRate("linear", r1=r1)),
               growth_table().map(lambda drawn: drawn[0])),
           st.floats(0.2, 5.0), st.floats(1.2, 4.0), st.floats(1.0, 3.0), st.floats(0.0, 2.0))
    @example(GrowthRate("linear", r1=0.25), 1.0, 1.5, 2.0, 1.0)   # gfc-global-ii's growth
    # lambda R(alpha) = -1200: exp(-lambda R) alone overflows at alpha
    @example(GrowthRate("table", table_x=[1.0, 10.0], table_r=[1.0, 100.0]), 0.5, 4.0, 3.0, 1.0)
    # the rate turns at 0.0115, inside the origin panel [0.01, 1]
    @example(GrowthRate("table", table_x=[1.5399e-4, 6.4938e-4, 4.21697e-3, 1.154782e-2],
                        table_r=[1.0, 1.0, 1.0, 0.1]), 1.0, 2.0, 1.0, 0.0)
    # the rate rises tenfold inside the panel [1e-3, 1e-2]: a 1e-9 absolute
    # floor left the origin-class ratio 1.6e-8 off
    @example(GrowthRate("table", table_x=[1e-5, 2.55065442e-4, 5.48695459e-4, 1.10198616e-3,
                                          3.22620601e-3, 9.94567915e-3],
                        table_r=[1.0, 1.0, 1.0, 1.0, 1.0, 10.0]), 1.0, 2.0, 1.0, 0.0)
    # the rate is 0.01 at alpha, so the integrand of I in s is a spike 6e-6 wide
    # there; the octave panels in s read I = 1.3e-17 where it is 28/1800
    @example(GrowthRate("table", table_x=10.0 ** np.arange(1, 9),
                        table_r=[0.01, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 100.0]), 3.0, 3.0, 3.0, 0.0)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_growth_checks_match_scalar_quadrature(self, r, alpha, lam_factor, m, a0):
        ks = dataclasses.replace(make_kernels(a0=a0), r=r)
        sp = SpectralParams.for_kernels(ks, m, lam_factor * 2.0 * m * r.rtilde)
        with recorded_intervals(gfc.kernels) as validation, \
                recorded_intervals(gfc.transport) as resolvent:
            ratio = {row.name: row for row in validate_kernel_set(ks, 1e-3, 1e2)}[
                "growth-origin-class"].measured
            antid = Antiderivatives(ks)
            resolvent_integral_bounds(alpha, sp.lam, m, ks, antid)
            v_lambda_diagnostics(sp, ks, antid)
        _, (_, lo, hi, _, _) = validation   # the mass check, then the origin panels
        R = antid.R
        assert ratio == pytest.approx((R(hi[-1]) - R(lo[0])) / (R(hi[-1]) - R(lo[-1])), rel=1e-8)
        for fun, lo, hi, options, value in resolvent:
            # I and J over their panels in v, or v_lambda over each cutoff's panels
            oracle = quad_per_interval(fun, lo, hi, **options, rel=1e-12, tiled=True)
            np.testing.assert_allclose(value.sum(axis=-1), oracle, rtol=1e-8,
                                       atol=lo.shape[-1] * options["epsabs"])


class TestLaplace:
    def test_closed_form_case(self):
        ks = make_kernels()
        grid = SizeGrid.geometric(1e-3, 30.0, 512)
        g = project(lambda x: np.exp(-x), grid)
        sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
        assert laplace_consistency(g, sp, ks, Antiderivatives(ks), tmax=14.0, n_time=4097) <= 1e-3

    def test_zero_field(self):
        ks = make_kernels()
        grid = SizeGrid.geometric(1e-3, 30.0, 64)
        sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
        assert laplace_consistency(DensityField.zeros(grid), sp, ks, Antiderivatives(ks), tmax=14.0,
                                   n_time=129) == 0.0

    def test_refinement_at_least_first_order(self):
        ks = make_kernels()
        sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
        vals = []
        for cells, n_time in ((128, 513), (256, 1025)):
            grid = SizeGrid.geometric(1e-3, 30.0, cells)
            g = project(lambda x: np.exp(-x), grid)
            vals.append(laplace_consistency(g, sp, ks, Antiderivatives(ks), tmax=14.0,
                                            n_time=n_time))
        assert vals[0] / vals[1] >= 2.0

    def test_short_horizon_rejected(self):
        ks = make_kernels()
        grid = SizeGrid.geometric(1e-3, 30.0, 64)
        g = project(lambda x: np.exp(-x), grid)
        sp = SpectralParams.for_kernels(ks, 1.0, 3.0)
        with pytest.raises(ParameterDomainError):
            laplace_consistency(g, sp, ks, Antiderivatives(ks), tmax=1.0)
