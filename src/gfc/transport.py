"""Linear transport-absorption generator and its explicit resolvent.

The pure transport part del_t f + del_x(r f) + q f = 0 with q = a + a1 is
solved exactly along characteristics dX/dt = r(X).  In terms of the
antiderivatives R(x) = int_1^x ds/r(s) and Q(x) = int_1^x q(s)/r(s) ds the
semigroup, the singular homogeneous solution

    v_lambda(x) = exp(-lambda*R(x) - Q(x)) / r(x)

and the resolvent

    (Res(lambda) g)(x) = v_lambda(x) * int_0^x exp(lambda*R(y) + Q(y)) g(y) dy

are all explicit.  With omega = 2*m*rtilde the resolvent norm on the
(1 + x^m)-weighted space is bounded by 1/(lambda - omega), and the semigroup
grows at most like exp(omega*t).  Both operators are positive, so their
norms are suprema over point masses (over unit cells for the discrete
resolvent), and both are computed here.
All exponentials are assembled in log space: lambda*R can exceed the
floating-point range near the origin when the characteristics stall there.
R is exact; Q is tabulated once per `Antiderivatives`, on one lattice in
log x through x = 1, so every caller reads the same Q at the same size.

`transport_apply` reads the field at the backward feet through its PCHIP
interpolant.  Everything that depends only on the antiderivatives, the grid,
the step t and whether absorption is included is a transport plan, built
once per (grid, t) and kept on the `Antiderivatives` instance: the feet and
their `inside` mask, r(x0), r(x) and exp(-dQ), the interval and offset of
each foot among the cell centers, and the escape quadrature nodes with their
interval, offset, attenuation and widths; the nodes' intervals and offsets
follow the feet's, so one gather evaluates both.  A call then computes only
the PCHIP slopes and evaluates the cubic Hermite pieces, in plain NumPy.  Both
follow SciPy's PchipInterpolator and PPoly operation for operation (PPoly
sums powers y + d*s + c1*s^2 + c0*(s^2*s), it does not use Horner), so the
result is bit-identical to building a PchipInterpolator on every call.
Where characteristics converge (r(x0) > r(x), only under a falling growth
table) the flux r*f is then capped by its larger value at the two centers
around the foot; on a nondecreasing rate nothing is capped.
A plan also transports a stack of fields in one call, values (rows, cells)
and escaped mass (rows,), as the Picard wavefront advances its iterations:
the slopes, the Hermite pieces and the cap work on the last axis, and the
escaped mass is summed row by row, so every row comes out bit-identical to
transporting that field alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .grid import DensityField, SizeGrid, WeightSpec, weighted_integral
from .kernels import REACHABLE, UNREACHABLE, KernelSet, ReportRow, _quad

__all__ = [
    "Antiderivatives",
    "SpectralParams",
    "ParameterDomainError",
    "transport_apply",
    "resolvent_apply",
    "resolvent_norm",
    "transport_norms",
    "resolvent_residual",
    "resolvent_integral_bounds",
    "v_lambda_diagnostics",
    "laplace_consistency",
]


class ParameterDomainError(ValueError):
    """Spectral parameter outside the admissible half line."""


# ---------------------------------------------------------------------------
# antiderivatives R and Q


# Q's lattice x_k = 10^(k/200), x = 1 at k = 0, in blocks of 12 decades, at most
# 25 on either side of 1.  PCHIP is only C^1 at a lattice point; at 100 per decade
# the adaptive quadratures that read Q need a third more integrand calls.
Q_STEPS_PER_DECADE, Q_BLOCK, Q_MAX_BLOCKS = 200, 2400, 25


def _piece_integral(x, base, rate, slope, far, far_rate):
    """int_base^x ds / (rate + slope*(s - base)) on a table piece.  The log1p
    is taken from the smaller-rate end of [base, x], with r(x) measured from
    the piece's far end, so a steep piece does not cancel."""
    s = x - base
    low = np.where(slope * s >= 0, rate, far_rate + slope * (x - far))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slope == 0, s / rate,
                        np.sign(s) * np.log1p(np.abs(slope * s) / low) / np.abs(slope))


class Antiderivatives:
    """Antiderivatives R of 1/r and Q of q/r, normalized to vanish at x = 1.

    R is strictly increasing, invertible and exact: the affine law r0 + r1*x
    has one closed form for r1 = 0 and one, through log1p and expm1, for the
    rest; a table rate is linear between its knots and constant beyond them
    (`GrowthRate`), so on each piece R is log1p(beta*s/r)/beta (s/r where
    beta = 0) plus R at the piece's end nearer to x = 1, a knot from which R
    is chained outward.  R^-1 finds its piece by searching R at the knots.
    R(0+) is R(0) when the origin is reachable, -inf when it is not.  Q is
    tabulated on first use, so a solve that transports without absorption
    never builds it: per-interval Gauss quadrature on the lattice points
    10^(k/200), whose point k = 0 is x = 1, chained outward from there and
    interpolated monotonically in log x.  The table grows by blocks to the
    sizes queried, and Q at a size does not depend on how far it reaches.
    """

    def __init__(self, ks: KernelSet):
        r = ks.r
        if r.is_zero:
            raise ParameterDomainError("antiderivatives need a positive growth rate")
        self.growth = r
        self._q = ks.q
        self._Q_blocks, self._Q_span = (0, 0), (math.inf, -math.inf)
        self._transport_plan = None   # memo of transport_apply

        if r.kind == "table":
            # piece i lies between knots i-1 and i (pieces 0 and n are the
            # constant ends) and is measured from its end nearer to x = 1
            knots = np.union1d(r.table_x, [1.0])
            rates, one, i = r(knots), np.searchsorted(knots, 1.0), np.arange(knots.size + 1)
            base, far = np.where(i > one, [i - 1, i], [i, i - 1]).clip(0, knots.size - 1)
            slope = np.concatenate([[0.0], np.diff(rates) / np.diff(knots), [0.0]])
            piece = (knots[base], rates[base], slope, knots[far], rates[far])
            step = _piece_integral(knots[far], *piece)
            self._knots, self._R_knots = knots, np.concatenate(
                [np.cumsum(step[one:0:-1])[::-1], [0.0], np.cumsum(step[one + 1:-1])])
            self._pieces = (self._R_knots[base],) + piece

    # -- R ------------------------------------------------------------
    def R(self, x):
        x = np.asarray(x, dtype=float)[()]   # a scalar's ufuncs are cheaper than a 0-d array's
        r = self.growth
        if r.kind == "table":
            k = np.searchsorted(self._knots, x, side="right")
            offset, *piece = (p[k] for p in self._pieces)
            return offset + _piece_integral(x, *piece)
        if r.r1 == 0.0:
            return (x - 1.0) / r.r0
        # log((r0 + r1*x)/(r0 + r1)) as log1p over the smaller rate: no cancelling
        r0, r1, d = r.r0, r.r1, x - 1.0
        return np.sign(d) * np.log1p(r1 * abs(d) / (r0 + r1 * np.minimum(x, 1.0))) / r1

    def R_inverse(self, u):
        u = np.asarray(u, dtype=float)
        r = self.growth
        if r.kind == "table":
            k = np.searchsorted(self._R_knots, u, side="right")
            offset, base, rate, slope = (p[k] for p in self._pieces[:4])
            v = u - offset
            with np.errstate(divide="ignore", invalid="ignore"):
                return base + np.where(slope == 0, rate * v, rate * np.expm1(slope * v) / slope)
        if r.r1 == 0.0:
            return 1.0 + r.r0 * u
        v = r.r1 * u
        return np.exp(v) + r.r0 * np.expm1(v) / r.r1

    @property
    def R_at_origin(self) -> float:
        """m_R: limit of R at 0+, finite exactly when the origin is reachable."""
        return float(self.R(0.0)) if self.growth.origin_class == REACHABLE else -math.inf

    # -- Q ------------------------------------------------------------
    def _tabulate_Q(self, x: np.ndarray) -> None:
        """Grow Q's table by whole blocks until each size x is two lattice
        steps inside it: one keeps PCHIP's end slopes unread, one absorbs
        the rounding of log10."""
        with np.errstate(divide="ignore"):
            k = Q_STEPS_PER_DECADE * np.log10(np.where(x > 0, x, 0.0))   # -inf if x <= 0 or NaN
        need = np.ceil((np.ceil(np.abs(k)) + 2.0) / Q_BLOCK)   # blocks on x's side of 1
        if (need > Q_MAX_BLOCKS).any():
            edge = Q_MAX_BLOCKS * Q_BLOCK // Q_STEPS_PER_DECADE
            raise ParameterDomainError(f"Q is tabulated for sizes inside 1e-{edge} .. 1e{edge}, "
                                       f"not at size {x[need > Q_MAX_BLOCKS].flat[0]:g}")
        n_lo, n_hi = self._Q_blocks = tuple(int(max(n, need[side].max(initial=1))) for n, side
                                            in zip(self._Q_blocks, (k < 0, k >= 0)))
        lattice = 10.0 ** (np.arange(-n_lo * Q_BLOCK, n_hi * Q_BLOCK + 1) / Q_STEPS_PER_DECADE)
        self._Q_span = lattice[1], lattice[-2]
        nodes, weights = np.polynomial.legendre.leggauss(10)
        mid, half = 0.5 * (lattice[1:] + lattice[:-1]), 0.5 * (lattice[1:] - lattice[:-1])
        pts = mid + half * nodes[:, None]
        vals = self._q(pts) / self.growth(pts)
        # node by node, so an interval's sum does not depend on the table's extent
        seg = half * sum(w * v for w, v in zip(weights, vals))
        one = n_lo * Q_BLOCK
        Q = np.concatenate([-np.cumsum(seg[one - 1::-1])[::-1], [0.0], np.cumsum(seg[one:])])
        self._Q_interp = PchipInterpolator(np.log(lattice), Q)

    def Q(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self._Q_span
        if not ((x >= lo) & (x <= hi)).all():
            self._tabulate_Q(x)
        return self._Q_interp(np.log(x))


@dataclass(frozen=True)
class SpectralParams:
    """Weight order m, the growth bound omega = 2*m*rtilde, and lambda > omega."""

    m: float
    lam: float
    omega: float

    @staticmethod
    def for_kernels(ks: KernelSet, m: float, lam: Optional[float] = None) -> "SpectralParams":
        """lam defaults to omega + 2."""
        if m < 1:
            raise ParameterDomainError(f"weight order must be >= 1, got {m}")
        omega = 2.0 * m * ks.r.rtilde
        lam = omega + 2.0 if lam is None else lam
        if lam <= omega:
            raise ParameterDomainError(
                f"resolvent parameter lambda = {lam} must exceed omega = {omega}")
        return SpectralParams(m, lam, omega)


# ---------------------------------------------------------------------------
# characteristic flow


def r_inverse_clipped(antid: Antiderivatives, u):
    """R^-1(u), elementwise: with u = R(x0) + t, the position at time t of
    the characteristic through x0.  A backward characteristic that exits
    through the origin (u <= R(0+)) yields the distinguished value 0.0."""
    u = np.asarray(u, dtype=float)
    m_R = antid.R_at_origin
    hit = u <= m_R
    return np.where(hit, 0.0, antid.R_inverse(np.where(hit, 0.0, u)))   # R^-1(0) = 1


def _locate(centers: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval index and offset of each point, found as SciPy's PPoly finds them.

    Interval i holds centers[i] <= p < centers[i+1], the last one closed on
    the right.  A point outside [centers[0], centers[-1]] gets the offset NaN,
    so it evaluates to NaN, PPoly's marker for out of range without
    extrapolation, and from there to zero.
    """
    idx = np.clip(np.searchsorted(centers, pts, side="right") - 1, 0, centers.size - 2)
    s = np.where((pts >= centers[0]) & (pts <= centers[-1]), pts - centers[idx], np.nan)
    return idx, s


class _TransportPlan:
    """What `transport_apply` needs that depends only on (antid, grid, t,
    include_absorption), as listed in the module docstring, plus the center
    spacings of the PCHIP slopes; `apply` transports one field, or a stack
    of them along the last axis, with it."""

    def __init__(self, antid: Antiderivatives, grid: SizeGrid, t: float,
                 include_absorption: bool):
        self.grid, self.t, self.include_absorption = grid, t, include_absorption
        c = grid.centers
        h = np.diff(c)
        self.h = h
        # interior weights of the harmonic mean and the three-point end
        # formula, both ends at once; a 2-center grid is interpolated linearly
        if grid.cells > 2:
            self.w1 = 2 * h[1:] + h[:-1]
            self.w2 = h[1:] + 2 * h[:-1]
            self.w12 = self.w1 + self.w2
            h0, h1 = h[[0, -1]], h[[1, -2]]
            self.end_w, self.end_h0, self.end_hs = 2 * h0 + h1, h0, h0 + h1

        r = antid.growth
        x0 = r_inverse_clipped(antid, antid.R(c) - t)
        self.inside = x0 >= c[0]
        x0_safe = np.where(self.inside, x0, 1.0)
        self.feet = _locate(c, x0_safe)
        self.gather = self.feet
        dQ = antid.Q(c) - antid.Q(x0_safe) if include_absorption else np.zeros_like(c)
        self.r0, self.rx, self.att = r(x0_safe), r(c), np.exp(-dQ)
        # where characteristics converge r(x0)/r(x) > 1 scales the value read
        # at the foot, and compounds on a cell where the flow stalls; the exact
        # flux r*f is only carried and attenuated, so it is capped there
        conv = np.flatnonzero(self.inside & (self.r0 > self.rx))
        self.converge = (conv, self.feet[0][conv], self.att[conv] / self.rx[conv])

        # parcels crossing xmax during (0, t) have size exactly xmax there; the
        # stretch between the last center and xmax carries the last cell's average
        self.escape = None
        yc = r_inverse_clipped(antid, antid.R(grid.xmax) - t)
        if yc < grid.xmax:
            lo = max(float(yc), c[0])
            edges = grid.edges[(grid.edges > lo) & (grid.edges < grid.xmax)]
            nodes = np.unique(np.concatenate([[lo], edges, [grid.xmax]]))
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            if include_absorption:
                att = np.exp(-(float(antid.Q(grid.xmax)) - antid.Q(mids)))
            else:
                att = np.ones_like(mids)
            self.escape = (mids <= c[-1], att, np.diff(nodes))
            # the nodes follow the feet in one gather, from column n on
            self.gather = tuple(np.concatenate(pair) for pair in zip(self.feet, _locate(c, mids)))

    def matches(self, grid: SizeGrid, t: float, include_absorption: bool) -> bool:
        return (grid is self.grid and t == self.t
                and include_absorption == self.include_absorption)

    def _hermite(self, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-interval cubic coefficients of PchipInterpolator(centers, y),
        for each row of y.

        The slopes are SciPy's `_find_derivatives`: zero where the secant
        slopes change sign or vanish, their weighted harmonic mean otherwise,
        and Moler's shape-preserving three-point formula at both ends.  The
        coefficients are CubicHermiteSpline's, operation for operation.
        """
        if not np.isfinite(y).all():
            raise ValueError("transport needs a finite field")
        h = self.h
        mk = (y[..., 1:] - y[..., :-1]) / h
        if self.grid.cells == 2:
            d = np.concatenate([mk, mk], axis=-1)
        else:
            smk = np.sign(mk)
            flat = smk[..., 1:] * smk[..., :-1] <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (self.w1 / mk[..., :-1] + self.w2 / mk[..., 1:]) / self.w12
                inner = np.where(flat, 0.0, 1.0 / whmean)
            m0, m1 = mk.take([0, -1], axis=-1), mk.take([1, -2], axis=-1)
            e = (self.end_w * m0 - self.end_h0 * m1) / self.end_hs
            flip = np.sign(e) != np.sign(m0)
            clamp = ~flip & (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            e = np.where(flip, 0.0, np.where(clamp, 3.0 * m0, e))
            d = np.concatenate([e[..., :1], inner, e[..., 1:]], axis=-1)
        tt = (d[..., :-1] + d[..., 1:] - 2 * mk) / h
        # PPoly starts its sum from 0.0, which turns a -0.0 value into +0.0
        return tt / h, (mk - d[..., :-1]) / h - tt, d[..., :-1], y[..., :-1] + 0.0

    @staticmethod
    def _evaluate(coef: tuple[np.ndarray, ...], where: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """PPoly's running power sum y + d*s + c1*s^2 + c0*(s^2*s), NaN -> 0."""
        idx, s = where
        c0, c1, c2, c3 = (c.take(idx, axis=-1) for c in coef)
        z = s * s
        p = c3 + c2 * s + c1 * z + c0 * (z * s)
        return np.where(np.isnan(p), 0.0, p)

    def apply(self, f0: DensityField) -> DensityField:
        n = self.grid.cells
        p = self._evaluate(self._hermite(f0.values), self.gather)
        vals = np.where(self.inside, p[..., :n] * self.r0 / self.rx * self.att, 0.0)
        conv, j, cap_att = self.converge
        if conv.size:
            flux = f0.values * self.rx
            cap = np.maximum(flux.take(j, axis=-1), flux.take(j + 1, axis=-1)) * cap_att
            vals[..., conv] = np.minimum(vals.take(conv, axis=-1), cap)
        esc = 0.0
        if self.escape is not None:
            below_last, att, wdt = self.escape
            density = np.where(below_last, p[..., n:], f0.values[..., -1:])
            terms = density * att * wdt
            esc = self.grid.xmax * (math.fsum(terms.tolist()) if terms.ndim == 1 else
                                    np.array([math.fsum(row) for row in terms.tolist()]))
        return DensityField(self.grid, vals, f0.escaped_mass + esc)


def transport_apply(f0: DensityField, t: float, ks: KernelSet, m: float,
                    antid: Optional[Antiderivatives] = None,
                    include_absorption: bool = True) -> DensityField:
    """Exact characteristic solution of the transport-absorption equation.

    r(X)*f(X, t) = r(x0)*f0(x0)*exp(-(Q(X) - Q(x0))) along X = X(t; x0), with
    zero inflow at the origin when backward characteristics reach it.  Mass
    advected past xmax is added to the escaped-mass account using the exact
    crossing-size bookkeeping (every particle crosses at size xmax).

    f0 is read at the feet through its shape-preserving PCHIP interpolant,
    zero outside the centers: PCHIP does not overshoot the local data range,
    so nonnegative cell values stay nonnegative, and it is third order on
    smooth data.  The transport plan for (grid, t, include_absorption) is
    kept in a one-slot memo on `antid`, so a stepper with a fixed step
    builds it once; each call then costs the PCHIP slopes and one Hermite
    evaluation, bit-identical to `PchipInterpolator(centers, values,
    extrapolate=False)` built per call (see the module docstring).  f0 may
    be a stack of fields (see `DensityField`); each row is transported as
    it would be alone.
    """
    if t < 0:
        raise ValueError("transport_apply advances forward in time only")
    grid = f0.grid
    if t == 0:
        return f0.copy()

    if ks.r.is_zero:
        q = ks.q(grid.centers) if include_absorption else np.zeros(grid.cells)
        vals = f0.values * np.exp(-q * t)
        return DensityField(grid, vals, f0.escaped_mass)

    if antid is None:
        antid = make_antiderivatives(ks, grid)
    plan = antid._transport_plan
    if plan is None or not plan.matches(grid, t, include_absorption):
        plan = antid._transport_plan = _TransportPlan(antid, grid, t, include_absorption)
    return plan.apply(f0)


def make_antiderivatives(ks: KernelSet, grid: SizeGrid) -> Antiderivatives:
    """The kernel set's antiderivatives; Q's lattice does not depend on the grid."""
    return Antiderivatives(ks)


def transport_norms(ks: KernelSet, grid: SizeGrid, m: float, times) -> np.ndarray:
    """Norm of the transport-absorption semigroup on the untruncated
    (1 + x^m)-weighted space at each of `times`: it carries a point mass at y
    to one at X_t(y) scaled by exp(-(Q(X) - Q(y))), so its norm is the sup
    over y of w(X) exp(-(Q(X) - Q(y))) / w(y), taken at the grid's edges and
    centers."""
    y = np.concatenate([grid.edges, grid.centers])
    t = np.asarray(times, dtype=float)[:, None]
    if ks.r.is_zero:
        return np.max(np.exp(-ks.q(y) * t), axis=1)
    antid = Antiderivatives(ks)
    X = r_inverse_clipped(antid, antid.R(y) + t)
    w = WeightSpec(m, "shifted")
    return np.max(w(X) * np.exp(antid.Q(y) - antid.Q(X)) / w(y), axis=1)


# ---------------------------------------------------------------------------
# resolvent


def _resolvent_steps(grid: SizeGrid, sp: SpectralParams, ks: KernelSet,
                     antid: Antiderivatives) -> tuple[np.ndarray, ...]:
    """shift_i = s_i - s_{i+1} <= 0, lower_i = int over [lo_i, x_i] of e^(s - s_i)
    and upper_i = int over [x_i, hi_i] of e^(s - s_{i+1}), for s = lambda*R + Q.

    Within each cell s is locally linear with the exact slope (lambda + q)/r,
    so the integrals have closed forms; u is half the swing of s over a cell.
    """
    x = grid.centers
    s = sp.lam * antid.R(x) + antid.Q(x)
    slope = (sp.lam + ks.q(x)) / ks.r(x)
    u = 0.5 * slope * grid.widths
    lower = -np.expm1(-u) / slope
    shift = s[:-1] - s[1:]
    upper = (np.exp(np.minimum(shift + u[:-1], 50.0)) - np.exp(shift)) / slope[:-1]
    return shift, lower, upper


def resolvent_apply(g: DensityField, sp: SpectralParams, ks: KernelSet,
                    antid: Optional[Antiderivatives] = None) -> DensityField:
    """Explicit resolvent applied to a grid density by cumulative quadrature.

    The running integral is carried in log space relative to the current
    cell, so only exponentials of nonpositive arguments are ever formed.
    """
    grid = g.grid
    x = grid.centers

    if ks.r.is_zero:
        # multiplication semigroup: the resolvent is pointwise division
        return DensityField(grid, g.values / (sp.lam + ks.q(x)))

    if antid is None:
        antid = make_antiderivatives(ks, grid)
    shift, lower, upper = _resolvent_steps(grid, sp, ks, antid)
    vals = np.empty(grid.cells)
    acc = g.values[0] * lower[0]
    vals[0] = acc
    for i in range(1, grid.cells):
        acc = math.exp(shift[i - 1]) * acc + g.values[i - 1] * upper[i - 1]
        acc += g.values[i] * lower[i]
        vals[i] = acc
    return DensityField(grid, vals / ks.r(x))


def resolvent_norm(grid: SizeGrid, sp: SpectralParams, ks: KernelSet,
                   antid: Optional[Antiderivatives] = None) -> float:
    """Exact norm of `resolvent_apply` on the (1 + x^m)-weighted space of the
    grid: the map is positive and linear, so its norm is its largest column,
    the norm of the image of a unit-norm density in one cell.  With
    v = w*dx/r, column j is (lower_j*T_j + upper_j*T_{j+1}) / (w_j*dx_j) for
    the reverse recurrence T_j = v_j + exp(shift_j)*T_{j+1}."""
    x, dx = grid.centers, grid.widths
    if ks.r.is_zero:
        return float(np.max(1.0 / (sp.lam + ks.q(x))))
    if antid is None:
        antid = make_antiderivatives(ks, grid)
    shift, lower, upper = _resolvent_steps(grid, sp, ks, antid)
    w = WeightSpec(sp.m, "shifted")(x)
    v = w * dx / ks.r(x)
    decay = np.append(np.exp(shift), 0.0)
    T = np.zeros(grid.cells + 1)
    for j in range(grid.cells - 1, -1, -1):
        T[j] = v[j] + decay[j] * T[j + 1]
    cols = (lower * T[:-1] + np.append(upper, 0.0) * T[1:]) / (w * dx)
    return float(np.max(cols))


def resolvent_residual(f: DensityField, g: DensityField, sp: SpectralParams,
                       ks: KernelSet) -> float:
    """Weighted norm of lambda*f + (r f)' + q*f - g, the defining identity.

    The spatial derivative is a second-order nonuniform central difference,
    so the residual decays with the grid.  Boundary cells are excluded from
    the norm (one-sided differences there are first order).
    """
    grid = f.grid
    x = grid.centers
    rf = ks.r(x) * f.values
    drf = np.gradient(rf, x)
    resid = sp.lam * f.values + drf + ks.q(x) * f.values - g.values
    w = WeightSpec(sp.m, "shifted")(x)
    inner = slice(1, -1)
    return float(np.sum(np.abs(resid[inner]) * w[inner] * grid.widths[inner]))


# ---------------------------------------------------------------------------
# integral inequalities for the resolvent bound


def _integrands(antid: Antiderivatives, ks: KernelSet, sp: SpectralParams):
    """The integrands of I and J."""
    w = WeightSpec(sp.m, "shifted")

    def f_I(s):
        return np.exp(-sp.lam * antid.R(s)) * w(s) / ks.r(s)

    def f_J(s):
        return (sp.lam + ks.q(s)) * np.exp(-sp.lam * antid.R(s) - antid.Q(s)) * w(s) / ks.r(s)

    return f_I, f_J


def _panel_quad(fun, cuts: np.ndarray, epsabs: float, epsrel: float) -> float:
    """int fun over [cuts[0], cuts[-1]] as a sum of checked adaptive
    quadratures, one per panel [cuts[k], cuts[k+1]]; geometric panels keep
    quad honest across many decades."""
    return sum(_quad(lambda z: float(fun(z)), a_, b_, epsabs=epsabs, epsrel=epsrel)
               for a_, b_ in zip(cuts[:-1], cuts[1:]))


def resolvent_integral_bounds(alpha: float, lam: float, m: float, ks: KernelSet) -> list[ReportRow]:
    """Check the weighted tail integrals behind the resolvent estimate.

    I(alpha, inf) <= exp(-lambda R(alpha)) w_m(alpha) / (lambda - omega) and
    the analogous bound for J with the extra exp(-Q) factor and a factor
    lambda; one 'integral-bounds' row each, named I and J.  The infinite
    upper limit is truncated where the integrand falls below 1e-14 of its
    peak; the exponential tail estimate of the truncated part is added so
    the check stays conservative.
    """
    if alpha <= 0:
        raise ParameterDomainError("lower limit alpha must be positive")
    sp = SpectralParams.for_kernels(ks, m, lam)
    antid = Antiderivatives(ks)
    f_I, f_J = _integrands(antid, ks, sp)
    peak = max(float(f_I(alpha)), 1e-300)
    hi = alpha
    for _ in range(400):
        hi *= 1.6
        if float(f_I(hi)) < 1e-14 * peak:
            break

    # one panel per octave
    cuts = np.unique(np.concatenate([
        np.geomspace(alpha, hi, max(8, int(np.log2(hi / alpha)) + 2)), [alpha, hi]]))
    gap = sp.lam - sp.omega
    wm = WeightSpec(m, "shifted")
    R_a, R_hi = (float(antid.R(z)) for z in (alpha, hi))
    Q_a, Q_hi = (float(antid.Q(z)) for z in (alpha, hi))
    w_a, w_hi = (float(wm(np.asarray(z))) for z in (alpha, hi))

    I_val = _panel_quad(f_I, cuts, 1e-13, 1e-10) + math.exp(-sp.lam * R_hi) * w_hi / gap
    I_bound = math.exp(-sp.lam * R_a) * w_a / gap
    J_val = (_panel_quad(f_J, cuts, 1e-13, 1e-10)
             + sp.lam * math.exp(-sp.lam * R_hi - Q_hi) * w_hi / gap)
    J_bound = sp.lam * math.exp(-sp.lam * R_a - Q_a) * w_a / gap

    return [ReportRow("integral-bounds", name, val, "<=", bnd, 1e-9 * bnd)
            for name, val, bnd in (("I", I_val, I_bound), ("J", J_val, J_bound))]


# ---------------------------------------------------------------------------
# the singular solution v_lambda


V_LAMBDA_CUTOFFS = (1e-1, 1e-5)   # the largest and smallest cutoff of the v_lambda sweep


def v_lambda_diagnostics(sp: SpectralParams, ks: KernelSet) -> list[ReportRow]:
    """Certify that the homogeneous resolvent solution is inadmissible.

    Unreachable origin: the truncated weighted integral of v_lambda grows
    without bound as the cutoff shrinks.  The 'resolvent' rows are the
    log-log rate of that growth (`v-lambda-divergence`, > 0) and the number
    of cutoffs at which the integral did not grow (`v-lambda-monotone`,
    <= 0).  Reachable origin: r*v_lambda has a nonzero limit at 0+, which
    violates the homogeneous boundary condition; one row reports it at the
    smallest cutoff (`v-lambda-boundary`, > 0).
    """
    antid = Antiderivatives(ks)
    eps = np.geomspace(*V_LAMBDA_CUTOFFS, 9)
    w = WeightSpec(sp.m, "shifted")
    cutoffs = f"lambda = {sp.lam:g}, cutoffs {eps[0]:g} .. {eps[-1]:g}"

    if ks.r.origin_class == UNREACHABLE:
        def vw(s):
            return np.exp(-sp.lam * antid.R(s) - antid.Q(s)) / ks.r(s) * w(s)

        vals = np.array([_panel_quad(vw, np.geomspace(e, 1.0, 30), 1e-12, 1e-9)
                         for e in eps])
        # late-end slope of log T against log(1/eps)
        tail = slice(len(eps) // 2, None)
        slope = float(np.polyfit(np.log(1.0 / eps[tail]), np.log(vals[tail]), 1)[0])
        return [
            ReportRow("resolvent", "v-lambda-divergence", slope, ">", 0.0,
                      detail=f"log-log rate of the truncated weighted integral; {cutoffs}"),
            ReportRow("resolvent", "v-lambda-monotone", float(np.sum(np.diff(vals) <= 0)),
                      "<=", 0.0, detail="cutoffs at which the truncated integral did not grow"),
        ]

    limit = float(np.exp(-sp.lam * antid.R(eps[-1]) - antid.Q(eps[-1])))
    return [ReportRow("resolvent", "v-lambda-boundary", limit, ">", 0.0,
                      detail=f"r*v_lambda at the smallest cutoff; {cutoffs}")]


# ---------------------------------------------------------------------------
# semigroup / resolvent consistency


def laplace_consistency(g: DensityField, sp: SpectralParams, ks: KernelSet,
                        tmax: float, n_time: int = 257) -> float:
    """Relative gap between the Laplace transform of the semigroup and the resolvent.

    Composite Simpson in time of exp(-lambda t) * S(t) g against
    resolvent_apply, in the (1 + x^m)-weighted norm.
    """
    if math.exp((sp.omega - sp.lam) * tmax) > 1e-6:
        raise ParameterDomainError("tmax too small for the Laplace tail to be negligible")
    if n_time % 2 == 0:
        n_time += 1
    antid = None if ks.r.is_zero else make_antiderivatives(ks, g.grid)
    ts = np.linspace(0.0, tmax, n_time)
    h = ts[1] - ts[0]
    coeff = np.ones(n_time)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    coeff *= h / 3.0

    acc = np.zeros(g.grid.cells)
    for t, c in zip(ts, coeff):
        ft = transport_apply(g, float(t), ks, sp.m, antid=antid)
        acc += c * math.exp(-sp.lam * t) * ft.values
    res = resolvent_apply(g, sp, ks, antid=antid)
    diff = DensityField(g.grid, np.abs(acc - res.values))
    wnorm = WeightSpec(sp.m, "shifted")
    denom = weighted_integral(DensityField(g.grid, np.abs(res.values)), wnorm)
    if denom == 0:
        return 0.0
    return weighted_integral(diff, wnorm) / denom
