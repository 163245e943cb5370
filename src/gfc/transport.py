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

`transport_apply` reads the field at the backward feet through its PCHIP
interpolant.  Everything that depends only on the antiderivatives, the grid,
the step t and whether absorption is included is a transport plan, built
once per (grid, t) and kept on the `Antiderivatives` instance: the feet and
their `inside` mask, r(x0), r(x) and exp(-dQ), the interval and offset of
each foot among the cell centers, and the escape quadrature nodes with their
interval, offset, attenuation and widths.  A call then computes only the
PCHIP slopes and evaluates the cubic Hermite pieces, in plain NumPy.  Both
follow SciPy's PchipInterpolator and PPoly operation for operation (PPoly
sums powers y + d*s + c1*s^2 + c0*(s^2*s), it does not use Horner), so the
result is bit-identical to building a PchipInterpolator on every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .grid import DensityField, SizeGrid, WeightSpec, weighted_integral
from .kernels import UNREACHABLE, KernelSet, ReportRow, _quad

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


class Antiderivatives:
    """Antiderivatives R of 1/r and Q of q/r, normalized to vanish at x = 1.

    R is strictly increasing and invertible; Q is nondecreasing.  Closed
    forms cover the constant/linear/affine growth kinds; everything else is
    tabulated with per-segment Gauss quadrature on a dense geometric mesh and
    interpolated monotonically in log x.
    """

    def __init__(self, ks: KernelSet, x_lo: float, x_hi: float, anchors: int = 1200):
        r = ks.r
        if r.is_zero:
            raise ParameterDomainError("antiderivatives need a positive growth rate")
        self.growth = r
        self.x_lo = float(min(x_lo, 0.5))
        self.x_hi = float(max(x_hi, 2.0))
        self._anchors = int(anchors)
        self.mode = "closed-form" if r.kind in ("constant", "linear", "affine") else "tabulated-quadrature"
        self._q_is_zero = ks.a.is_zero and ks.a1.beta == 0.0
        self._transport_plan = None   # memo of transport_apply

        if self.mode == "tabulated-quadrature":
            t, R = self._tabulate(lambda s: 1.0 / r(s))
            self._R_interp = PchipInterpolator(t, R, extrapolate=True)
            self._Rinv_interp = (PchipInterpolator(R, t, extrapolate=True)
                                 if np.all(np.diff(R) > 0) else None)
        if not self._q_is_zero:
            t, Q = self._tabulate(lambda s: ks.q(s) / r(s))
            self._Q_interp = PchipInterpolator(t, Q, extrapolate=True)

    def _tabulate(self, integrand) -> tuple[np.ndarray, np.ndarray]:
        """log x at the anchors and the antiderivative of integrand there."""
        anchors = np.unique(np.concatenate([
            np.geomspace(self.x_lo, self.x_hi, self._anchors), [1.0]]))
        nodes, weights = np.polynomial.legendre.leggauss(10)
        lo, hi = anchors[:-1], anchors[1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        seg = (integrand(pts) @ weights) * half
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        cum -= cum[np.searchsorted(anchors, 1.0)]
        return np.log(anchors), cum

    # -- R ------------------------------------------------------------
    def R(self, x):
        x = np.asarray(x, dtype=float)
        r = self.growth
        if r.kind == "constant":
            return (x - 1.0) / r.r0
        if r.kind == "linear":
            return np.log(x) / r.r1
        if r.kind == "affine":
            return np.log((r.r0 + r.r1 * x) / (r.r0 + r.r1)) / r.r1
        return self._R_interp(np.log(x))

    def R_inverse(self, u):
        u = np.asarray(u, dtype=float)
        r = self.growth
        if r.kind == "constant":
            return 1.0 + r.r0 * u
        if r.kind == "linear":
            return np.exp(r.r1 * u)
        if r.kind == "affine":
            return ((r.r0 + r.r1) * np.exp(r.r1 * u) - r.r0) / r.r1
        return np.exp(self._Rinv_interp(u))

    @property
    def R_at_origin(self) -> float:
        """m_R: limit of R at 0+, finite exactly when the origin is reachable."""
        r = self.growth
        if r.kind == "constant":
            return -1.0 / r.r0
        if r.kind == "linear":
            return -math.inf
        if r.kind == "affine":
            return math.log(r.r0 / (r.r0 + r.r1)) / r.r1 if r.r0 > 0 else -math.inf
        # tables extend with a positive constant, so the limit is finite;
        # approximate it by the tabulated low end
        return float(self.R(self.x_lo))

    # -- Q ------------------------------------------------------------
    def Q(self, x):
        x = np.asarray(x, dtype=float)
        if self._q_is_zero:
            return np.zeros_like(x)
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
    safe = np.where(hit, 0.0, antid.R_inverse(np.where(hit, m_R + 1.0, u)))
    return np.where(hit, 0.0, safe)


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
    spacings of the PCHIP slopes; `apply` transports one field with it."""

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
        dQ = antid.Q(c) - antid.Q(x0_safe) if include_absorption else np.zeros_like(c)
        self.r0, self.rx, self.att = r(x0_safe), r(c), np.exp(-dQ)

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
            self.escape = (_locate(c, mids), mids <= c[-1], att, np.diff(nodes))

    def matches(self, grid: SizeGrid, t: float, include_absorption: bool) -> bool:
        return (grid is self.grid and t == self.t
                and include_absorption == self.include_absorption)

    def _hermite(self, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-interval cubic coefficients of PchipInterpolator(centers, y).

        The slopes are SciPy's `_find_derivatives`: zero where the secant
        slopes change sign or vanish, their weighted harmonic mean otherwise,
        and Moler's shape-preserving three-point formula at both ends.  The
        coefficients are CubicHermiteSpline's, operation for operation.
        """
        if not np.all(np.isfinite(y)):
            raise ValueError("transport needs a finite field")
        h = self.h
        mk = (y[1:] - y[:-1]) / h
        if y.size == 2:
            d = np.array([mk[0], mk[0]])
        else:
            smk = np.sign(mk)
            flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (self.w1 / mk[:-1] + self.w2 / mk[1:]) / self.w12
                inner = np.where(flat, 0.0, 1.0 / whmean)
            m0, m1 = mk[[0, -1]], mk[[1, -2]]
            e = (self.end_w * m0 - self.end_h0 * m1) / self.end_hs
            flip = np.sign(e) != np.sign(m0)
            clamp = ~flip & (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            e = np.where(flip, 0.0, np.where(clamp, 3.0 * m0, e))
            d = np.concatenate([e[:1], inner, e[1:]])
        tt = (d[:-1] + d[1:] - 2 * mk) / h
        # PPoly starts its sum from 0.0, which turns a -0.0 value into +0.0
        return tt / h, (mk - d[:-1]) / h - tt, d[:-1], y[:-1] + 0.0

    @staticmethod
    def _evaluate(coef: tuple[np.ndarray, ...], where: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """PPoly's running power sum y + d*s + c1*s^2 + c0*(s^2*s), NaN -> 0."""
        idx, s = where
        c0, c1, c2, c3 = (c[idx] for c in coef)
        z = s * s
        p = c3 + c2 * s + c1 * z + c0 * (z * s)
        return np.where(np.isnan(p), 0.0, p)

    def apply(self, f0: DensityField) -> DensityField:
        coef = self._hermite(f0.values)
        vals = np.where(self.inside,
                        self._evaluate(coef, self.feet) * self.r0 / self.rx * self.att,
                        0.0)
        esc = 0.0
        if self.escape is not None:
            where, below_last, att, wdt = self.escape
            density = np.where(below_last, self._evaluate(coef, where), f0.values[-1])
            esc = self.grid.xmax * math.fsum((density * att * wdt).tolist())
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
    extrapolate=False)` built per call (see the module docstring).
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
    return Antiderivatives(ks, x_lo=grid.xmin * 1e-6, x_hi=grid.xmax * 4.0)


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
    # r <= rtilde*(1 + x) keeps every X_t(y) inside the tabulated range
    antid = Antiderivatives(ks, x_lo=grid.xmin * 1e-6,
                            x_hi=(1.0 + grid.xmax) * math.exp(ks.r.rtilde * float(t.max())))
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
    if ks.r.is_zero:
        raise ParameterDomainError("bound check needs a positive growth rate")

    antid = Antiderivatives(ks, x_lo=min(alpha, 1.0) * 1e-3, x_hi=alpha * 1e6)
    f_I, f_J = _integrands(antid, ks, sp)
    peak = max(float(f_I(alpha)), 1e-300)
    hi = alpha
    for _ in range(400):
        hi *= 1.6
        if hi > antid.x_hi * 0.9:
            antid = Antiderivatives(ks, x_lo=min(alpha, 1.0) * 1e-3, x_hi=hi * 1e3)
            f_I, f_J = _integrands(antid, ks, sp)
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


def v_lambda_diagnostics(sp: SpectralParams, ks: KernelSet,
                         eps_range: tuple[float, float] = (1e-1, 1e-5)) -> list[ReportRow]:
    """Certify that the homogeneous resolvent solution is inadmissible.

    Unreachable origin: the truncated weighted integral of v_lambda grows
    without bound as the cutoff shrinks.  The 'resolvent' rows are the
    log-log rate of that growth (`v-lambda-divergence`, > 0) and the number
    of cutoffs at which the integral did not grow (`v-lambda-monotone`,
    <= 0).  Reachable origin: r*v_lambda has a nonzero limit at 0+, which
    violates the homogeneous boundary condition; one row reports it at the
    smallest cutoff (`v-lambda-boundary`, > 0).
    """
    if ks.r.is_zero:
        raise ParameterDomainError("v_lambda diagnostics need a positive growth rate")
    antid = Antiderivatives(ks, x_lo=eps_range[1] * 1e-2, x_hi=10.0)
    eps = np.geomspace(eps_range[0], eps_range[1], 9)
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
