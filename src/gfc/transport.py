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
R is exact; Q = F(R) is tabulated once per `Antiderivatives`, on one lattice
in log x through x = 1, and read through the transport's cubic Hermite basis
with the slopes F' = q, so every caller reads the same Q at the same size.

`transport_apply` reads the field at the backward feet through its PCHIP
interpolant.  Everything that depends only on the antiderivatives, the grid,
the step t and whether absorption is included is a transport plan, built
once per (grid, t) and kept on the `Antiderivatives` instance.  Every point
the plan reads, the feet and then the escape quadrature nodes, lies in an
interval k of the cell centers, and the cubic Hermite piece there is
W0*y[k] + W1*y[k+1] + W2*d[k] + W3*d[k+1], with the Hermite basis at the
point's offset as weights.  The plan folds into them what multiplies the
value read: r(x0)/r(x)*exp(-dQ) and the `inside` mask at a foot, the
attenuation and width at an escape node.  A call then computes only the
PCHIP slopes d, bit for bit SciPy's (`_TransportPlan.slopes` says where
its operations differ), into the second half of one buffer [y | d], and
the four-term sum over one gather of that buffer at the plan's (4, points)
columns.  The sum rounds in another order than SciPy's PPoly, so the
values agree with SciPy's PCHIP interpolant built per call to a few units
of roundoff, not bit for bit.
Where characteristics converge (r(x0) > r(x), only under a falling growth
table) the flux r*f is then capped by its larger value at the two centers
around the foot; on a nondecreasing rate nothing is capped.
A plan also transports a stack of fields in one call, values (rows, cells)
and escaped mass (rows,), as the Picard wavefront advances its iterations:
the slopes, the sum and the cap work on the last axis, and the escaped
mass is summed row by row, so every row comes out bit-identical to
transporting that field alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import PchipInterpolator   # only benchmarks/spans.py reads it here

from .grid import DensityField, SizeGrid, WeightSpec, weighted_integral
from .kernels import REACHABLE, UNREACHABLE, KernelSet, ReportRow, _quad_intervals

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
# 25 on either side of 1.  The Hermite read is only C^1 at a lattice point; at 100
# per decade gfc-global-ii's integral-bounds quadratures read Q at 17% more points.
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


def _hermite_weights(centers: np.ndarray, pts: np.ndarray,
                     scale) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Interval k of each point and the weights W, each times `scale`, with
    which the cubic Hermite piece on [centers[k], centers[k+1]] reads
    W[0]*y[k] + W[1]*y[k+1] + W[2]*d[k] + W[3]*d[k+1] at the point.

    Interval k holds centers[k] <= p < centers[k+1], the last one closed on
    the right, as SciPy's PPoly finds it.  At tau = (p - centers[k])/h the
    weights are the Hermite basis H00 = (1 + 2 tau)(1 - tau)^2,
    H01 = tau^2 (3 - 2 tau), h*H10 = h tau (1 - tau)^2 and h*H11 = -h tau^2 (1 - tau),
    with tau clipped to [0, 1]: a point past the last center reads y[n-1],
    and a point below the first one must have a zero scale.
    """
    # minimum and maximum, as np.clip, but without its per-call dtype checks
    k = np.minimum(np.maximum(np.searchsorted(centers, pts, side="right") - 1, 0),
                   centers.size - 2)
    h = centers[k + 1] - centers[k]
    tau = np.minimum(np.maximum((pts - centers[k]) / h, 0.0), 1.0)
    tau2, rest = tau * tau, 1.0 - tau
    rest2 = rest * rest
    basis = ((1.0 + 2.0 * tau) * rest2, tau2 * (3.0 - 2.0 * tau),
             h * tau * rest2, -h * tau2 * rest)
    return k, tuple(b * scale for b in basis)


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
    never builds it, at the lattice points x_k = 10^(k/200), x_0 = 1: dQ =
    q dR, so each interval is a 10-point Gauss rule in R at the exact nodes
    x = R^-1(R), chained outward from x = 1, and Q(x) is the cubic Hermite
    in R through (R_k, Q_k) with the slopes q(x_k).  The table grows by
    blocks to the sizes queried, and Q at a size does not depend on how far
    it reaches.
    """

    def __init__(self, ks: KernelSet):
        r = ks.r
        if r.is_zero:
            raise ParameterDomainError("antiderivatives need a positive growth rate")
        self.growth = r
        self._q = ks.q
        # Q's table grows by blocks to reach the sizes queried, not per argument
        self._Q_blocks, self._Q_span = (0, 0), (math.inf, -math.inf)
        self._transport_plan = None   # one slot: the laplace check reads 256 distinct t

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
        """Grow Q's table by whole blocks to a step past each size x (log10 rounds)."""
        with np.errstate(divide="ignore"):
            k = Q_STEPS_PER_DECADE * np.log10(np.where(x > 0, x, 0.0))   # -inf if x <= 0 or NaN
        need = np.ceil((np.ceil(np.abs(k)) + 1.0) / Q_BLOCK)   # blocks on x's side of 1
        if (need > Q_MAX_BLOCKS).any():
            edge = Q_MAX_BLOCKS * Q_BLOCK // Q_STEPS_PER_DECADE
            raise ParameterDomainError(f"Q is tabulated for sizes inside 1e-{edge} .. 1e{edge}, "
                                       f"not at size {x[need > Q_MAX_BLOCKS].flat[0]:g}")
        n_lo, n_hi = self._Q_blocks = tuple(int(max(n, need[side].max(initial=1))) for n, side
                                            in zip(self._Q_blocks, (k < 0, k >= 0)))
        lattice = 10.0 ** (np.arange(-n_lo * Q_BLOCK, n_hi * Q_BLOCK + 1) / Q_STEPS_PER_DECADE)
        self._Q_span = lattice[0], lattice[-1]
        R = self.R(lattice)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        mid, half = 0.5 * (R[1:] + R[:-1]), 0.5 * (R[1:] - R[:-1])
        # dQ = q dR: the nodes in R, mapped to x and kept in their interval
        pts = np.clip(self.R_inverse(mid + half * nodes[:, None]), lattice[:-1], lattice[1:])
        vals = self._q(pts)
        # node by node, so an interval's sum does not depend on the table's extent
        seg = half * sum(w * v for w, v in zip(weights, vals))
        one = n_lo * Q_BLOCK
        Q = np.concatenate([-np.cumsum(seg[one - 1::-1])[::-1], [0.0], np.cumsum(seg[one:])])
        # the end slopes over dQ; the cubic is monotone while neither exceeds 3/h, three
        # times the secant (Fritsch-Carlson), clamped where q changes 3-fold in one interval
        dQ, q = np.diff(Q), self._q(lattice)
        with np.errstate(all="ignore"):
            a, b = (np.where(dQ > 0, np.minimum(s / dQ, 1.5 / half), 0.0) for s in (q[:-1], q[1:]))
        self._Q_table = R, Q, dQ, a, b

    def Q(self, x):
        """F(R(x)) as Q_k + dQ_k*(H01 + h*H10*a_k + h*H11*b_k), a and b the end
        slopes over dQ_k: a monotone factor times dQ_k, so Q does not decrease
        in floating point either, not even on a flat or subnormal stretch."""
        x = np.asarray(x, dtype=float)
        lo, hi = self._Q_span
        if not ((x >= lo) & (x <= hi)).all():
            self._tabulate_Q(x)
        R, Q, dQ, a, b = self._Q_table
        k, (_, w1, w2, w3) = _hermite_weights(R, self.R(x), 1.0)
        return Q[k] + dQ[k] * (w1 + w2 * a[k] + w3 * b[k])


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


_ENDS = np.array([0, 1, -2, -1])   # the end secants and their neighbours


def _end_slope(m0: float, m1: float, w: float, h0: float, hs: float) -> float:
    """Moler's three-point end slope, set to 0 where its sign is not that of
    the end secant m0 and clamped to 3*m0 where it exceeds 3|m0|.  The signs
    compare as np.sign's do: a NaN slope, which only an infinite or
    overflowing nonzero m0 makes, reads as sign 0 and so differs too."""
    e = (w * m0 - h0 * m1) / hs
    if (e > 0) - (e < 0) != (m0 > 0) - (m0 < 0):
        return 0.0
    return 3.0 * m0 if abs(e) > 3.0 * abs(m0) else e


class _TransportPlan:
    """What `transport_apply` needs that depends only on (antid, grid, t,
    include_absorption), as listed in the module docstring; `apply`
    transports one field, or a stack of them along the last axis, with it."""

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
            self.ends = (2 * h0 + h1).tolist(), h0.tolist(), (h0 + h1).tolist()

        r = antid.growth
        x0 = r_inverse_clipped(antid, antid.R(c) - t)
        inside = x0 >= c[0]
        pts = np.where(inside, x0, 1.0)
        Q0, Qc = antid.Q(np.stack([pts, c])) if include_absorption else np.zeros((2, c.size))
        r0, rx, att = r(pts), r(c), np.exp(Q0 - Qc)
        # the value read at a foot is carried as r(x0)/r(x)*exp(-dQ) times it
        scale = np.where(inside, r0 / rx * att, 0.0)
        # where characteristics converge r(x0)/r(x) > 1 scales the value read
        # at the foot, and compounds on a cell where the flow stalls; the exact
        # flux r*f is only carried and attenuated, so it is capped there
        conv = np.flatnonzero(inside & (r0 > rx))
        cap_att, self.rx = att[conv] / rx[conv], rx

        # parcels crossing xmax during (0, t) have size exactly xmax there; the
        # stretch between the last center and xmax carries the last cell's average
        self.escape = None
        yc = r_inverse_clipped(antid, antid.R(grid.xmax) - t)
        if yc < grid.xmax:
            lo = max(float(yc), c[0])
            edges = grid.edges[(grid.edges > lo) & (grid.edges < grid.xmax)]
            nodes = np.unique(np.concatenate([[lo], edges, [grid.xmax]]))
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            Q = (antid.Q(np.append(mids, grid.xmax)) if include_absorption
                 else np.zeros(mids.size + 1))
            att = np.exp(-(Q[-1] - Q[:-1]))
            # the nodes follow the feet, from column n on, weighted by their
            # attenuation and width
            pts, scale = np.concatenate([pts, mids]), np.concatenate([scale, att * np.diff(nodes)])
            self.escape = slice(grid.cells, None)
        k, weights = _hermite_weights(c, pts, scale)
        # the columns of y[k], y[k+1], d[k], d[k+1] in the buffer [y | d]
        n = grid.cells
        self.columns = np.stack([k, k + 1, k + n, k + n + 1])
        self.weights = np.stack(weights)
        self.converge = (conv, k[conv], cap_att)

    def matches(self, grid: SizeGrid, t: float, include_absorption: bool) -> bool:
        return (grid is self.grid and t == self.t
                and include_absorption == self.include_absorption)

    def slopes(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """PCHIP slopes at the centers, for each row of y, into `out` if given:
        SciPy's `_find_derivatives` operation for operation (the two end
        slopes in Python floats), so zero where the secant slopes change sign
        or vanish, their weighted harmonic mean otherwise, and Moler's
        shape-preserving three-point formula at both ends.  An end slope e
        that keeps the sign of its secant m0 is clamped to 3*m0 where
        |e| > 3|m0|; SciPy also asks that the next secant m1 change sign, but
        with m0 and m1 of one sign e = m0 + h0(m0 - m1)/(h0 + h1) lies within
        2|m0|, so that test never decides.  (It would where the product
        (2*h0 + h1)*m0 overflows, a field whose neighbours differ by some
        1e308 times a cell width.)"""
        d = np.empty_like(y) if out is None else out
        mk = y[..., 1:] - y[..., :-1]
        mk /= self.h
        if self.grid.cells == 2:
            d[...] = mk
            return d
        smk = np.sign(mk)
        flat = smk[..., 1:] * smk[..., :-1] <= 0
        inner = d[..., 1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = self.w1 / mk[..., :-1]
            whmean += self.w2 / mk[..., 1:]
            whmean /= self.w12
            np.divide(1.0, whmean, out=inner)
        inner[flat] = 0.0
        # the two end slopes of each row, in Python floats: the same IEEE
        # operations as NumPy's, without its per-call cost on two values each
        (w0, w1), (h0, h1), (s0, s1) = self.ends
        d[..., ::self.grid.cells - 1] = np.reshape(
            [(_end_slope(m0, m1, w0, h0, s0), _end_slope(n0, n1, w1, h1, s1))
             for m0, m1, n1, n0 in mk.take(_ENDS, axis=-1).reshape(-1, 4).tolist()],
            d.shape[:-1] + (2,))
        return d

    def apply(self, f0: DensityField) -> DensityField:
        y = f0.values
        if not np.isfinite(y).all():
            raise ValueError("transport needs a finite field")
        n = self.grid.cells
        yd = np.empty(y.shape[:-1] + (2 * n,))
        yd[..., :n] = y
        self.slopes(y, out=yd[..., n:])
        terms = yd.take(self.columns, axis=-1)
        terms *= self.weights
        p = terms[..., 0, :] + terms[..., 1, :]
        p += terms[..., 2, :]
        p += terms[..., 3, :]
        vals = p[..., :n]
        conv, j, cap_att = self.converge
        if conv.size:
            flux = y * self.rx
            cap = np.maximum(flux.take(j, axis=-1), flux.take(j + 1, axis=-1)) * cap_att
            vals[..., conv] = np.minimum(vals.take(conv, axis=-1), cap)
        esc = 0.0
        if self.escape is not None:
            terms = p[..., self.escape]
            esc = self.grid.xmax * (math.fsum(terms.tolist()) if terms.ndim == 1 else
                                    np.array([math.fsum(row) for row in terms.tolist()]))
        return DensityField(self.grid, vals, f0.escaped_mass + esc)


def transport_apply(f0: DensityField, t: float, ks: KernelSet, m: float,
                    antid: Optional[Antiderivatives],
                    include_absorption: bool = True) -> DensityField:
    """Exact characteristic solution of the transport-absorption equation.

    r(X)*f(X, t) = r(x0)*f0(x0)*exp(-(Q(X) - Q(x0))) along X = X(t; x0), with
    zero inflow at the origin when backward characteristics reach it.  Mass
    advected past xmax is added to the escaped-mass account using the exact
    crossing-size bookkeeping (every particle crosses at size xmax).

    f0 is read at the feet through its shape-preserving PCHIP interpolant,
    zero outside the centers: PCHIP does not overshoot the local data range,
    so nonnegative cell values stay nonnegative, and it is third order on
    smooth data.  The plan for (grid, t, include_absorption) is kept in a
    one-slot memo on `antid`, None without growth, so a fixed-step stepper
    builds it once; each call then costs SciPy's PCHIP slopes and the plan's
    four-term Hermite sum (see the module docstring).  f0 may be a stack of
    fields (see `DensityField`); each row is transported as it would be
    alone.
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

    plan = antid._transport_plan
    if plan is None or not plan.matches(grid, t, include_absorption):
        plan = antid._transport_plan = _TransportPlan(antid, grid, t, include_absorption)
    return plan.apply(f0)


def make_antiderivatives(ks: KernelSet, grid: SizeGrid) -> Antiderivatives:
    """The kernel set's antiderivatives; Q's lattice does not depend on the grid."""
    return Antiderivatives(ks)


def transport_norms(ks: KernelSet, grid: SizeGrid, m: float, times,
                    antid: Optional[Antiderivatives]) -> np.ndarray:
    """Norm of the transport-absorption semigroup on the untruncated
    (1 + x^m)-weighted space at each of `times`: it carries a point mass at y
    to one at X_t(y) scaled by exp(-(Q(X) - Q(y))), so its norm is the sup
    over y of w(X) exp(-(Q(X) - Q(y))) / w(y), taken at the grid's edges and
    centers."""
    y = np.concatenate([grid.edges, grid.centers])
    t = np.asarray(times, dtype=float)[:, None]
    if ks.r.is_zero:
        return np.max(np.exp(-ks.q(y) * t), axis=1)
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
                    antid: Optional[Antiderivatives]) -> DensityField:
    """Explicit resolvent applied to a grid density by cumulative quadrature.

    The running integral is carried in log space relative to the current
    cell, so only exponentials of nonpositive arguments are ever formed.
    """
    grid = g.grid
    x = grid.centers

    if ks.r.is_zero:
        # multiplication semigroup: the resolvent is pointwise division
        return DensityField(grid, g.values / (sp.lam + ks.q(x)))

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
                   antid: Optional[Antiderivatives]) -> float:
    """Exact norm of `resolvent_apply` on the (1 + x^m)-weighted space of the
    grid: the map is positive and linear, so its norm is its largest column,
    the norm of the image of a unit-norm density in one cell.  With
    v = w*dx/r, column j is (lower_j*T_j + upper_j*T_{j+1}) / (w_j*dx_j) for
    the reverse recurrence T_j = v_j + exp(shift_j)*T_{j+1}."""
    x, dx = grid.centers, grid.widths
    if ks.r.is_zero:
        return float(np.max(1.0 / (sp.lam + ks.q(x))))
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

RESOLVENT_PANEL_V = 4.0   # the width in v of the I and J panels: e^(-v) falls 55-fold over one


def resolvent_integral_bounds(alpha: float, lam: float, m: float, ks: KernelSet,
                              antid: Antiderivatives) -> list[ReportRow]:
    """Check the weighted tail integrals behind the resolvent estimate.

    I(alpha, inf) <= exp(-lambda R(alpha)) w_m(alpha) / (lambda - omega) and
    the analogous bound for J with the extra exp(-Q) factor and a factor
    lambda; one 'integral-bounds' row each, named I and J.  Both sides are
    divided by I's exp(-lambda R(alpha)) or J's exp(-lambda R(alpha) - Q(alpha)),
    so no exponential read past alpha exceeds 1 (at alpha = 1 both are 1).
    Both integrals are taken in v = lambda (R(s) - R(alpha)), where ds/r =
    dv/lambda cancels the 1/r: I = int_0^inf e^(-v) w(s) dv / lambda, so a
    rate that is small at alpha, whose integrand in s is a spike r/lambda
    wide, is resolved by the same fixed panels as any other.  J is taken by
    parts, J = w(alpha) + int_0^inf e^(-v - (Q(s) - Q(alpha))) w'(s) r(s) dv
    / lambda: its integrand is at most omega times I's (w' r <= omega w),
    and Q enters only as a falling factor, so a fast absorption q >> lambda,
    whose factor lambda + q is a spike in v, adds none.  Along the
    characteristic w(s) grows at most like e^(v omega / lambda), as
    r <= rtilde (1 + s), so the integrals are truncated at
    V = ln(1e14) lambda / (lambda - omega), where that bound puts I's
    integrand below 1e-14 of its value at alpha, and the tail estimate
    e^(-V) w(s(V)) / (lambda - omega) (times lambda e^(-(Q(s(V)) - Q(alpha)))
    for J) is added so the check stays conservative.
    """
    if alpha <= 0:
        raise ParameterDomainError("lower limit alpha must be positive")
    sp = SpectralParams.for_kernels(ks, m, lam)
    w = WeightSpec(m, "shifted")
    R_a, Q_a, w_a = float(antid.R(alpha)), float(antid.Q(alpha)), float(w(alpha))
    gap = sp.lam - sp.omega

    def size(v):   # the characteristic from alpha, at v = lambda (R(s) - R(alpha))
        return antid.R_inverse(R_a + v / sp.lam)

    def f_IJ(v):   # the scaled integrands of I and J in v, stacked, from one s
        s, e = size(v), np.exp(-v) / sp.lam
        dw_r = sp.m * s ** (sp.m - 1.0) * ks.r(s)   # w'(s) r(s)
        return np.stack([e * w(s), e * np.exp(-(antid.Q(s) - Q_a)) * dw_r])

    V = math.log(1e14) * sp.lam / gap
    cuts = np.linspace(0.0, V, math.ceil(V / RESOLVENT_PANEL_V) + 1)
    I_panels, J_panels = _quad_intervals(f_IJ, cuts[:-1], cuts[1:], epsabs=1e-13, epsrel=1e-10)
    s_V = size(V)
    tail = math.exp(-V) * float(w(s_V)) / gap
    I_val = float(np.sum(I_panels)) + tail
    J_val = w_a + float(np.sum(J_panels)) + sp.lam * math.exp(-(float(antid.Q(s_V)) - Q_a)) * tail
    scaled = "both sides times exp(lambda R(alpha)"
    return [ReportRow("integral-bounds", name, val, "<=", bnd, 1e-9 * bnd, detail=detail)
            for name, val, bnd, detail in (
                ("I", I_val, w_a / gap, scaled + ")"),
                ("J", J_val, sp.lam * w_a / gap, scaled + " + Q(alpha))"))]


# ---------------------------------------------------------------------------
# the singular solution v_lambda


V_LAMBDA_CUTOFFS = (1e-1, 1e-5)   # the largest and smallest cutoff of the v_lambda sweep


def v_lambda_diagnostics(sp: SpectralParams, ks: KernelSet,
                         antid: Antiderivatives) -> list[ReportRow]:
    """Certify that the homogeneous resolvent solution is inadmissible.

    Unreachable origin: the truncated weighted integral of v_lambda grows
    without bound as the cutoff shrinks.  The 'resolvent' rows are the
    log-log rate of that growth (`v-lambda-divergence`, > 0) and the number
    of cutoffs at which the integral did not grow (`v-lambda-monotone`,
    <= 0).  Reachable origin: r*v_lambda has a nonzero limit at 0+, which
    violates the homogeneous boundary condition; one row reports its log,
    -lambda*R - Q, at the smallest cutoff (`v-lambda-boundary`, > -inf):
    finite exactly when the limit is positive, where the limit itself may
    overflow or underflow.
    """
    eps = np.geomspace(*V_LAMBDA_CUTOFFS, 9)
    w = WeightSpec(sp.m, "shifted")
    cutoffs = f"lambda = {sp.lam:g}, cutoffs {eps[0]:g} .. {eps[-1]:g}"

    if ks.r.origin_class == UNREACHABLE:
        def vw(s):
            return np.exp(-sp.lam * antid.R(s) - antid.Q(s)) / ks.r(s) * w(s)

        # the 29 geometric panels of every cutoff, all in one vector quadrature
        cuts = np.geomspace(eps, 1.0, 30, axis=1)
        vals = np.sum(_quad_intervals(vw, cuts[:, :-1], cuts[:, 1:], geometric=True,
                                      epsabs=1e-12, epsrel=1e-9), axis=1)
        # late-end slope of log T against log(1/eps)
        tail = slice(len(eps) // 2, None)
        slope = float(np.polyfit(np.log(1.0 / eps[tail]), np.log(vals[tail]), 1)[0])
        return [
            ReportRow("resolvent", "v-lambda-divergence", slope, ">", 0.0,
                      detail=f"log-log rate of the truncated weighted integral; {cutoffs}"),
            ReportRow("resolvent", "v-lambda-monotone", float(np.sum(np.diff(vals) <= 0)),
                      "<=", 0.0, detail="cutoffs at which the truncated integral did not grow"),
        ]

    log_limit = float(-sp.lam * antid.R(eps[-1]) - antid.Q(eps[-1]))
    return [ReportRow("resolvent", "v-lambda-boundary", log_limit, ">", -math.inf,
                      detail=f"log of r*v_lambda at the smallest cutoff; {cutoffs}")]


# ---------------------------------------------------------------------------
# semigroup / resolvent consistency


def laplace_consistency(g: DensityField, sp: SpectralParams, ks: KernelSet,
                        antid: Optional[Antiderivatives], tmax: float,
                        n_time: int = 257) -> float:
    """Relative gap between the Laplace transform of the semigroup and the resolvent.

    Composite Simpson in time of exp(-lambda t) * S(t) g against
    resolvent_apply, in the (1 + x^m)-weighted norm.
    """
    if math.exp((sp.omega - sp.lam) * tmax) > 1e-6:
        raise ParameterDomainError("tmax too small for the Laplace tail to be negligible")
    ts = np.linspace(0.0, tmax, n_time | 1)   # composite Simpson takes an odd count
    acc = simpson([math.exp(-sp.lam * t) * transport_apply(g, float(t), ks, sp.m, antid).values
                   for t in ts], dx=ts[1], axis=0)
    res = resolvent_apply(g, sp, ks, antid)
    diff = DensityField(g.grid, np.abs(acc - res.values))
    wnorm = WeightSpec(sp.m, "shifted")
    denom = weighted_integral(DensityField(g.grid, np.abs(res.values)), wnorm)
    if denom == 0:
        return 0.0
    return weighted_integral(diff, wnorm) / denom
