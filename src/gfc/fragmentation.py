"""Sectional fragmentation operator with exact discrete mass conservation.

The gain integral over parents is collapsed onto the grid through a daughter
matrix whose columns are renormalized so that every parent's fragment mass
lands exactly (to rounding) on the grid.  Mass-conservation errors would
otherwise masquerade as model dynamics.

For the power-law daughter (uniform-binary is nu = 0), Phi_0(u) = c0*u^p with
p = nu + 1, so a daughter cell i strictly below parent j receives
c0*(e_{i+1}^p - e_i^p)*x_j^-p: the matrix is diag(d) + strictly-upper(u v^T)
plus the row-0 lump of fragment mass below xmin, e_0 lump^T, and every entry
is a product of nonnegative factors.  It is built and applied in O(n) from
those factors; the dense matrix is made only if something reads it.  A table
daughter does not factor; it is the one dense branch, applied one mat-vec per
row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import DensityField, SizeGrid, moment
from .kernels import DaughterDistribution, KernelConfigError, KernelSet, ReportRow

__all__ = [
    "DaughterMatrix",
    "build_daughter_matrix",
    "apply_frag",
    "daughter_gain",
    "fold_sink",
    "below_x0",
    "frag_moment_identity",
    "fragmentation_constants",
]


@dataclass
class DaughterMatrix:
    """w[i, j] ~ b(x_i, x_j) * width_i for daughters i of parents j (i <= j).

    Column j satisfies sum_i x_i w[i, j] = x_j exactly after renormalization.
    A power-law daughter keeps `factors` (d, u, v, lump), with
    w = diag(d) + strictly-upper(u v^T) + e_0 lump^T (u has n - 1 entries);
    `w` is then materialised only when read, into `dense`.  A table daughter
    has no factors and `dense` is its matrix.
    """

    grid: SizeGrid
    factors: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
    dense: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def w(self) -> np.ndarray:
        if self.dense is None:
            d, u, v, lump = self.factors
            w = np.triu(np.outer(np.append(u, 0.0), v), k=1)
            w[np.diag_indices(self.grid.cells)] = d
            w[0] += lump
            self.dense = w
        return self.dense

    def column_moment(self, m: float) -> np.ndarray:
        """Discrete n_m at each parent size: sum_i x_i^m w[i, j]."""
        xm = np.power(self.grid.centers, m)
        if self.factors is None:
            return xm @ self.dense
        d, u, v, lump = self.factors
        below = np.concatenate([[0.0], np.cumsum(xm[:-1] * u)])
        return xm * d + v * below + xm[0] * lump


def build_daughter_matrix(b: DaughterDistribution, grid: SizeGrid) -> DaughterMatrix:
    if b.kind == "table":
        return DaughterMatrix(grid, dense=_dense_daughter_matrix(b, grid))
    x, e = grid.centers, grid.edges
    # with Phi_0(u) = c0 u^p, cell i < j gets Phi_0(e_{i+1}/x_j) - Phi_0(e_i/x_j)
    # = u_i v_j and the parent's own cell Phi_0(1) - Phi_0(e_j/x_j) = d_j;
    # expm1/log1p keep these differences of nearly equal powers accurate as
    # p -> 0.  Sizes are measured from the grid's geometric middle, so each
    # factor stays within exp(+-650) of 1, inside the float range
    p, c0 = b.nu + 1.0, b.number_of_daughters()
    mid = math.sqrt(grid.xmin * grid.xmax)
    if p * math.log(grid.xmax / grid.xmin) > 1300.0:
        raise KernelConfigError(f"power-law daughter nu = {b.nu} spans more than the "
                                f"float range on [{grid.xmin}, {grid.xmax}]")
    u = c0 * np.power(e[:-2] / mid, p) * np.expm1(p * np.log1p(grid.widths[:-1] / e[:-2]))
    d = -c0 * np.expm1(p * np.log1p((e[:-1] - x) / x))
    v = np.power(mid / x, p)
    # fragment mass below the grid is lumped into the smallest cell, which
    # keeps the mass budget closed
    lump = b.partial_mass(x, grid.xmin) / x[0]
    renorm = x / DaughterMatrix(grid, (d, u, v, lump)).column_moment(1.0)
    return DaughterMatrix(grid, (d * renorm, u, v * renorm, lump * renorm))


def _dense_daughter_matrix(b: DaughterDistribution, grid: SizeGrid) -> np.ndarray:
    x = grid.centers
    # exact per-cell daughter counts: w_ij = int over cell i of b(., x_j);
    # the integral saturates at the parent size, so cells above it get nothing
    w = np.diff(b.partial_number(x[None, :], grid.edges[:, None]), axis=0)
    w[0, :] += b.partial_mass(x, grid.xmin) / x[0]

    # with u = xmin/x_j a column's mass is at least x_j*Phi_1(u) + xmin*(Phi_0(1)
    # - Phi_0(u)), which is positive because a table daughter has Phi_1(1) > 0
    w *= x / (x @ w)
    return w


def neglected_gain_estimate(ks: KernelSet, grid: SizeGrid, escaped_mass: float) -> float:
    """Crude rate indicator for the fragmentation gain lost to truncation.

    Parents that left through xmax would keep fragmenting; their daughter
    production rate, n0 * a(xmax) * (escaped count at the crossing size),
    indicates how much source the truncated domain is missing.
    """
    if escaped_mass <= 0.0 or ks.a.is_zero:
        return 0.0
    count = escaped_mass / grid.xmax
    return ks.b.number_of_daughters() * float(ks.a(grid.xmax)) * count


def daughter_gain(dm: DaughterMatrix, parent_amounts: np.ndarray) -> np.ndarray:
    """Fragment gain density from per-cell parent number amounts (value*width).

    Conserves sum_j x_j * amount_j exactly by construction.  A (rows, cells)
    stack gives each row bit for bit what its one-field call gives: the
    factored gain d*A + u*(suffix sum of v*A past i) + e_0*sum(lump*A) runs
    along the last axis only, and a table daughter's dense matrix is applied
    one mat-vec per row, since a mat-mat product sums in another order.
    """
    if dm.factors is None:
        if parent_amounts.ndim == 2:
            return np.stack([dm.dense @ row for row in parent_amounts]) / dm.grid.widths
        return (dm.dense @ parent_amounts) / dm.grid.widths
    d, u, v, lump = dm.factors
    tail = np.cumsum((v * parent_amounts)[..., ::-1], axis=-1)[..., ::-1]
    out = d * parent_amounts
    out[..., :-1] += u * tail[..., 1:]
    out[..., 0] += np.add.reduce(lump * parent_amounts, axis=-1)
    return out / dm.grid.widths


def fold_sink(dm: DaughterMatrix, col: np.ndarray, diag: np.ndarray) -> DaughterMatrix:
    """The daughter matrix dm*diag(col) + diag(diag), so that `daughter_gain`
    of the fold at g is diag*g/widths + daughter_gain(dm, col*g).  A factored
    daughter folds to (d*col + diag, u, v*col, lump*col), a table daughter to
    its dense matrix with column j scaled by col_j and diag added on the
    diagonal; with col, diag >= 0 every entry stays a nonnegative product."""
    if dm.factors is None:
        w = dm.dense * col
        w[np.diag_indices(dm.grid.cells)] += diag
        return DaughterMatrix(dm.grid, dense=w)
    d, u, v, lump = dm.factors
    return DaughterMatrix(dm.grid, (d * col + diag, u, v * col, lump * col))


def apply_frag(f: DensityField, ks: KernelSet, dm: DaughterMatrix) -> DensityField:
    """Fragmentation rate field: loss -a*f plus daughter gain.

    The first moment of the result is zero to rounding for any input.
    """
    a = ks.a(f.grid.centers)
    gain = daughter_gain(dm, a * f.values * f.grid.widths)
    return DensityField(f.grid, gain - a * f.values)


def below_x0(ks: KernelSet) -> np.ndarray:
    """The sizes at which a supremum over [0, x0] of the fragmentation rate
    (times a weight) is sampled: 200 points from 1e-6*x0 to x0."""
    return np.linspace(ks.a.x0 * 1e-6, ks.a.x0, 200)


def fragmentation_constants(ks: KernelSet, i: float) -> tuple[float, float, float]:
    """Surrogates (delta'_i, delta_i, nu_i) for the fragmentation sink estimate.

    delta'_i = N_i(y)/y^i = 1 - Phi_i(1) at every parent size y, the daughter
    law being homogeneous; delta_i scales it by the lower-bound amplitude a0,
    and nu_i = delta_i * sup a on [0, x0], sampled at `below_x0`, mirrors the
    constant produced by splitting the sink integral at x0.
    """
    delta_p = 1.0 - float(ks.b.shape_integral(i, 1.0))
    delta = delta_p * ks.a.a0
    nu = delta * float(np.max(ks.a(below_x0(ks))))
    return delta_p, delta, nu


def frag_moment_identity(f: DensityField, ks: KernelSet,
                         dm: DaughterMatrix) -> list[ReportRow]:
    """The 'frag-identities' rows: mass neutrality of F f, and for i = 0, 1, 2
    sum x^i (Ff) against the moment-sink form -sum N_i a f.

    Both sides of an identity use the same discretization, so they agree to
    rounding.  For i > 1 a further row checks the sink estimate
    sum x^i (Ff) <= -delta_i ||f||_[i+gamma0] + nu_i ||f||_[i] with the
    computed surrogates, up to a rounding tolerance 1e-12 |estimate|.
    """
    if ks.a.is_zero:
        return [ReportRow("frag-identities", "mass", detail="fragmentation disabled")]
    grid = f.grid
    x, widths = grid.centers, grid.widths
    a = ks.a(x)
    ff = apply_frag(f, ks, dm)
    gross = moment(DensityField(grid, np.abs(ff.values)), 1.0) + 1e-300
    rows = [ReportRow("frag-identities", "mass-neutral", abs(moment(ff, 1.0)) / gross,
                      "<=", 1e-12)]
    for i in (0.0, 1.0, 2.0):
        xi = np.power(x, i)
        lhs = float(np.sum(xi * ff.values * widths))
        rhs = -float(np.sum((xi - dm.column_moment(i)) * a * f.values * widths))
        scale = max(abs(lhs), abs(rhs), float(np.sum(xi * a * np.abs(f.values) * widths)), 1e-300)
        rows.append(ReportRow("frag-identities", f"moment-{i:g}", abs(lhs - rhs) / scale,
                              "<=", 1e-11))
        if i > 1:
            _, delta, nu = fragmentation_constants(ks, i)
            bound = -delta * moment(f, i + ks.a.gamma0) + nu * moment(f, i)
            rows.append(ReportRow("frag-identities", f"sink-estimate-{i:g}", lhs, "<=", bound,
                                  1e-12 * abs(bound), f"delta_i={delta:.6g}, nu_i={nu:.6g}"))
    return rows
