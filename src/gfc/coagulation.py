"""Pair-based conservative discretization of binary coagulation.

Every source pair (i, j) produces merged mass at s = x_i + x_j, split between
the two cell centers bracketing s with weights that reproduce s exactly as
the weighted average.  Pairs whose product lands beyond the last center are
split between the last cell and a virtual node at xmax whose share is routed
to the escaped-mass account, and pairs beyond xmax escape entirely, so the
discrete mass budget closes to rounding.

The kernel is symmetric, so only the n(n+1)/2 pairs i <= j are listed.  The
splitting weights and the pair factor 0.5*k(x_i, x_j)*(2 - delta_ij) are
folded once, at set-up, into a sparse gain operator keyed by partner: its
rows are the (j, t) of larger index j and target t (a cell, or the escape
row that collects the rate of mass routed past xmax), its columns the
smaller index i.  The gain into t is sum_j a_j sum_i G[(j, t), i] a_i with
a = f*dx, so one application is a sparse mat-vec over n(n+1) entries, two
per pair, a scaling of the rows by a_j and a bincount onto the targets;
nothing of pair length is gathered or allocated, and every term is a sum
of nonnegative products.
The loss frequency sum_j k(x_i, x_j) a_j goes through the kernel's factors
(`CoagulationKernel.loss_factors`): O(n) for the closed forms, of rank <= 2,
O(n * knots) for a table.  The gain is still O(cells^2): about 0.5 ms per
application at 512 cells on a 2-CPU Xeon.  This is the fixed-pivot pair
splitting of Kumar & Ramkrishna, Chem. Eng. Sci. 51 (1996).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .grid import DensityField, SizeGrid
from .kernels import CoagulationKernel, ReportRow

__all__ = [
    "CoagTables",
    "build_coag_tables",
    "apply_coag",
    "apply_coag_beta",
    "coag_loss_rate",
    "coag_moment_identity",
]


@dataclass
class CoagTables:
    """Pair kernel values, splitting targets and the folded gain operator.

    `kernel` is the full symmetric (n, n) matrix of k(x_i, x_j), and the
    product ``loss_u @ loss_w`` of an (n, r) and an (r, n) factor
    (`CoagulationKernel.loss_factors`): r <= 2 for a closed form, the knots
    for a table, so the loss term costs O(n * r).  `idx_lo` to `interior`
    hold one entry per pair i <= j, in row-major upper-triangle order (the
    order of ``np.triu_indices(n)``).

    `gain` is the (rows, n) CSC operator.  Row r stands for partner
    ``row_partner[r]`` = j and target ``row_target[r]`` = t, a cell or n for
    the escape row; partner j's rows are one contiguous run of cells and
    then, if any of its pairs leaves the interior, its escape row.  Column i
    holds, for every pair (i, j), 0.5*k*(2 - delta_ij) times the pair's
    number weights in rows (j, lower target) and (j, upper target), or its
    escape coefficient in row (j, escape).  So
    ``bincount(row_target, (gain @ a) * a[row_partner])`` is the number gain
    per cell followed by the escaped-mass rate.  Every pair stores two
    entries, n(n+1) in all, so a mat-vec reads about 12 bytes (value and
    int32 row) per entry; a pair beyond xmax keeps an explicit zero in row
    (j, n - 1) in place of its lower target.  Nothing in the tables is
    written after set-up, so calls that share them are reentrant.
    """

    grid: SizeGrid
    kernel: np.ndarray        # k(x_i, x_j), (n, n)
    idx_lo: np.ndarray        # (pairs,) lower target cell, -1 if none
    w_lo: np.ndarray          # number weight into idx_lo
    idx_hi: np.ndarray        # upper target cell, -1 if escape/none
    w_hi: np.ndarray
    esc_coeff: np.ndarray     # mass routed past xmax per unit event rate
    interior: np.ndarray      # bool: pure two-cell interior split
    gain: sparse.csc_matrix   # (rows, n) gain and escape operator
    row_partner: np.ndarray   # (rows,) larger pair index j of each gain row
    row_target: np.ndarray    # (rows,) target cell of each gain row, n to escape
    loss_u: np.ndarray        # (n, r) loss factor
    loss_w: np.ndarray        # (r, n)


def build_coag_tables(k: CoagulationKernel, grid: SizeGrid) -> CoagTables:
    x = grid.centers
    n = grid.cells
    kernel = np.asarray(k(x[:, None], x[None, :]), dtype=float)
    # the pairs i <= j in row-major order, read off the upper triangle; row i
    # holds j = i..n-1 from offset diag[i], the pair (i, i)
    upper = ~np.tri(n, k=-1, dtype=bool)
    cells = np.arange(n, dtype=np.int32)
    diag = cells * n - cells * (cells - 1) // 2
    s = np.repeat(x, n - cells)
    s += np.broadcast_to(x, (n, n))[upper]

    # bracket between consecutive centers (s >= 2*x[0], so lo >= 0); computed
    # for every pair, then overwritten for the few that leave the interior
    lo = np.searchsorted(x, s, side="right") - 1
    np.minimum(lo, n - 2, out=lo)
    x_hi = x[1:][lo]
    w_lo = x_hi - s
    x_hi -= x[lo]
    w_lo /= x_hi
    w_hi = 1.0 - w_lo
    idx_lo = lo.astype(np.int32)
    idx_hi = idx_lo + 1
    esc_coeff = np.zeros(s.size)
    inter = s <= x[-1]

    # straddling the last center: split against a virtual node at xmax,
    # whose share leaves the grid as escaped mass; beyond xmax: all escapes
    out = np.flatnonzero(~inter)
    s_out = s[out]
    straddle = s_out <= grid.xmax
    wl = np.where(straddle, (grid.xmax - s_out) / (grid.xmax - x[-1]), 0.0)
    idx_lo[out] = np.where(straddle, n - 1, -1)
    w_lo[out] = wl
    idx_hi[out] = -1
    w_hi[out] = 0.0
    esc_coeff[out] = np.where(straddle, (1.0 - wl) * grid.xmax, s_out)

    # 0.5*k(x_i, x_j)*(2 - delta_ij): a pair i < j stands for (i, j) and (j, i)
    coeff = kernel[upper]
    coeff[diag] *= 0.5

    # Two slots per pair: the lower target, then the upper target or the
    # escape "target" n (interior pairs have esc_coeff = 0, the others
    # w_hi = 0); a pair beyond xmax keeps an explicit zero at n - 1.  Every
    # target grows with i at fixed partner j, so j's targets run from slot 0
    # of pair (0, j) to slot 1 of pair (j, j), and the gain rows of partner
    # j are that run, target t in row cell_base[j] + t.
    rows = np.empty((s.size, 2), dtype=np.int32)
    rows[:, 0] = idx_lo
    rows[:, 1] = idx_hi
    rows[out] = (n - 1, n)
    first, last = rows[cells, 0], rows[diag, 1]
    per_partner = last - first + 1
    row_end = np.cumsum(per_partner, dtype=np.int32)
    cell_base = row_end - 1 - last
    # the two row keys are read on every application, so they are intp:
    # numpy converts a narrower index array into a fresh copy on each use
    row_partner = np.repeat(np.arange(n), per_partner)
    row_target = np.arange(row_end[-1]) - np.repeat(cell_base, per_partner)
    rows += np.broadcast_to(cell_base, (n, n))[upper][:, None]

    vals = np.empty((s.size, 2))
    np.multiply(w_lo, coeff, out=vals[:, 0])
    np.multiply(w_hi, coeff, out=vals[:, 1])
    vals[out, 1] = esc_coeff[out] * coeff[out]
    # CSC over the smaller index i: its columns are the rows of the pair
    # list, two slots per pair, so no sort; int32 indices hold n(n+1)
    # entries for any n whose kernel fits in memory
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[:-1], indptr[-1] = 2 * diag, 2 * s.size
    gain = sparse.csc_matrix((vals.ravel(), rows.ravel(), indptr), shape=(row_end[-1], n))

    return CoagTables(grid, kernel, idx_lo, w_lo, idx_hi, w_hi, esc_coeff, inter,
                      gain, row_partner, row_target, *k.loss_factors(x))


def _event_rates(f: DensityField, ct: CoagTables) -> np.ndarray:
    """E[i, j] = 0.5 * k(x_i, x_j) * f_i dx_i * f_j dx_j over all n^2 ordered
    pairs, flattened; independent of the folded gain operator."""
    amounts = f.values * f.grid.widths
    return (0.5 * ct.kernel * np.outer(amounts, amounts)).ravel()


def coag_loss_rate(f: DensityField, ct: CoagTables) -> np.ndarray:
    """Pointwise loss frequency Lambda(x_i) = sum_j k(x_i, x_j) f_j dx_j."""
    return ct.loss_u @ (ct.loss_w @ (f.values * f.grid.widths))


def apply_coag(f: DensityField, ct: CoagTables) -> DensityField:
    """Coagulation rate field; the escaped_mass slot carries the rate of
    mass routed past xmax."""
    grid = f.grid
    amounts = f.values * grid.widths
    z = ct.gain @ amounts
    z *= amounts[ct.row_partner]
    out = np.bincount(ct.row_target, weights=z, minlength=grid.cells + 1)
    vals = out[:-1] / grid.widths - f.values * coag_loss_rate(f, ct)
    return DensityField(grid, vals, float(out[-1]))


def apply_coag_beta(f: DensityField, ct: CoagTables, a1: np.ndarray) -> DensityField:
    """Shifted operator a1*f + Kf, with a1 = beta*(1 + x^alpha) the shift
    `AbsorptionRate.for_ball` builds, evaluated at the cell centers.

    Componentwise nonnegative on nonnegative fields inside the weighted-norm
    ball the shift was derived for: the pointwise loss frequency is dominated
    by a1 there.
    """
    base = apply_coag(f, ct)
    base.values = base.values + a1 * f.values
    return base


COAG_MOMENT2_TOL = 2e-3   # the order-2 identity carries the pair-splitting error


def coag_moment_identity(f: DensityField, ct: Optional[CoagTables]) -> list[ReportRow]:
    """The 'coag-identities' rows: for i = 0, 1, 2 the moment rate of the
    discretized operator against the exact double sum.

    For i = 1 the comparison includes the routed overflow so both sides are
    zero to rounding (tolerance 1e-11); for i = 0 the double sum collapses to
    minus half the total event rate (1e-11); order 2 picks up the
    pair-splitting error, bounded by COAG_MOMENT2_TOL.  The double sum runs over
    all ordered pairs from the kernel matrix alone, so it does not reuse the
    gain operator it checks.  No tables (`ct` None) means no coagulation.
    """
    if ct is None:
        return [ReportRow("coag-identities", "mass", detail="coagulation disabled")]
    grid = f.grid
    x = grid.centers
    kf = apply_coag(f, ct)
    ev = _event_rates(f, ct)
    s = (x[:, None] + x[None, :]).ravel()
    rows = []
    for i, tol in ((0.0, 1e-11), (1.0, 1e-11), (2.0, COAG_MOMENT2_TOL)):
        xi = np.power(x, i)
        lhs = float(np.sum(xi * kf.values * grid.widths))
        if i == 1:
            lhs += kf.escaped_mass
        cross = np.power(s, i) - np.add.outer(xi, xi).ravel()
        rhs = float(np.sum(ev * cross))
        scale = max(abs(lhs), abs(rhs), float(np.sum(ev * np.power(s, i))), 1e-300)
        rows.append(ReportRow("coag-identities", f"moment-{i:g}", abs(lhs - rhs) / scale,
                              "<=", tol, detail=f"escape rate {kf.escaped_mass:.3e}"))
    return rows
