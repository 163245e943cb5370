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
of nonnegative products.  The operator is built as CSR, with each row's
columns ascending, so the row-major product adds a row's terms in
ascending i, the order of a column-by-column product, while reading each
row's entries in one stream.  Set-up finds, per partner, where the pairs
move on to the next target (one search per row, not per pair) and places
the slots in row order from that, with no sort and no format conversion.
The loss frequency sum_j k(x_i, x_j) a_j goes through the kernel's factors
(`CoagulationKernel.loss_factors`): O(n) for the closed forms, of rank <= 2,
O(n * knots) for a table.  The gain is still O(cells^2): a median of about
0.18 ms per mat-vec and 0.23 ms per `apply_coag` at 512 cells (0.69 and
0.88 ms at 1024) on one core of an Intel Xeon.  This is the fixed-pivot
pair splitting of Kumar & Ramkrishna, Chem. Eng. Sci. 51 (1996).
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

    `kernel` is the full symmetric (n, n) matrix of k(x_i, x_j), read-only
    (`CoagulationKernel.on_grid`), and the product ``loss_u @ loss_w`` of an
    (n, r) and an (r, n) factor (`CoagulationKernel.loss_factors`): r <= 2
    for a closed form, the knots for a table, so the loss term costs O(n * r).  `idx_lo` to `interior`
    hold one entry per pair i <= j, partner by partner: (j, i) in the
    row-major order of the lower triangle (the order of
    ``np.tril_indices(n)``), pair (i, j) at j(j + 1)/2 + i.

    `gain` is the (rows, n) CSR operator.  Row r stands for partner
    ``row_partner[r]`` = j and target ``row_target[r]`` = t, a cell or n for
    the escape row; partner j's rows are one contiguous run of cells and
    then, if any of its pairs leaves the interior, its escape row.  Every
    pair (i, j) has, in column i, 0.5*k*(2 - delta_ij) times its number
    weights in rows (j, lower target) and (j, upper target), or its escape
    coefficient in row (j, escape); a row's columns are one ascending run
    of consecutive i.  So ``bincount(row_target, (gain @ a) * a[row_partner])``
    is the number gain per cell followed by the escaped-mass rate.  Every
    pair stores two entries, n(n+1) in all, so a mat-vec reads about 12
    bytes (value and int32 column) per entry; a pair beyond xmax keeps an
    explicit zero in row (j, n - 1) in place of its lower target.  Nothing
    in the tables is written after set-up, so calls that share them are
    reentrant.
    """

    grid: SizeGrid
    kernel: np.ndarray        # k(x_i, x_j), (n, n)
    idx_lo: np.ndarray        # (pairs,) lower target cell, -1 if none
    w_lo: np.ndarray          # number weight into idx_lo
    idx_hi: np.ndarray        # upper target cell, -1 if escape/none
    w_hi: np.ndarray
    esc_coeff: np.ndarray     # mass routed past xmax per unit event rate
    interior: np.ndarray      # bool: pure two-cell interior split
    gain: sparse.csr_matrix   # (rows, n) gain and escape operator
    row_partner: np.ndarray   # (rows,) larger pair index j of each gain row
    row_target: np.ndarray    # (rows,) target cell of each gain row, n to escape
    loss_u: np.ndarray        # (n, r) loss factor
    loss_w: np.ndarray        # (r, n)


def _runs(x: np.ndarray, s: np.ndarray, start: np.ndarray, diag: np.ndarray):
    """The pairs of one partner j and one target t, in ascending i, as runs.

    A pair's target t is the lower center bracketing its size s, or n - 1
    past the last center, so t >= u exactly when s >= edge[u].  At fixed j,
    s and t grow with i, so the pairs of (j, t) are a run from the first i
    whose s reaches edge[t].  A guess from x_i >= edge[t] - x_j, moved while
    it disagrees with that test in floating point, finds it.  Returns, run by
    run, j, t and the run's first pair, and per partner its first target and
    its number of runs (empty runs included)."""
    n = x.size
    edge = x.copy()
    edge[-1] = np.nextafter(x[-1], np.inf)
    first = np.searchsorted(edge, s[start], side="right") - 1
    runs = np.searchsorted(edge, s[diag], side="right") - first
    run_j = np.repeat(np.arange(n), runs)
    run_t = np.arange(run_j.size) - np.repeat(np.cumsum(runs) - runs - first, runs)
    x_j, reach = x[run_j], edge[run_t]
    run_i = np.searchsorted(x, reach - x_j)
    while True:
        down = (run_i > 0) & (x[run_i - 1] + x_j >= reach)
        up = (run_i <= run_j) & (x[np.minimum(run_i, n - 1)] + x_j < reach)
        if not (down.any() or up.any()):
            return run_j, run_t, start[run_j] + run_i, first, runs
        run_i += up
        run_i -= down


def build_coag_tables(k: CoagulationKernel, grid: SizeGrid) -> CoagTables:
    x = grid.centers
    n = grid.cells
    kernel = k.on_grid(grid)
    # the pairs i <= j partner by partner, read off the lower triangle of
    # (j, i): pair (i, j) at start[j] + i, the diagonal pair (j, j) at diag[j]
    tri = np.tri(n, dtype=bool)
    cells = np.arange(n)
    start = cells * (cells + 1) // 2
    diag = start + cells
    pairs = n * (n + 1) // 2
    s = np.broadcast_to(x, (n, n))[tri]
    s += np.repeat(x, cells + 1)
    run_j, run_t, run_start, first, runs = _runs(x, s, start, diag)
    length = np.diff(run_start, append=pairs)
    lo = np.repeat(run_t, length)

    # split between the two centers bracketing s; a pair past the last
    # center, computed against the last two and then overwritten
    vals = np.empty(2 * pairs)     # the gain's entries; scratch until they are placed
    x_hi = x[1:].take(lo, mode="clip")
    w_lo = x_hi - s
    x_hi -= x[:-1].take(lo, out=vals[:pairs], mode="clip")
    w_lo /= x_hi
    w_hi = 1.0 - w_lo
    idx_lo = lo.astype(np.int32)
    del lo     # the largest temporaries go before the gain's arrays come
    idx_hi = idx_lo + 1
    esc_coeff = np.zeros(pairs)
    inter = s <= x[-1]

    # straddling the last center: split against a virtual node at xmax,
    # whose share leaves the grid as escaped mass; beyond xmax: all escapes
    out = np.flatnonzero(~inter)
    s_out = s[out]
    del s
    straddle = s_out <= grid.xmax
    wl = np.where(straddle, (grid.xmax - s_out) / (grid.xmax - x[-1]), 0.0)
    idx_lo[out] = np.where(straddle, n - 1, -1)
    w_lo[out] = wl
    idx_hi[out] = -1
    w_hi[out] = 0.0
    esc_coeff[out] = np.where(straddle, (1.0 - wl) * grid.xmax, s_out)

    # 0.5*k(x_i, x_j)*(2 - delta_ij): a pair i < j stands for (i, j) and (j, i)
    coeff = kernel.T[tri]
    coeff[diag] *= 0.5

    # Two slots per pair: the lower target in row (j, t), then the upper
    # target or the escape "target" n in row (j, t + 1) (interior pairs have
    # esc_coeff = 0, the others w_hi = 0); a pair beyond xmax keeps an
    # explicit zero in its lower slot.  Partner j's rows are its runs and one
    # more: run r is row r + j, and row (j, t) holds the upper slots of run
    # t - 1 and then the lower slots of run t, each in ascending i, so its
    # columns are one contiguous range.  In row order the slots are thus the
    # lower slots of run 0, its upper slots, the lower slots of run 1, ...,
    # and each run's pairs in ascending order: the mask `lower` places them.
    # below[r] counts the pairs whose lower slot lies in a row before r:
    # run_start for a run's row, the next partner's first pair for a
    # partner's last row.  Row r starts after those and after the upper
    # slots of the rows before it, which are the lower slots of the rows
    # before r - 1: at below[r] + below[r - 1].
    rows = run_j.size + n
    below = np.empty(rows + 1, dtype=np.intp)
    below[np.arange(run_j.size) + run_j] = run_start
    below[np.cumsum(runs) + cells] = diag + 1
    below[-1] = pairs
    indptr = np.empty(rows + 1, dtype=np.int32)
    indptr[0] = 0
    np.add(below[1:], below[:-1], out=indptr[1:])
    lower = np.repeat(np.tile([True, False], run_j.size), np.repeat(length, 2))
    upper = ~lower
    slot = np.multiply(w_hi, coeff, out=x_hi)
    slot[out] = esc_coeff[out] * coeff[out]
    vals[upper] = slot
    vals[lower] = np.multiply(w_lo, coeff, out=slot)
    cols = np.empty(2 * pairs, dtype=np.int32)
    i = np.broadcast_to(cells.astype(np.int32), (n, n))[tri]
    cols[lower] = i
    cols[upper] = i
    # int32 indices hold n(n+1) entries for any n whose kernel fits in memory
    gain = sparse.csr_matrix((vals, cols, indptr), shape=(rows, n))
    # the two row keys are read on every application, so they are intp:
    # numpy converts a narrower index array into a fresh copy on each use
    row_partner = np.repeat(cells, runs + 1)
    row_target = np.arange(rows) - np.repeat(np.cumsum(runs + 1) - runs - 1 - first, runs + 1)

    return CoagTables(grid, kernel, idx_lo, w_lo, idx_hi, w_hi, esc_coeff, inter,
                      gain, row_partner, row_target, *k.loss_factors(x))


def _event_rates(f: DensityField, ct: CoagTables) -> np.ndarray:
    """E[i, j] = 0.5 * k(x_i, x_j) * f_i dx_i * f_j dx_j over all n^2 ordered
    pairs, flattened; independent of the folded gain operator."""
    amounts = f.values * f.grid.widths
    ev = np.outer(amounts, amounts)
    ev *= 0.5 * ct.kernel
    return ev.ravel()


def coag_loss_rate(f: DensityField, ct: CoagTables) -> np.ndarray:
    """Pointwise loss frequency Lambda(x_i) = sum_j k(x_i, x_j) f_j dx_j."""
    return _loss_rate(f.values * f.grid.widths, ct)


def _loss_rate(amounts: np.ndarray, ct: CoagTables) -> np.ndarray:
    """`coag_loss_rate` from the amounts f dx."""
    return ct.loss_u @ (ct.loss_w @ amounts)


def apply_coag(f: DensityField, ct: CoagTables) -> DensityField:
    """Coagulation rate field; the escaped_mass slot carries the rate of
    mass routed past xmax."""
    grid = f.grid
    amounts = f.values * grid.widths
    z = ct.gain @ amounts
    z *= amounts.take(ct.row_partner)
    out = np.bincount(ct.row_target, weights=z, minlength=grid.cells + 1)
    vals = out[:-1] / grid.widths
    vals -= f.values * _loss_rate(amounts, ct)
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


def coag_moment_identity(f: DensityField, ct: Optional[CoagTables]) -> list[ReportRow]:
    """The 'coag-identities' rows: for i = 0, 1, 2 the moment rate of the
    discretized operator against the exact double sum.

    For i = 1 the comparison includes the routed overflow so both sides are
    zero to rounding (tolerance 1e-11); for i = 0 the double sum collapses to
    minus half the total event rate (1e-11); order 2 picks up the
    pair-splitting error, bounded by (rho - 1)^2 / 4, rho the grid ratio: a
    pair of size s landing between centers x_lo and rho x_lo gains
    (s - x_lo)(rho x_lo - s) <= (rho - 1)^2 s^2 / 4 in the second moment.
    The double sum runs over all ordered pairs from the kernel matrix alone,
    so it does not reuse the gain operator it checks.  No tables (`ct` None)
    means no coagulation.
    """
    if ct is None:
        return [ReportRow("coag-identities", "mass", detail="coagulation disabled")]
    grid = f.grid
    x = grid.centers
    kf = apply_coag(f, ct)
    ev = _event_rates(f, ct)
    s = (x[:, None] + x[None, :]).ravel()
    rows = []
    for i, tol in ((0.0, 1e-11), (1.0, 1e-11), (2.0, 0.25 * (grid.ratio - 1.0) ** 2)):
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
