"""Sectional fragmentation operator with exact discrete mass conservation.

The gain integral over parents is collapsed onto the grid through a daughter
matrix whose columns are renormalized so that every parent's fragment mass
lands exactly (to rounding) on the grid.  Mass-conservation errors would
otherwise masquerade as model dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import DensityField, SizeGrid, moment
from .kernels import DaughterDistribution, KernelSet, daughter_moment

__all__ = [
    "DaughterMatrix",
    "IdentityReport",
    "build_daughter_matrix",
    "apply_frag",
    "daughter_gain",
    "frag_moment_identity",
    "fragmentation_constants",
]


@dataclass
class DaughterMatrix:
    """w[i, j] ~ b(x_i, x_j) * width_i for daughters i of parents j (i <= j).

    Column j satisfies sum_i x_i w[i, j] = x_j exactly after renormalization.
    ``lumped_fraction[j]`` is the share of parent j's fragment mass that fell
    below xmin and was lumped into the smallest cell; ``flagged`` marks
    columns whose raw entries carried no mass at all.
    """

    grid: SizeGrid
    w: np.ndarray
    lumped_fraction: np.ndarray
    flagged: np.ndarray

    def column_moment(self, m: float) -> np.ndarray:
        """Discrete n_m at each parent size: sum_i x_i^m w[i, j]."""
        xm = np.power(self.grid.centers, m)
        return xm @ self.w


def build_daughter_matrix(b: DaughterDistribution, grid: SizeGrid) -> DaughterMatrix:
    x = grid.centers
    # exact per-cell daughter counts: w_ij = int over cell i of b(., x_j);
    # the integral saturates at the parent size, so cells above it get nothing
    w = np.diff(b.partial_number(x[None, :], grid.edges[:, None]), axis=0)

    # fragment mass below the grid is lumped into the smallest cell, which
    # keeps the mass budget closed; the lumped share is reported
    below = b.partial_mass(x, grid.xmin)
    lumped_fraction = below / x
    w[0, :] += below / x[0]

    colmass = x @ w
    flagged = colmass <= 0.0
    renorm = np.ones(grid.cells)
    ok = ~flagged
    renorm[ok] = x[ok] / colmass[ok]
    w *= renorm[None, :]
    # a parent whose daughters all fall outside the grid routes everything
    # to the smallest cell
    w[0, flagged] = x[flagged] / x[0]
    return DaughterMatrix(grid, w, lumped_fraction, flagged)


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

    Conserves sum_j x_j * amount_j exactly by construction.
    """
    return (dm.w @ parent_amounts) / dm.grid.widths


def apply_frag(f: DensityField, ks: KernelSet, dm: DaughterMatrix) -> DensityField:
    """Fragmentation rate field: loss -a*f plus daughter gain.

    The first moment of the result is zero to rounding for any input.
    """
    a = ks.a(f.grid.centers)
    gain = daughter_gain(dm, a * f.values * f.grid.widths)
    return DensityField(f.grid, gain - a * f.values)


@dataclass
class IdentityReport:
    order: float
    lhs: float
    rhs: float
    rel_discrepancy: float
    estimate_value: Optional[float] = None
    estimate_bound: Optional[float] = None
    estimate_tol: Optional[float] = None
    detail: str = ""


def fragmentation_constants(ks: KernelSet, i: float,
                            sample_hi: float = 1e3, n_samples: int = 200
                            ) -> tuple[float, float, float]:
    """Surrogates (delta'_i, delta_i, nu_i) for the fragmentation sink estimate.

    delta'_i is the sampled minimum of N_i(x)/x^i over x >= x0, delta_i
    scales it by the lower-bound amplitude a0, and nu_i = delta_i * sup a on
    [0, x0] mirrors the constant produced by splitting the sink integral at
    x0.
    """
    x0 = ks.a.x0
    xs = np.geomspace(x0, max(sample_hi, 10 * x0), n_samples)
    ratios = np.array([1.0 - daughter_moment(ks.b, i, float(y)) / y**i for y in xs])
    delta_p = float(np.min(ratios))
    delta = delta_p * ks.a.a0
    lo = np.linspace(x0 * 1e-6, x0, n_samples)
    nu = delta * float(np.max(ks.a(lo)))
    return delta_p, delta, nu


def frag_moment_identity(f: DensityField, i: float, ks: KernelSet,
                         dm: DaughterMatrix) -> IdentityReport:
    """Compare sum x^i (Ff) against the moment-sink form -sum N_i a f.

    Both sides use the same discretization, so they agree to rounding; the
    report also evaluates, for i > 1, the sink estimate
    -delta_i ||f||_[i+gamma0] + nu_i ||f||_[i] with the computed surrogates,
    and the rounding tolerance 1e-12 |estimate| its check allows.
    """
    grid = f.grid
    x, widths = grid.centers, grid.widths
    a = ks.a(x)
    ff = apply_frag(f, ks, dm)
    lhs = float(np.sum(np.power(x, i) * ff.values * widths))
    n_disc = dm.column_moment(i)
    deficit = np.power(x, i) - n_disc
    rhs = -float(np.sum(deficit * a * f.values * widths))
    scale = max(abs(lhs), abs(rhs), float(np.sum(np.power(x, i) * a * np.abs(f.values) * widths)), 1e-300)
    rep = IdentityReport(i, lhs, rhs, abs(lhs - rhs) / scale)

    if i > 1:
        _, delta, nu = fragmentation_constants(ks, i, sample_hi=10 * grid.xmax)
        bound = -delta * moment(f, i + ks.a.gamma0) + nu * moment(f, i)
        rep.estimate_value = lhs
        rep.estimate_bound = bound
        rep.estimate_tol = 1e-12 * abs(bound)
        rep.detail = f"delta_i={delta:.6g}, nu_i={nu:.6g}"
    return rep
