"""Truncated size domain, cell-averaged densities, weighted norms and moments.

The size axis (0, inf) is truncated to [xmin, xmax] and partitioned into
geometrically spaced cells.  Densities are stored as per-cell averages; all
norms and moments are midpoint (cell-center) quadratures, which is consistent
with the cell-average semantics and second order on smooth data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SizeGrid",
    "DensityField",
    "WeightSpec",
    "weighted_integral",
    "project",
    "moment",
]

#: abscissae/weights of 5-point Gauss-Legendre on [-1, 1], used by `project`
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


class GridError(ValueError):
    """Raised for invalid grid construction or negative projected data."""


@dataclass(frozen=True)
class SizeGrid:
    """Geometric partition of [xmin, xmax] into `cells` cells.

    Attributes
    ----------
    edges : (cells+1,) strictly increasing cell boundaries
    centers : (cells,) arithmetic cell midpoints
    widths : (cells,) cell widths
    ratio : common geometric ratio edges[i+1]/edges[i]
    """

    xmin: float
    xmax: float
    cells: int
    edges: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    widths: np.ndarray = field(repr=False)
    ratio: float

    @staticmethod
    def geometric(xmin: float, xmax: float, cells: int) -> "SizeGrid":
        if not (0.0 < xmin < xmax):
            raise GridError(f"need 0 < xmin < xmax, got ({xmin}, {xmax})")
        if cells < 2:
            raise GridError(f"need at least 2 cells, got {cells}")
        edges = np.geomspace(xmin, xmax, cells + 1)
        # re-derive with exact endpoint values so ratio consistency holds to rounding
        edges[0], edges[-1] = xmin, xmax
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        ratio = (xmax / xmin) ** (1.0 / cells)
        grid = SizeGrid(xmin, xmax, cells, edges, centers, widths, ratio)
        grid.validate()
        return grid

    def validate(self) -> None:
        if not np.all(np.diff(self.edges) > 0):
            raise GridError("edges must be strictly increasing")
        if not np.all(self.widths > 0):
            raise GridError("cell widths must be positive")
        inside = (self.centers > self.edges[:-1]) & (self.centers < self.edges[1:])
        if not np.all(inside):
            raise GridError("cell centers must lie inside their cells")
        ratios = self.edges[1:] / self.edges[:-1]
        if np.max(np.abs(ratios / self.ratio - 1.0)) > 1e-12:
            raise GridError("geometric ratio is not consistent across cells")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SizeGrid)
            and self.cells == other.cells
            and self.xmin == other.xmin
            and self.xmax == other.xmax
        )

    def __hash__(self) -> int:
        return hash((self.xmin, self.xmax, self.cells))


@dataclass
class DensityField:
    """Cell-averaged particle density over a SizeGrid.

    ``escaped_mass`` accumulates mass transported or coagulated past xmax.
    For instantaneous operator outputs (rates) the same slot carries the rate
    of mass currently being routed past xmax; time steppers integrate it.
    The linear propagator also advances a stack of fields at once: values of
    shape (rows, cells) with a (rows,) escaped_mass array, one row per field.
    """

    grid: SizeGrid
    values: np.ndarray
    escaped_mass: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim > 2 or self.values.shape[-1:] != (self.grid.cells,):
            raise GridError(
                f"values shape {self.values.shape} does not match grid ({self.grid.cells},)"
            )

    @staticmethod
    def zeros(grid: SizeGrid) -> "DensityField":
        return DensityField(grid, np.zeros(grid.cells))

    def copy(self) -> "DensityField":
        return DensityField(self.grid, self.values.copy(), self.escaped_mass)

    def min_value(self) -> float:
        return float(np.min(self.values))


@dataclass(frozen=True)
class WeightSpec:
    """Moment weight: x^m (form='pure') or 1 + x^m (form='shifted')."""

    m: float
    form: str = "shifted"

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"weight order must be nonnegative, got {self.m}")
        if self.form not in ("pure", "shifted"):
            raise ValueError(f"unknown weight form {self.form!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        xm = np.power(x, self.m)
        return 1.0 + xm if self.form == "shifted" else xm


def weighted_integral(f: DensityField, w: WeightSpec) -> float:
    """Compensated midpoint quadrature of f against the weight.

    Equals the weighted-space norm of f when f is nonnegative.
    """
    terms = f.values * w(f.grid.centers) * f.grid.widths
    return math.fsum(terms.tolist())


def moment(f: DensityField, m: float) -> float:
    """m-th moment of the density (pure weight x^m)."""
    return weighted_integral(f, WeightSpec(m, "pure"))


def project(g, grid: SizeGrid) -> DensityField:
    """Project a size function onto per-cell averages.

    Uses fixed 5-point Gauss-Legendre quadrature per cell.  Rejects inputs
    that evaluate negative anywhere on the quadrature nodes.
    """
    lo, hi = grid.edges[:-1], grid.edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # nodes: (cells, 5)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(g(nodes), dtype=float)
    if vals.shape != nodes.shape:  # scalar-only callables
        vals = np.vectorize(g)(nodes).astype(float)
    if np.any(vals < 0):
        raise GridError("projected function is negative on the grid")
    averages = (vals @ _GL_WEIGHTS) * 0.5  # divide by 2 = half/(width/... )
    return DensityField(grid, averages)
