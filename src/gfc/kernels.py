"""Model coefficients of the growth-fragmentation-coagulation system.

Four rate functions drive the dynamics: the overall fragmentation rate a(x),
the daughter distribution b(x, y) of fragment sizes, the deterministic growth
speed r(x) and the binary coagulation kernel k(x, y), plus an auxiliary
absorption rate a1(x) = beta*(1 + x^alpha) used by the positive-splitting
machinery.  Each coefficient carries the structural hypotheses it is supposed
to satisfy; `validate_kernel_set` probes all of them on a sampling plan and
returns check rows instead of raising.  Their type, `ReportRow`, is defined
here, at the bottom of the import graph, because every check in the package
reports its results as ReportRows; `verdict` is the one rule that turns a
row's numbers into its status.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import integrate

__all__ = [
    "FragmentationRate",
    "DaughterDistribution",
    "GrowthRate",
    "CoagulationKernel",
    "AbsorptionRate",
    "KernelSet",
    "SamplePlan",
    "ReportRow",
    "verdict",
    "QuadratureError",
    "daughter_moment",
    "moment_deficit",
    "compute_beta",
    "validate_kernel_set",
]

REACHABLE = "reachable"
UNREACHABLE = "unreachable"


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance."""


class KernelConfigError(ValueError):
    """Inconsistent kernel parameters."""


def _quad(fun, lo, hi, points=None, epsabs=1e-10, epsrel=1e-8) -> float:
    val, err = integrate.quad(fun, lo, hi, points=points, limit=200,
                              epsabs=epsabs, epsrel=epsrel)
    if not np.isfinite(val) or err > max(epsabs, epsrel * abs(val)) * 50:
        raise QuadratureError(
            f"quadrature on [{lo}, {hi}] reported error {err:.2e} for value {val:.6e}"
        )
    return val


@dataclass(frozen=True)
class FragmentationRate:
    """Overall breakup rate a(x).

    kinds: 'power-law' a0*x^gamma0, 'linear' (a0*x), 'table'.
    Hypotheses: a >= 0 locally bounded, and a(x) >= a0*x^gamma0 for x >= x0.
    """

    kind: str = "power-law"
    a0: float = 1.0
    gamma0: float = 1.0
    x0: float = 1.0
    table_x: Optional[np.ndarray] = None
    table_a: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("power-law", "linear", "table"):
            raise KernelConfigError(f"unknown fragmentation kind {self.kind!r}")
        if self.kind == "linear":
            object.__setattr__(self, "gamma0", 1.0)
        if self.a0 < 0:
            raise KernelConfigError("fragmentation amplitude a0 must be >= 0")
        if self.kind == "table":
            if self.table_x is None or self.table_a is None:
                raise KernelConfigError("table fragmentation needs table_x/table_a")
            object.__setattr__(self, "table_x", np.asarray(self.table_x, float))
            object.__setattr__(self, "table_a", np.asarray(self.table_a, float))

    @property
    def is_zero(self) -> bool:
        return self.kind != "table" and self.a0 == 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "table":
            return np.interp(x, self.table_x, self.table_a)
        return self.a0 * np.power(x, self.gamma0)


def _pl_integral(u: np.ndarray, phi: np.ndarray, up_to, p: int):
    """Exact int_0^up_to s^p phi(s) ds, p in {0, 1}, for the piecewise-linear
    phi on the increasing knots u; elementwise over an array of up_to.

    Whole segments come from a cumulative sum of their closed-form
    integrals, the segment holding up_to (clipped to [u[0], u[-1]]) from the
    same closed form on its part below up_to.
    """
    c1 = np.diff(phi) / np.diff(u)
    c0 = phi[:-1] - c1 * u[:-1]

    def segment(k, lo, hi):
        # int_lo^hi s^p (c0 + c1 s) ds on segment k
        return (c0[k] * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
                + c1[k] * (hi ** (p + 2) - lo ** (p + 2)) / (p + 2))

    whole = np.concatenate(([0.0], np.cumsum(segment(slice(None), u[:-1], u[1:]))))
    s = np.clip(up_to, u[0], u[-1])
    k = np.clip(np.searchsorted(u, s, side="right") - 1, 0, len(u) - 2)
    return whole[k] + segment(k, u[k], s)


@dataclass(frozen=True)
class DaughterDistribution:
    """Fragment size distribution b(x, y) for a parent of size y.

    kinds:
      'uniform-binary'  b = 2/y                       (n0 = 2)
      'power-law'       b = (nu+2) x^nu / y^(nu+1)    (n0 = (nu+2)/(nu+1))
      'table'           b = s * phi(x/y) / y, with s fixed so that the local
                        mass conservation integral is exact.

    All built-ins satisfy int_0^y x b(x,y) dx = y identically.
    """

    kind: str = "uniform-binary"
    nu: float = 0.0
    table_u: Optional[np.ndarray] = None
    table_phi: Optional[np.ndarray] = None
    _scale: float = field(default=1.0, repr=False)

    def __post_init__(self):
        if self.kind not in ("uniform-binary", "power-law", "table"):
            raise KernelConfigError(f"unknown daughter kind {self.kind!r}")
        if self.kind == "power-law" and self.nu <= -1:
            raise KernelConfigError("power-law daughter exponent must exceed -1")
        if self.kind == "table":
            if self.table_u is None or self.table_phi is None:
                raise KernelConfigError("table daughter needs table_u/table_phi")
            u = np.asarray(self.table_u, float)
            phi = np.asarray(self.table_phi, float)
            if u[0] != 0.0 or u[-1] != 1.0 or np.any(np.diff(u) <= 0):
                raise KernelConfigError("table_u must increase from 0 to 1")
            if np.any(phi < 0):
                raise KernelConfigError("table_phi must be nonnegative")
            object.__setattr__(self, "table_u", u)
            object.__setattr__(self, "table_phi", phi)
            # exact first moment of the piecewise-linear phi; renormalize so
            # that the discrete mass-conservation identity holds exactly
            m1 = _pl_integral(u, phi, 1.0, 1)
            if m1 <= 0:
                raise KernelConfigError("table daughter carries no mass")
            object.__setattr__(self, "_scale", 1.0 / m1)

    @property
    def n0_bound_amplitude(self) -> float:
        """b0 in the daughter-number bound n0(y) <= b0*(1 + y^l)."""
        return self.number_of_daughters()

    @property
    def n0_bound_exponent(self) -> float:
        """l in the daughter-number bound; 0 for every homogeneous kind."""
        return 0.0

    def number_of_daughters(self) -> float:
        """n0: mean fragment count per breakup (size independent here)."""
        if self.kind == "uniform-binary":
            return 2.0
        if self.kind == "power-law":
            return (self.nu + 2.0) / (self.nu + 1.0)
        return self._scale * _pl_integral(self.table_u, self.table_phi, 1.0, 0)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            if self.kind == "uniform-binary":
                out = np.broadcast_to(2.0 / y, np.broadcast_shapes(x.shape, y.shape)).copy()
            elif self.kind == "power-law":
                out = (self.nu + 2.0) * np.power(x, self.nu) / np.power(y, self.nu + 1.0)
            else:
                u = np.clip(x / y, 0.0, 1.0)
                out = self._scale * np.interp(u, self.table_u, self.table_phi) / y
        return np.where(x > y, 0.0, out)

    def partial_mass(self, y, up_to):
        """int_0^min(up_to, y) x b(x, y) dx, exact for every kind; elementwise
        over broadcast arrays of y and up_to."""
        z = np.maximum(np.minimum(up_to, y), 0.0)
        if self.kind == "uniform-binary":
            return z * z / y
        if self.kind == "power-law":
            return (z / y) ** (self.nu + 1.0) * z
        return self._scale * _pl_integral(self.table_u, self.table_phi, z / y, 1) * y

    def partial_number(self, y, up_to):
        """int_0^min(up_to, y) b(x, y) dx, exact for every kind; elementwise
        over broadcast arrays of y and up_to."""
        z = np.maximum(np.minimum(up_to, y), 0.0)
        if self.kind == "uniform-binary":
            return 2.0 * z / y
        if self.kind == "power-law":
            return (self.nu + 2.0) / (self.nu + 1.0) * (z / y) ** (self.nu + 1.0)
        return self._scale * _pl_integral(self.table_u, self.table_phi, z / y, 0)


@dataclass(frozen=True)
class GrowthRate:
    """Deterministic growth speed r(x) <= r0 + r1*x.

    kinds: 'constant' (r0), 'linear' (r1*x), 'affine' (r0 + r1*x), 'table'.
    A constant rate of 0 switches growth off entirely (desk-scale oracle
    scenarios); the structural hypotheses are then reported not-applicable.
    The origin is reachable by backward characteristics iff 1/r is integrable
    at 0, which is decidable from the kind.
    """

    kind: str = "constant"
    r0: float = 1.0
    r1: float = 0.0
    table_x: Optional[np.ndarray] = None
    table_r: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "affine", "table"):
            raise KernelConfigError(f"unknown growth kind {self.kind!r}")
        if self.kind == "constant":
            object.__setattr__(self, "r1", 0.0)
        if self.kind == "linear":
            object.__setattr__(self, "r0", 0.0)
        if self.r0 < 0 or self.r1 < 0:
            raise KernelConfigError("growth coefficients must be nonnegative")
        if self.kind == "linear" and self.r1 == 0:
            raise KernelConfigError("linear growth needs r1 > 0")
        if self.kind == "table":
            if self.table_x is None or self.table_r is None:
                raise KernelConfigError("table growth needs table_x/table_r")
            xs = np.asarray(self.table_x, float)
            rs = np.asarray(self.table_r, float)
            if np.any(rs <= 0):
                raise KernelConfigError("table growth must be strictly positive")
            object.__setattr__(self, "table_x", xs)
            object.__setattr__(self, "table_r", rs)
            # default affine majorant for tables unless supplied: constant cap
            if self.r0 == 0.0 and self.r1 == 0.0:
                object.__setattr__(self, "r0", float(np.max(rs)))

    @property
    def rtilde(self) -> float:
        return max(self.r0, self.r1)

    @property
    def is_zero(self) -> bool:
        return self.kind == "constant" and self.r0 == 0.0

    @property
    def origin_class(self) -> str:
        # int_0+ dx/r converges unless r vanishes at least linearly at 0;
        # tables extend with a positive constant, so only 'linear' diverges.
        if self.is_zero:
            return UNREACHABLE
        return UNREACHABLE if self.kind == "linear" else REACHABLE

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "table":
            return np.interp(x, self.table_x, self.table_r)
        return self.r0 + self.r1 * x


@dataclass(frozen=True)
class CoagulationKernel:
    """Symmetric merge rate k(x, y).

    kinds: 'constant' k0, 'product' k0*(1+x^a)(1+y^a),
    'sum' k0*(1+x^a+y^a), 'table'.  `bound_class` declares which structural
    bound the kernel is validated against: 'local' for the product bound,
    'global' for the sum bound required by the global-existence theory.
    """

    kind: str = "constant"
    k0: float = 1.0
    alpha: float = 0.5
    bound_class: str = "global"
    table_x: Optional[np.ndarray] = None
    table_k: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("constant", "product", "sum", "table"):
            raise KernelConfigError(f"unknown coagulation kind {self.kind!r}")
        if self.bound_class not in ("local", "global"):
            raise KernelConfigError(f"unknown coagulation bound class {self.bound_class!r}")
        if self.k0 < 0:
            raise KernelConfigError("coagulation amplitude k0 must be >= 0")
        if self.alpha <= 0:
            raise KernelConfigError("coagulation exponent alpha must be positive")
        if self.kind == "table":
            if self.table_x is None or self.table_k is None:
                raise KernelConfigError("table coagulation needs table_x/table_k")
            xs = np.asarray(self.table_x, float)
            ks = np.asarray(self.table_k, float)
            if ks.shape != (len(xs), len(xs)):
                raise KernelConfigError("table_k must be square over table_x")
            ks = 0.5 * (ks + ks.T)  # enforce symmetry exactly
            object.__setattr__(self, "table_x", xs)
            object.__setattr__(self, "table_k", ks)

    @property
    def is_zero(self) -> bool:
        return self.kind != "table" and self.k0 == 0.0

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.k0, np.broadcast_shapes(x.shape, y.shape)).copy()
        if self.kind == "product":
            return self.k0 * (1.0 + np.power(x, self.alpha)) * (1.0 + np.power(y, self.alpha))
        if self.kind == "sum":
            return self.k0 * (1.0 + np.power(x, self.alpha) + np.power(y, self.alpha))
        ix = np.interp(x, self.table_x, np.arange(len(self.table_x), dtype=float))
        iy = np.interp(y, self.table_x, np.arange(len(self.table_x), dtype=float))
        ix0 = np.clip(np.floor(ix).astype(int), 0, len(self.table_x) - 2)
        iy0 = np.clip(np.floor(iy).astype(int), 0, len(self.table_x) - 2)
        tx = np.clip(ix - ix0, 0.0, 1.0)
        ty = np.clip(iy - iy0, 0.0, 1.0)
        K = self.table_k
        return ((1 - tx) * (1 - ty) * K[ix0, iy0] + tx * (1 - ty) * K[ix0 + 1, iy0]
                + (1 - tx) * ty * K[ix0, iy0 + 1] + tx * ty * K[ix0 + 1, iy0 + 1])

    def class_bound(self, x, y):
        """Structural upper bound for the declared class."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.bound_class == "local":
            return self.k0 * (1.0 + np.power(x, self.alpha)) * (1.0 + np.power(y, self.alpha))
        return self.k0 * (1.0 + np.power(x, self.alpha) + np.power(y, self.alpha))


@dataclass(frozen=True)
class AbsorptionRate:
    """Auxiliary absorption a1(x) = beta*(1 + x^alpha), beta >= 0."""

    beta: float = 0.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.beta < 0:
            raise KernelConfigError("absorption strength beta must be >= 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.beta == 0.0:
            return np.zeros_like(x)
        return self.beta * (1.0 + np.power(x, self.alpha))


@dataclass(frozen=True)
class KernelSet:
    """The coefficient bundle (a, b, r, k, a1) for one scenario."""

    a: FragmentationRate
    b: DaughterDistribution
    r: GrowthRate
    k: CoagulationKernel
    a1: AbsorptionRate

    def q(self, x):
        """Total linear loss rate a + a1 entering the transport generator."""
        return self.a(x) + self.a1(x)


def compute_beta(k0: float, ball_radius: float) -> float:
    """Absorption strength that dominates the coagulation loss term on the
    invariant ball of radius 1 + ball_radius."""
    if k0 < 0 or ball_radius < 0:
        raise KernelConfigError("compute_beta needs nonnegative arguments")
    return 2.0 * k0 * (1.0 + ball_radius)


def daughter_moment(b: DaughterDistribution, m: float, y: float) -> float:
    """m-th moment n_m(y) of the daughter distribution for a size-y parent.

    Closed form for the homogeneous built-ins, adaptive quadrature otherwise.

    Raises
    ------
    QuadratureError
        if the adaptive integration cannot meet its tolerance.
    """
    if y <= 0:
        raise ValueError(f"parent size must be positive, got {y}")
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    if b.kind == "uniform-binary":
        return 2.0 / (m + 1.0) * y**m
    if b.kind == "power-law":
        return (b.nu + 2.0) / (b.nu + m + 1.0) * y**m
    knots = None
    if getattr(b, "table_u", None) is not None:
        knots = [float(u * y) for u in b.table_u]
    return _quad(lambda x: b(x, y) * x**m, 0.0, y, points=knots)


def moment_deficit(b: DaughterDistribution, m: float, y: float) -> float:
    """N_m(y) = y^m - n_m(y): positive for m > 1, zero at m = 1, negative below."""
    return y**m - daughter_moment(b, m, y)


@dataclass(frozen=True)
class SamplePlan:
    """Where the kernel hypotheses are probed.

    Sizes are sampled geometrically over [xmin, xmax]; the liminf check uses
    [y_probe, 100*y_probe].  The weight order m (and the coagulation solver
    requirement m > alpha + max{1, l}) is reported when m is supplied.
    """

    xmin: float = 1e-3
    xmax: float = 1e2
    n_sizes: int = 50
    m: Optional[float] = None
    m0: float = 2.0
    liminf_threshold: float = 0.01
    y_probe: float = 10.0

    def sizes(self) -> np.ndarray:
        return np.geomspace(self.xmin, self.xmax, self.n_sizes)

    def liminf_sizes(self) -> np.ndarray:
        return np.geomspace(self.y_probe, 100.0 * self.y_probe, 25)


PASS, FAIL, NA = "pass", "fail", "n/a"
_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def verdict(measured: float, relation: Optional[str], bound: float, tol: float = 0.0) -> str:
    """Status of the check `measured relation bound`.

    No relation means 'n/a'.  tol >= 0 widens the bound in the permissive
    direction only (bound + tol for '<=' and '<', bound - tol for '>=' and
    '>').  A NaN measured value (or bound) fails every relation.
    """
    if relation is None:
        return NA
    limit = bound + tol if relation[0] == "<" else bound - tol
    return PASS if _RELATIONS[relation](measured, limit) else FAIL


@dataclass
class ReportRow:
    """One check result: `measured relation bound` (tol widening the bound in
    the permissive direction), with the status `verdict` derives from them.
    Every check the harness runs reports rows of this type.

    A row without a relation is 'n/a'.  `held` sets the status by hand; it is
    only for a row whose printed numbers cannot decide it yet, and that
    row's detail says so.
    """

    suite: str
    name: str
    measured: float = float("nan")
    relation: Optional[str] = None
    bound: float = float("nan")
    tol: float = 0.0
    detail: str = ""
    held: Optional[bool] = None

    def __post_init__(self):
        if self.relation is not None and self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not self.tol >= 0.0:
            raise ValueError(f"tolerance must be >= 0, got {self.tol}")

    @property
    def status(self) -> str:
        if self.held is not None:
            return PASS if self.held else FAIL
        return verdict(self.measured, self.relation, self.bound, self.tol)

    @property
    def passed(self) -> bool:
        return self.status != FAIL


def validate_kernel_set(ks: KernelSet, plan: SamplePlan) -> list[ReportRow]:
    """Probe every structural hypothesis of the coefficient bundle.

    Failures are 'kernel-validation' rows, never exceptions.  Checks that do
    not apply to the scenario (for instance growth positivity with growth
    switched off) are reported 'n/a'.
    """
    rows: list[ReportRow] = []

    def add(*args, **kwargs) -> None:
        rows.append(ReportRow("kernel-validation", *args, **kwargs))

    xs = plan.sizes()

    a_vals = ks.a(xs)
    add("frag-nonnegative", float(np.min(a_vals)), ">=", 0.0)

    mask = xs >= ks.a.x0
    if np.any(mask):
        lower = ks.a.a0 * np.power(xs[mask], ks.a.gamma0)
        add("frag-lower-bound", float(np.min(a_vals[mask] - lower)), ">=", 0.0,
            1e-12 * max(1.0, ks.a.a0), f"a(x) >= a0*x^gamma0 for x >= {ks.a.x0}")

    bvals = ks.b(xs[:, None], xs[None, :])
    add("daughter-nonnegative", float(np.min(bvals)), ">=", 0.0)
    il, jl = np.tril_indices(len(xs), k=-1)
    above = np.abs(bvals[il, jl])  # rows are x, columns are y: i > j means x > y
    add("daughter-support", float(np.max(above)) if above.size else 0.0, "<=", 0.0,
        detail="max |b(x, y)| over x > y")

    def mass_residual(y):
        knots = [float(u * y) for u in ks.b.table_u] if ks.b.kind == "table" else None
        return abs(_quad(lambda x: ks.b(x, y) * x, 0.0, float(y), points=knots) - y) / y

    try:
        worst = float(max(mass_residual(y) for y in xs))
    except QuadratureError:
        worst = math.inf
    add("daughter-mass-conservation", worst, "<=", 1e-8,
        detail="relative residual of int x*b(x,y) dx = y; inf if quadrature fails")

    b0, ell = ks.b.n0_bound_amplitude, ks.b.n0_bound_exponent
    n0 = np.array([daughter_moment(ks.b, 0.0, float(y)) for y in xs])
    add("daughter-number-bound", float(np.max(n0 - b0 * (1.0 + xs**ell))), "<=", 0.0,
        1e-8 * b0, f"n0(y) <= {b0}*(1 + y^{ell})")

    ratios = np.array([moment_deficit(ks.b, plan.m0, float(y)) / y**plan.m0
                       for y in plan.liminf_sizes()])
    add("daughter-liminf", float(np.min(ratios)), ">=", plan.liminf_threshold,
        detail=f"N_m0(y)/y^m0 at m0 = {plan.m0} over [{plan.y_probe}, {100 * plan.y_probe}]")

    if ks.r.is_zero:
        add("growth-positive", detail="growth disabled")
        add("growth-origin-class", detail="growth disabled")
    else:
        r_vals = ks.r(xs)
        add("growth-positive", float(np.min(r_vals)), ">", 0.0)
        affine = ks.r.r0 + ks.r.r1 * xs
        cap = ks.r.rtilde * (1.0 + xs)
        excess = max(float(np.max(r_vals / affine - 1.0)), float(np.max(affine / cap - 1.0)))
        add("growth-affine-bound", excess, "<=", 0.0, 1e-12,
            f"relative excess in r <= {ks.r.r0} + {ks.r.r1}*x <= rtilde*(1+x)")
        # 1/r integrability at the origin, probed on a shrinking bracket: the
        # tail stays bounded exactly when the origin is reachable
        eps = np.geomspace(1e-2, 1e-8, 7)
        tails = np.array([_quad(lambda s: 1.0 / ks.r(s), float(e), 1.0, epsabs=1e-9, epsrel=1e-7)
                          for e in eps])
        add("growth-origin-class", float(tails[-1] / tails[0]),
            "<" if ks.r.origin_class == REACHABLE else ">=", 1.5,
            detail=f"declared {ks.r.origin_class}; "
                   "int_eps^1 dx/r growth factor over eps sweep")

    kxy = ks.k(xs[:, None], xs[None, :])
    k_tol = 1e-12 * max(1.0, ks.k.k0)
    add("coag-symmetric", float(np.max(np.abs(kxy - kxy.T))), "<=", 0.0, k_tol)
    add("coag-nonnegative", float(np.min(kxy)), ">=", 0.0)
    add("coag-class-bound", float(np.max(kxy - ks.k.class_bound(xs[:, None], xs[None, :]))),
        "<=", 0.0, k_tol, f"declared class {ks.k.bound_class!r}")

    add("absorption-nonnegative", ks.a1.beta, ">=", 0.0)
    if ks.k.is_zero and ks.a1.beta == 0.0:
        add("absorption-exponent", detail="no coagulation, no absorption")
    else:
        add("absorption-exponent", ks.k.alpha, "<", ks.a.gamma0,
            detail="alpha < gamma0 keeps a1/a bounded at infinity")

    if plan.m is not None:
        lmax = max(1.0, ell)
        add("weight-order", plan.m, ">", lmax, detail="m > max{1, l}")
        if not ks.k.is_zero:
            add("weight-order-coagulation", plan.m, ">", ks.k.alpha + lmax,
                detail="m > alpha + max{1, l}")
    return rows
