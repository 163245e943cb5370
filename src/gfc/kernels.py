"""Model coefficients of the growth-fragmentation-coagulation system.

Four rate functions drive the dynamics: the overall fragmentation rate a(x),
the daughter distribution b(x, y) of fragment sizes, the deterministic growth
speed r(x) and the binary coagulation kernel k(x, y), plus an auxiliary
absorption rate a1(x) = beta*(1 + x^alpha) used by the positive-splitting
machinery.  Each coefficient carries the structural hypotheses it is supposed
to satisfy; `validate_kernel_set` probes all of them on sampled sizes and
returns check rows instead of raising.  Their type, `ReportRow`, is defined
here, at the bottom of the import graph, because every check in the package
reports its results as ReportRows; `verdict` is the one rule that turns a
row's numbers into its status.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
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


def built_once(build):
    """A method that builds once per argument and returns that object after,
    kept in the instance __dict__ (frozen or not), outside eq and repr."""
    @functools.wraps(build)
    def built(self, *args):
        parts = self.__dict__.setdefault("_built", {})
        key = (build.__name__, *args)
        if key not in parts:
            parts[key] = build(self, *args)
        return parts[key]
    return built


def _quad(fun, lo, hi, points=None, epsabs=1e-10, epsrel=1e-8) -> float:
    val, err, _, *flag = integrate.quad(fun, lo, hi, points=points, limit=200,
                                        epsabs=epsabs, epsrel=epsrel, full_output=1)
    # QUADPACK's "probably divergent" flag (ier = 5) can come with a finite
    # value whose error estimate passes, so the flag itself is refused
    if flag and "divergent" in flag[0]:
        raise QuadratureError(f"quadrature on [{lo}, {hi}]: {flag[0]}")
    if not np.isfinite(val) or err > max(epsabs, epsrel * abs(val)) * 50:
        raise QuadratureError(
            f"quadrature on [{lo}, {hi}] reported error {err:.2e} for value {val:.6e}"
        )
    return val


def _quad_intervals(fun, lo, hi, geometric=False, points=None,
                    epsabs=1e-10, epsrel=1e-8) -> np.ndarray:
    """int_lo^hi fun(x) dx on every interval [lo_k, hi_k] of the broadcast
    arrays lo, hi, by one `quad_vec` over u in [0, 1].

    x = lo + u*(hi - lo), or x = lo*(hi/lo)^u with its Jacobian when
    `geometric`; `points` are breakpoints in u.  fun maps sizes of lo's shape
    to the integrands there (leading axes allowed, one integral each).  Each
    integrand is divided by a 10-point Gauss estimate of its integral (at
    least epsabs/epsrel), so the max-norm tolerance is relative for every
    interval, and multiplied back afterwards.  quad_vec stops at an eighth
    of its tolerance and QAGS at the whole of it, so quad_vec is asked for
    8 epsrel on the scaled integrands.  Raises QuadratureError, as `_quad`
    does, when an interval's error exceeds 50 max(epsabs, epsrel |value|).
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    span = np.log(hi / lo) if geometric else hi - lo

    def mapped(u):
        if geometric:
            x = lo * np.exp(u * span)
            return fun(x) * (x * span)
        return fun(lo + u * span) * span

    nodes, weights = np.polynomial.legendre.leggauss(10)
    guess = sum(0.5 * w * mapped(0.5 + 0.5 * t) for t, w in zip(nodes, weights))
    scale = np.maximum(np.abs(guess), epsabs / epsrel)
    val, err = integrate.quad_vec(lambda u: mapped(u) / scale, 0.0, 1.0, epsabs=8 * epsrel,
                                  epsrel=0.0, norm="max", points=points, limit=200)
    val, err = val * scale, err * scale
    bad = ~np.isfinite(val) | ~(err <= np.maximum(epsabs, epsrel * np.abs(val)) * 50)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"quadrature on [{lo.flat[k % lo.size]}, {hi.flat[k % hi.size]}] reported "
            f"error {err.flat[k]:.2e} for value {val.flat[k]:.6e}")
    return val


def _set_table(obj, knots: str, values: str) -> None:
    """Store the table fields `knots` and `values` of the frozen dataclass obj
    as float arrays once they are a table: finite, with values >= 0 (they are
    rates), at least 2 strictly increasing 1-D knots, one value per knot (per
    pair for `table_k`).  Each failure names its field; each kind checks its own."""
    for name, rule in ((knots, "finite"), (values, "finite and >= 0")):
        if getattr(obj, name) is None:
            raise KernelConfigError(f"'{name}' is required by the table kind")
        try:
            array = np.asarray(getattr(obj, name), float)
        except (TypeError, ValueError) as exc:
            raise KernelConfigError(f"'{name}' must be an array of numbers: {exc}") from exc
        bad = ~np.isfinite(array) if name == knots else ~(np.isfinite(array) & (array >= 0))
        if np.any(bad):
            raise KernelConfigError(f"'{name}' must be {rule}, got {array[bad][0]}")
        object.__setattr__(obj, name, array)
    x = getattr(obj, knots)
    if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
        raise KernelConfigError(f"'{knots}' must be 1-D, at least 2 strictly increasing knots")
    shape = (x.size, x.size) if values == "table_k" else (x.size,)
    got = getattr(obj, values).shape
    if got != shape:
        raise KernelConfigError(f"'{values}' must have shape {shape} over '{knots}', got {got}")


def _bracket(knots: np.ndarray, x):
    """The piece k of each x and the weights of knots k, k + 1: the rule
    every table is read by, linear between knots and constant beyond them,
    as a convex combination, so a steep piece does not cancel next to a knot
    and a knot or an end returns its value."""
    k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    lo, hi = knots[k], knots[k + 1]
    xc = np.clip(x, lo, hi)
    return k, (hi - xc) / (hi - lo), (xc - lo) / (hi - lo)


def _table_value(knots: np.ndarray, values: np.ndarray, x):
    k, w_lo, w_hi = _bracket(knots, x)
    return values[k] * w_lo + values[k + 1] * w_hi


@dataclass(frozen=True)
class FragmentationRate:
    """Overall breakup rate a(x).

    kinds: 'power-law' a0*x^gamma0, 'linear' (a0*x), 'table'.
    Hypotheses: a >= 0 locally bounded, and a(x) >= a0*x^gamma0 for x >= x0
    > 0; a power law is locally bounded exactly when gamma0 >= 0.
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
        if not self.x0 > 0:
            raise KernelConfigError(f"fragmentation threshold x0 must be > 0, got {self.x0}")
        if self.kind == "table":
            _set_table(self, "table_x", "table_a")
        elif self.gamma0 < 0:
            raise KernelConfigError(f"power-law fragmentation a0*x^gamma0 needs gamma0 >= 0 "
                                    f"to be locally bounded, got {self.gamma0}")

    @property
    def is_zero(self) -> bool:
        return self.kind != "table" and self.a0 == 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "table":
            return _table_value(self.table_x, self.table_a, x)
        return self.a0 * np.power(x, self.gamma0)

    def sup_below_x0(self) -> float:
        """sup of a on [0, x0], exact: a(x0) for a power law, nondecreasing
        as gamma0 >= 0; for a table, linear between knots and constant
        beyond them, the largest of a(x0) and the values at the knots <= x0."""
        knots = self.table_a[self.table_x <= self.x0] if self.kind == "table" else ()
        return float(np.max([self(self.x0), *knots]))


def _pl_integral(u: np.ndarray, phi: np.ndarray, up_to, p: float):
    """Exact int_0^up_to s^p phi(s) ds, real p >= 0, for the piecewise-linear
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
    """Fragment size distribution b(x, y) = phi(x/y)/y for a parent of size y.

    kinds:
      'power-law'       phi(u) = (nu+2) u^nu          (n0 = (nu+2)/(nu+1))
      'uniform-binary'  the power law at nu = 0, phi = 2 (n0 = 2)
      'table'           phi = the piecewise-linear table, scaled so that the
                        local mass conservation integral is exact.

    Every kind is homogeneous, so each daughter integral is one value of
    `shape_integral`, Phi_p(u) = int_0^u s^p phi(s) ds: n_p(y) = y^p Phi_p(1).
    """

    kind: str = "uniform-binary"
    nu: float = 0.0
    table_u: Optional[np.ndarray] = None
    table_phi: Optional[np.ndarray] = None
    _scale: float = field(default=1.0, repr=False)

    def __post_init__(self):
        if self.kind not in ("uniform-binary", "power-law", "table"):
            raise KernelConfigError(f"unknown daughter kind {self.kind!r}")
        if self.kind == "uniform-binary":
            object.__setattr__(self, "nu", 0.0)
        if self.kind == "power-law" and self.nu <= -1:
            raise KernelConfigError("power-law daughter exponent must exceed -1")
        if self.kind == "table":
            _set_table(self, "table_u", "table_phi")
            u, phi = self.table_u, self.table_phi
            if u[0] != 0.0 or u[-1] != 1.0:
                raise KernelConfigError("'table_u' must run from 0 to 1")
            # exact first moment of the piecewise-linear phi; renormalize so
            # that the discrete mass-conservation identity holds exactly
            m1 = _pl_integral(u, phi, 1.0, 1)
            if m1 <= 0:
                raise KernelConfigError("table daughter carries no mass")
            object.__setattr__(self, "_scale", 1.0 / m1)

    def shape_integral(self, p: float, u):
        """Phi_p(u) = int_0^u s^p phi(s) ds, exact for every real p >= 0;
        elementwise over an array of u in [0, 1]."""
        if self.kind == "table":
            return self._scale * _pl_integral(self.table_u, self.table_phi, u, p)
        return (self.nu + 2.0) / (self.nu + p + 1.0) * np.power(u, self.nu + p + 1.0)

    def number_of_daughters(self) -> float:
        """n0 = Phi_0(1): mean fragment count per breakup, at every parent size."""
        return float(self.shape_integral(0, 1.0))

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            if self.kind == "table":
                u = np.clip(x / y, 0.0, 1.0)
                out = self._scale * _table_value(self.table_u, self.table_phi, u) / y
            else:
                out = (self.nu + 2.0) * np.power(x, self.nu) / np.power(y, self.nu + 1.0)
        return np.where(x > y, 0.0, out)

    def partial_mass(self, y, up_to):
        """int_0^min(up_to, y) x b(x, y) dx = y Phi_1(z/y); elementwise over
        broadcast arrays of y and up_to."""
        z = np.maximum(np.minimum(up_to, y), 0.0)
        return y * self.shape_integral(1, z / y)

    def partial_number(self, y, up_to):
        """int_0^min(up_to, y) b(x, y) dx = Phi_0(z/y); elementwise over
        broadcast arrays of y and up_to."""
        z = np.maximum(np.minimum(up_to, y), 0.0)
        return self.shape_integral(0, z / y)


@dataclass(frozen=True)
class GrowthRate:
    """Deterministic growth speed r(x) <= r0 + r1*x.

    kinds: 'affine' r0 + r1*x, with the spellings 'constant' (r1 = 0) and
    'linear' (r0 = 0, r1 > 0); and 'table', whose r0 and r1 are a majorant.
    Everything derived from the rate reads r0 and r1, never the spelling.
    The rate 0 (r0 = r1 = 0) switches growth off entirely (desk-scale oracle
    scenarios); the structural hypotheses are then reported not-applicable.
    The origin is reachable by backward characteristics iff 1/r is integrable
    at 0, that is iff r(0) > 0: r0 > 0 for the affine law, always for a table.
    """

    kind: str = "constant"
    r0: float = 0.0
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
            _set_table(self, "table_x", "table_r")
            rs = self.table_r
            if np.any(rs <= 0):
                raise KernelConfigError("'table_r' must be strictly positive")
            # default affine majorant for tables unless supplied: constant cap
            if self.r0 == 0.0 and self.r1 == 0.0:
                object.__setattr__(self, "r0", float(np.max(rs)))

    @property
    def rtilde(self) -> float:
        return max(self.r0, self.r1)

    @property
    def is_zero(self) -> bool:
        return self.kind != "table" and self.r0 == 0.0 and self.r1 == 0.0

    @property
    def origin_class(self) -> str:
        # int_0+ dx/r converges unless r vanishes at 0, where the affine law
        # vanishes linearly; tables extend with a positive constant
        return UNREACHABLE if self.kind != "table" and self.r0 == 0.0 else REACHABLE

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "table":
            return _table_value(self.table_x, self.table_r, x)
        return self.r0 + self.r1 * x


@dataclass(frozen=True)
class CoagulationKernel:
    """Symmetric merge rate k(x, y).

    kinds: 'constant' k0, 'product' k0*(1+x^a)(1+y^a), 'sum' k0*(1+x^a+y^a),
    'table' (bilinear between knots).  `bound_class` declares which structural
    bound the kernel is validated against: 'local' for the product bound,
    'global' for the sum bound required by the global-existence theory.
    """

    kind: str = "constant"
    k0: float = 0.0
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
            _set_table(self, "table_x", "table_k")
            ks = self.table_k
            object.__setattr__(self, "table_k", 0.5 * (ks + ks.T))  # enforce symmetry exactly

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
            out = 1.0 + np.power(x, self.alpha) + np.power(y, self.alpha)
            out *= self.k0   # in place: one array of the broadcast shape, not two
            return out
        (i, xl, xh), (j, yl, yh) = _bracket(self.table_x, x), _bracket(self.table_x, y)
        K = self.table_k   # the 1-D rule in y on knot rows i and i + 1, then in x
        return (xl * (K[i, j] * yl + K[i, j + 1] * yh)
                + xh * (K[i + 1, j] * yl + K[i + 1, j + 1] * yh))

    @built_once
    def on_grid(self, grid) -> np.ndarray:
        """k(x_i, x_j) over pairs of the grid's centers, (n, n), read-only,
        kept on the kernel per grid: the coagulation tables and a table's
        class-bound premise (`class_excess`) read it, so its n^2 reads are
        made once per (kernel, grid), not at every solve."""
        return self._evaluate_on(grid)

    @built_once
    def class_excess(self, grid) -> tuple[float, int, int]:
        """The largest excess of k over `class_bound` on pairs of the grid's
        centers, and the pair (i, j) where it occurs, kept per grid."""
        x = grid.centers
        over = self.on_grid(grid) - self.class_bound(x[:, None], x[None, :])
        i, j = np.unravel_index(np.argmax(over), over.shape)
        return float(over[i, j]), int(i), int(j)

    def _evaluate_on(self, grid) -> np.ndarray:
        # evaluated as the transpose of k(x_j, x_i) over (j, i), so that the
        # coagulation tables read the pairs i <= j partner by partner in memory order
        x = grid.centers
        kxy = np.asarray(self(x[None, :], x[:, None]), dtype=float).T
        kxy.flags.writeable = False
        return kxy

    def loss_factors(self, x: np.ndarray):
        """(U, W) with k(x_i, x_j) = (U @ W)[i, j], the kernel factored:
        constant k0*1, sum k0(1 + x^a)*1 + k0*y^a, product k0(1 + x^a)(1 + y^a),
        and a table H K H^T, with H[i, :] the knots' hat functions at x_i."""
        if self.kind == "table":
            i, w_lo, w_hi = _bracket(self.table_x, x)
            hat = np.zeros((self.table_x.size, x.size))
            hat[np.stack([i, i + 1]), np.arange(x.size)] = w_lo, w_hi
            return hat.T @ self.table_k, hat
        one, xa = np.ones_like(x), np.power(x, self.alpha)
        u, w = {"constant": ([one], [one]),
                "sum": ([1.0 + xa, one], [one, xa]),
                "product": ([1.0 + xa], [1.0 + xa])}[self.kind]
        return self.k0 * np.stack(u, axis=1), np.stack(w)

    def class_bound(self, x, y):
        """Structural upper bound for the declared class: the product kernel
        for 'local', the sum kernel for 'global', with this k0 and alpha."""
        return replace(self, kind="product" if self.bound_class == "local" else "sum")(x, y)


@dataclass(frozen=True)
class AbsorptionRate:
    """Auxiliary absorption a1(x) = beta*(1 + x^alpha), beta >= 0."""

    beta: float = 0.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.beta < 0:
            raise KernelConfigError("absorption strength beta must be >= 0")

    @classmethod
    def for_ball(cls, k: CoagulationKernel, ball_radius: float) -> AbsorptionRate:
        """The shift that dominates the loss term of k on the invariant ball
        of radius ball_radius; zero when there is no coagulation."""
        return cls(compute_beta(k.k0, ball_radius), k.alpha)

    def __call__(self, x):
        return self.beta * (1.0 + np.power(np.asarray(x, dtype=float), self.alpha))


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
    """m-th moment n_m(y) = y^m Phi_m(1) of the daughter distribution for a
    size-y parent: one closed form for every kind."""
    if y <= 0:
        raise ValueError(f"parent size must be positive, got {y}")
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    return y**m * float(b.shape_integral(m, 1.0))


def moment_deficit(b: DaughterDistribution, m: float, y: float) -> float:
    """N_m(y) = y^m - n_m(y): positive for m > 1, zero at m = 1, negative below."""
    return y**m - daughter_moment(b, m, y)


N_SIZES = 50             # the hypotheses are probed at this many sizes in [xmin, xmax]
LIMINF_M0 = 2.0          # the daughter liminf check: N_m0(y)/y^m0 ...
LIMINF_THRESHOLD = 0.01  # ... stays at or above this


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

    A row without a relation is 'n/a'.
    """

    suite: str
    name: str
    measured: float = float("nan")
    relation: Optional[str] = None
    bound: float = float("nan")
    tol: float = 0.0
    detail: str = ""

    def __post_init__(self):
        if self.relation is not None and self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not self.tol >= 0.0:
            raise ValueError(f"tolerance must be >= 0, got {self.tol}")

    @property
    def status(self) -> str:
        return verdict(self.measured, self.relation, self.bound, self.tol)

    @property
    def passed(self) -> bool:
        return self.status != FAIL


def validate_kernel_set(ks: KernelSet, xmin: float, xmax: float,
                        m: Optional[float] = None) -> list[ReportRow]:
    """Probe every structural hypothesis of the coefficient bundle at N_SIZES
    sizes geometrically spaced over [xmin, xmax].

    The weight order m (and the coagulation solver requirement
    m > alpha + 1) is reported when m is given.  Failures are
    'kernel-validation' rows, never exceptions.  Checks that do not apply to
    the scenario (for instance growth positivity with growth switched off)
    are reported 'n/a'.
    """
    rows: list[ReportRow] = []

    def add(*args, **kwargs) -> None:
        rows.append(ReportRow("kernel-validation", *args, **kwargs))

    xs = np.geomspace(xmin, xmax, N_SIZES)

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

    # x = u*y on every size at once, a table's knots as breakpoints in u.  At
    # 1e-13 the residual is the law's, not the rule's (at 1e-8 nu just above
    # 0 reads 2e-10, as scalar QAGS did); polynomial integrands cost no more.
    table_u = ks.b.table_u if ks.b.kind == "table" else None
    try:
        mass = _quad_intervals(lambda x: ks.b(x, xs) * x, 0.0, xs, points=table_u,
                               epsabs=1e-15, epsrel=1e-13)
        mass_residual = float(np.max(np.abs(mass - xs) / xs))
    except QuadratureError:
        mass_residual = math.inf
    add("daughter-mass-conservation", mass_residual, "<=", 1e-8,
        detail="relative residual of int x*b(x,y) dx = y; inf if quadrature fails")

    # every kind is homogeneous, so the paper's bound n0(y) <= b0 (1 + y^l)
    # holds with l = 0 and b0 = n0 exactly when the n0 the bounds use is the
    # daughter count at every size.  Scalar QAGS, whose extrapolation resolves
    # the count's u^nu at 0 for nu < 0.
    n0 = ks.b.number_of_daughters()
    try:
        count_residual = max(
            abs(_quad(lambda x: ks.b(x, y), 0.0, float(y),
                      points=None if table_u is None else [float(u * y) for u in table_u])
                - n0) / n0
            for y in xs[[0, len(xs) // 2, -1]])
    except QuadratureError:
        count_residual = math.inf
    add("daughter-number-bound", float(count_residual), "<=", 1e-8,
        detail=f"relative residual of int b(x,y) dx = n0 = {n0:g} at 3 sizes; "
               "inf if quadrature fails")

    add("daughter-liminf", moment_deficit(ks.b, LIMINF_M0, 1.0), ">=",
        LIMINF_THRESHOLD, detail=f"N_m0(y)/y^m0 = 1 - Phi_m0(1) at every y, m0 = {LIMINF_M0}")

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
        # tail stays bounded exactly when the origin is reachable.  Each tail
        # int_eps^1 sums the panels above eps; a table's knots are panel
        # edges too, as a panel across a kink read 1e-6 off.  Each panel is
        # held to 1e-10 relative with no absolute floor: at 1e-7 relative and
        # 1e-9 absolute, a rate rising tenfold inside one panel left the
        # ratio 1.6e-8 off
        eps = np.geomspace(1e-2, 1e-8, 7)
        knots = ks.r.table_x if ks.r.kind == "table" else np.empty(0)
        edges = np.union1d(np.append(eps, 1.0), knots[(knots > eps[-1]) & (knots < 1.0)])
        panels = _quad_intervals(lambda s: 1.0 / ks.r(s), edges[:-1], edges[1:], geometric=True,
                                 epsabs=1e-300, epsrel=1e-10)
        tails = np.cumsum(panels[::-1])[::-1][np.searchsorted(edges, eps)]
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

    if m is not None:
        add("weight-order", m, ">", 1.0, detail="m > 1")
        if not ks.k.is_zero:
            add("weight-order-coagulation", m, ">", ks.k.alpha + 1.0, detail="m > alpha + 1")
    return rows
