"""A priori moment bounds and the global-existence certificates.

The moment hierarchy closes once either of two structural conditions holds:
(i) the breakup production (n0(x) - 1) a(x) is affinely bounded, which yields
an exponential envelope for the linear pair (M0, M1), or (ii) the growth rate
vanishes at the origin at least linearly, which decouples M1 entirely
(M1(t) <= M1(0) e^(rtilde t)).  Either way, every higher moment then obeys a
scalar comparison ODE

    dM_i/dt <= D0 + D1 M_i + D2 M_{i-1} + D3 M_{i-1}^((2g - a)/(g - a)),

with constants assembled from the fragmentation sink surrogates, a Young
split of the coagulation production, and the certified M1 envelope.  The
zeroth moment under condition (ii) is controlled through the functional
Phi(t) = M_i(t) + (delta'_i / 2) * int_0^t int_{x>=x0} a x^i f: it starts at
M_i(0) and obeys the order-i comparison ODE, so the order-i bound caps it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .evolution import Trajectory
from .fragmentation import fragmentation_constants
from .grid import DensityField
from .kernels import UNREACHABLE, KernelSet, ReportRow

__all__ = [
    "ConditionReport",
    "MomentBoundParams",
    "BoundTrajectory",
    "InfeasibleParamsError",
    "binary_expansion_constant",
    "global_conditions",
    "require_condition",
    "m01_envelope",
    "assemble_bound_params",
    "bound_system",
    "check_domination",
    "comparison_principle_residual",
]


PHI_ORDER = 2       # the order i of the Phi functional under condition (ii)
EPS_MARGIN = 0.9    # the Young parameter keeps 90% of its balancing value
C_ALPHA = 1.0       # the constant c_alpha of the coagulation production terms D0, D2


class InfeasibleParamsError(ValueError):
    """No Young parameter can balance coagulation against fragmentation."""


def binary_expansion_constant(i: int) -> float:
    """C_i = sup ((x+y)^i - x^i - y^i) / (x y^(i-1) + x^(i-1) y) = 2^(i-1) - 1.

    For an integer i >= 2, with t = x/y the numerator over y^i is
    (1/2) sum_{0<k<i} binom(i, k) (t^k + t^(i-k)), and each t^k + t^(i-k)
    is at most t + t^(i-1), the denominator over y^i.  So the ratio is at
    most (2^i - 2)/2, and x = y attains it.
    """
    if not float(i).is_integer() or i < 2:
        raise ValueError(f"binary expansion constant needs an integer order >= 2, got {i}")
    return 2.0 ** (i - 1) - 1.0


@dataclass
class ConditionReport:
    cond_i: bool
    m0: float
    m1: float
    cond_ii: bool

    @property
    def any_holds(self) -> bool:
        return self.cond_i or self.cond_ii

    @property
    def certified(self) -> str:
        return "ii" if self.cond_ii else "i" if self.cond_i else "none"


def global_conditions(ks: KernelSet) -> ConditionReport:
    """The structural conditions for global existence, worked out from the laws.

    (i) m0 + m1 x >= (n0 - 1) a(x) on (0, inf).  A table is constant past its
    knots: m0 = (n0 - 1) max(table_a), m1 = 0.  A power law, c = (n0 - 1) a0:
    iff c = 0 or gamma0 <= 1, on the tangent at 1 (x^g <= 1 - g + g x for
    0 <= g <= 1), m0 = c (1 - gamma0), m1 = c gamma0; else m0 = m1 = inf.
    (ii) r(x) <= rtilde x holds exactly when r(0) = 0: when the growth
    law's origin is unreachable (vacuously for zero growth)."""
    cond_ii = ks.r.origin_class == UNREACHABLE
    n0 = ks.b.number_of_daughters()
    if ks.a.kind == "table":
        return ConditionReport(True, (n0 - 1.0) * float(np.max(ks.a.table_a)), 0.0, cond_ii)
    c, g = (n0 - 1.0) * ks.a.a0, ks.a.gamma0
    if c == 0.0 or g <= 1.0:
        g = min(g, 1.0)   # no production is majorized at any gamma0
        return ConditionReport(True, c * (1.0 - g), c * g, cond_ii)
    return ConditionReport(False, math.inf, math.inf, cond_ii)


@dataclass
class MomentBoundParams:
    """Assembled constants of the comparison ODE cascade."""

    orders: list
    gamma0: float
    alpha: float
    rtilde: float
    condition: str                      # 'i' or 'ii'
    M1_max: float
    delta_prime: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)
    nu: dict = field(default_factory=dict)
    K: dict = field(default_factory=dict)
    eps: dict = field(default_factory=dict)
    D0: dict = field(default_factory=dict)
    D1: dict = field(default_factory=dict)
    D2: dict = field(default_factory=dict)
    D3: dict = field(default_factory=dict)
    x0: float = 1.0
    a_tilde: float = 0.0
    b0: float = 2.0
    power: float = 3.0                  # (2 gamma0 - alpha)/(gamma0 - alpha) where D3 > 0
    envelope: dict = field(default_factory=dict)   # m01_envelope columns

    def rhs(self, i: int, Mi: float, Mim1: float) -> float:
        """Right-hand side of the scalar comparison ODE at order i."""
        return (self.D0[i] + self.D1[i] * Mi + self.D2[i] * Mim1
                + self.D3[i] * Mim1 ** self.power)


def require_condition(condition: ConditionReport) -> None:
    """Refuse the bound cascade when neither global-existence condition holds."""
    if not condition.any_holds:
        raise InfeasibleParamsError("neither global-existence condition is certified")


def m01_envelope(condition: ConditionReport, ks: KernelSet, M0_0: float, M1_0: float,
                 times: np.ndarray, dt: float) -> dict:
    """The certified envelope of the low moments at `times`.

    Condition (ii): the closed form M1(0) e^(rtilde t) alone (M0 is then
    controlled through the Phi functional); condition (i): the coupled
    linear (M0, M1) system, integrated by RK4 with step dt.
    """
    require_condition(condition)
    times = np.asarray(times, dtype=float)
    if condition.cond_ii:
        return {1: M1_0 * np.exp(ks.r.rtilde * times)}
    A = np.array([[condition.m0, condition.m1],
                  [ks.r.r0, ks.r.r1]])
    lin = _rk4(lambda t, y: A @ y, np.array([M0_0, M1_0]), times, dt)
    return {0: lin[:, 0], 1: lin[:, 1]}


def assemble_bound_params(ks: KernelSet, m: float, envelope: dict,
                          condition: ConditionReport) -> MomentBoundParams:
    """Build the D-constants for orders 2 .. max(ceil(m), 2) on the low-moment
    envelope of `m01_envelope`, whose M1 maximum is M1_max.

    One set of formulas serves every k0.  The Young parameter per order is
    the largest one balancing the coagulation production against the
    fragmentation sink, shrunk by EPS_MARGIN.  The sink is delta_i under
    condition (i) and delta_i/2 under condition (ii), whose Phi functional
    spends the other half on M0.  Without coagulation (K_i = 0) eps = inf and
    the Young term is 0, so D0 = D3 = 0 and D2 = rtilde.
    """
    require_condition(condition)
    gamma0, alpha = ks.a.gamma0, ks.k.alpha
    if not ks.k.is_zero and alpha >= gamma0:
        raise InfeasibleParamsError("needs alpha < gamma0")
    orders = list(range(2, max(math.ceil(m), 2) + 1))
    M1_max = float(np.max(envelope[1]))

    par = MomentBoundParams(
        orders=orders, gamma0=gamma0, alpha=alpha, rtilde=ks.r.rtilde,
        condition=condition.certified, M1_max=M1_max, x0=ks.a.x0,
        b0=ks.b.number_of_daughters(), envelope=envelope)

    k0 = ks.k.k0
    if k0 > 0:
        par.power = (2 * gamma0 - alpha) / (gamma0 - alpha)   # only D3 reads it
    sink_share = 0.5 if par.condition == "ii" else 1.0
    for i in orders:
        dp, d, nu = fragmentation_constants(ks, i)
        Ki = binary_expansion_constant(i) * k0 if k0 > 0 else 0.0
        d_eff = sink_share * d
        if Ki > 0 and d_eff <= 0:
            raise InfeasibleParamsError(
                f"order {i}: fragmentation sink surrogate is nonpositive (delta = {d})")
        eps = ((EPS_MARGIN * d_eff * gamma0 / (alpha * Ki * (M1_max + 1.0))) ** (alpha / gamma0)
               if Ki > 0 else math.inf)
        young = (gamma0 - alpha) / gamma0 * eps ** (-gamma0 / (gamma0 - alpha)) if Ki > 0 else 0.0
        par.delta_prime[i], par.delta[i], par.nu[i], par.K[i], par.eps[i] = dp, d, nu, Ki, eps
        par.D0[i] = Ki * C_ALPHA * M1_max**2
        par.D1[i] = nu + par.rtilde
        par.D2[i] = par.rtilde + Ki * M1_max * (1.0 + C_ALPHA + young)
        par.D3[i] = Ki * young

    # condition (ii): a_tilde bounds 2 b0 a(x) (1 + x^PHI_ORDER) on [0, x0]
    par.a_tilde = 2.0 * par.b0 * (ks.a.sup_below_x0() * (1.0 + par.x0 ** PHI_ORDER))
    return par


@dataclass
class BoundTrajectory:
    times: np.ndarray
    columns: dict                 # order -> np.ndarray
    params: MomentBoundParams

    def column(self, key) -> np.ndarray:
        return self.columns[key]

    def order_bound(self, m: float) -> Optional[np.ndarray]:
        """The bound on M_m: its own column at an integer order, otherwise
        M1 + M_(floor(m)+1); None when the needed columns are missing."""
        if float(m).is_integer() and int(m) in self.columns:
            return self.columns[int(m)]
        top = int(math.floor(m)) + 1
        if 1 in self.columns and top in self.columns:
            return self.columns[1] + self.columns[top]
        return None


def _rk4(rhs, y0: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    """Dense fixed-step RK4 sampled at `times` (which must be multiples of dt)."""
    out = [np.asarray(y0, dtype=float)]
    y = out[0].copy()
    t = 0.0
    for target in times[1:]:
        n_sub = max(1, int(round((target - t) / dt)))
        h = (target - t) / n_sub
        for _ in range(n_sub):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        t = target
        out.append(y.copy())
    return np.array(out)


def bound_system(par: MomentBoundParams, initial_moments: dict, times: np.ndarray,
                 dt: float) -> BoundTrajectory:
    """Integrate the bound cascade on the given output times.

    The low moments are the envelope the parameters were assembled on
    (`m01_envelope` at the same times): case (i) the coupled linear (M0, M1)
    system; case (ii) the closed-form M1 envelope, and M0 through Phi, whose
    envelope is the order-PHI_ORDER column.  Higher integer orders follow the
    scalar comparison ODE driven by the previous level; a fractional top
    order m is bounded by M1 + M_(floor(m)+1).
    """
    times = np.asarray(times, dtype=float)
    cols = dict(par.envelope)
    if cols[1].shape != times.shape:
        raise ValueError("the parameters were assembled on an envelope at other times")
    M0_0 = initial_moments.get(0, 0.0)

    prev = cols[1]
    for i in par.orders:
        Mi0 = initial_moments.get(i, 0.0)

        def rhs(t, y, _prev=prev, _i=i):  # prev lives on the same time nodes
            Mim1 = float(np.interp(t, times, _prev))
            return np.array([par.rhs(_i, float(y[0]), Mim1)])

        cols[i] = _rk4(rhs, np.array([Mi0]), times, dt)[:, 0]
        prev = cols[i]

    # M0 control under condition (ii), through Phi's envelope: the order-i column
    if par.condition == "ii":
        i = PHI_ORDER
        dp = par.delta_prime[i]
        if dp > 0:
            sink_integral = 2.0 * cols[i] / dp
            cols[0] = np.exp(par.a_tilde * times) * (
                M0_0 + 2.0 * par.b0 * (1.0 + par.x0 ** (-i)) * sink_integral)
        else:
            cols[0] = np.full_like(times, np.inf)

    return BoundTrajectory(times, cols, par)


def _frag_flux(f: DensityField, ks: KernelSet, i: int) -> float:
    """int_{x >= x0} a(x) x^i f(x) dx on the grid."""
    x = f.grid.centers
    mask = x >= ks.a.x0
    return float(np.sum(ks.a(x[mask]) * np.power(x[mask], i)
                        * f.values[mask] * f.grid.widths[mask]))


DOMINATION_TOL = 0.05   # slack on each simulated-over-bound ratio


def check_domination(traj: Trajectory, bounds: BoundTrajectory,
                     ks: KernelSet) -> list[ReportRow]:
    """Assert simulated moments stay below their bound trajectories.

    Orders 0, 1, 2 and the trajectory's weight order are compared pointwise
    in time; under condition (ii) the zeroth moment is additionally checked
    through the Phi functional assembled from the snapshots, against the
    order-PHI_ORDER bound.  One 'moment-domination' row per comparison: the
    largest simulated-over-bound ratio over t > 0 against 1 + DOMINATION_TOL.
    """
    par = bounds.params
    if traj.times.shape != bounds.times.shape or np.max(np.abs(traj.times - bounds.times)) > 1e-9:
        raise ValueError("trajectory and bound system must share output times")
    m = traj.m_order
    bound_m = bounds.order_bound(m)
    if bound_m is None:
        raise KeyError(f"bound system has no bound for order {m:g}")
    rows = []

    def add(name: str, simulated: np.ndarray, bound: np.ndarray, detail: str = "") -> None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bound > 0, simulated / bound, np.where(simulated <= 0, 0.0, np.inf))
        # t = 0 is left out: there the bound is the data
        rows.append(ReportRow("moment-domination", name, float(np.max(ratio[1:])), "<=",
                              1.0 + DOMINATION_TOL, detail=detail))

    for key, name, simulated in ((0, "M0", traj.M0), (1, "M1", traj.M1), (2, "M2", traj.M2)):
        if key in bounds.columns:
            add(name, simulated, bounds.column(key))
    add("Mm", traj.Mm, bound_m, f"weight order {m:g}")

    if par.condition == "ii":
        i = PHI_ORDER
        flux = np.array([_frag_flux(f, ks, i) for f in traj.fields])
        acc = np.concatenate([[0.0], cumulative_trapezoid(flux, traj.times)])
        phi = traj.moments_at(float(i)) + 0.5 * par.delta_prime[i] * acc
        add("Phi", phi, bounds.column(i), f"functional order {i}")
    return rows


def comparison_principle_residual(traj: Trajectory, par: MomentBoundParams) -> float:
    """Worst normalized excess of the measured moment derivative over the
    bound ODE right-hand side evaluated at the measured moments.

    Nonpositive (up to discretization noise) whenever the bound cascade is a
    genuine majorant of the dynamics.
    """
    worst = -math.inf
    times = traj.times
    for i in par.orders:
        Mi = traj.moments_at(float(i))
        Mim1 = traj.M1 if i == 2 else traj.moments_at(float(i - 1))
        for k in range(1, len(times) - 1):
            dMdt = (Mi[k + 1] - Mi[k - 1]) / (times[k + 1] - times[k - 1])
            rhs = par.rhs(i, Mi[k], Mim1[k])
            scale = max(abs(rhs), abs(dMdt), 1.0)
            worst = max(worst, (dMdt - rhs) / scale)
    return worst
