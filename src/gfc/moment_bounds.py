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
Phi(t) = M_i(t) + (delta'_i / 2) * int_0^t int_{x>=x0} a x^i f, whose
exponential envelope caps the cumulative fragmentation activity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .evolution import Trajectory
from .fragmentation import fragmentation_constants
from .grid import DensityField
from .kernels import KernelSet, ReportRow

__all__ = [
    "ConditionReport",
    "MomentBoundParams",
    "BoundTrajectory",
    "InfeasibleParamsError",
    "binary_expansion_constant",
    "global_conditions",
    "assemble_bound_params",
    "bound_system",
    "check_domination",
    "comparison_principle_residual",
    "m1_envelope_max",
]


class InfeasibleParamsError(ValueError):
    """No Young parameter can balance coagulation against fragmentation."""


@lru_cache(maxsize=64)
def binary_expansion_constant(i: float) -> float:
    """C_i = sup ((x+y)^i - x^i - y^i) / (x y^(i-1) + x^(i-1) y).

    Scale invariant, so the supremum is taken over the unit simplex
    direction.  C_2 = 1 exactly; values are cached per order.
    """
    if i < 1:
        raise ValueError("binary expansion constant needs i >= 1")
    u = np.linspace(1e-7, 0.5, 200001)  # symmetric in u <-> 1-u
    num = 1.0 - np.power(u, i) - np.power(1.0 - u, i)
    den = u * np.power(1.0 - u, i - 1.0) + np.power(u, i - 1.0) * (1.0 - u)
    sup = float(np.max(num / den))
    return sup * (1.0 + 1e-9)


@dataclass
class ConditionReport:
    cond_i: bool
    m0: float
    m1: float
    cond_ii: bool
    rtilde: float
    mu: float = float("nan")   # growth rate of the coupled (M0, M1) envelope
    detail: str = ""

    @property
    def any_holds(self) -> bool:
        return self.cond_i or self.cond_ii

    @property
    def certified(self) -> str:
        if self.cond_ii:
            return "ii"
        if self.cond_i:
            return "i"
        return "none"


def global_conditions(ks: KernelSet, xmax: float, n_samples: int = 400) -> ConditionReport:
    """Certify the structural conditions for global existence.

    Condition (i): an affine majorant of (n0(x) - 1) a(x), least-squares
    fitted on [0, xmax] and lifted, must still majorize on the extended range
    [0, 10 xmax]; superlinear production fails there.  Condition (ii): the
    growth rate satisfies r(x) <= rtilde * x at every sample, which for the
    declared forms means r0 = 0.
    """
    xs_fit = np.linspace(xmax * 1e-4, xmax, n_samples)
    xs_ext = np.concatenate([xs_fit, np.geomspace(xmax, 10.0 * xmax, n_samples // 2)])
    n0 = ks.b.number_of_daughters()
    g_fit = (n0 - 1.0) * ks.a(xs_fit)
    g_ext = (n0 - 1.0) * ks.a(xs_ext)

    slope = float(np.polyfit(xs_fit, g_fit, 1)[0])
    m1 = max(0.0, slope)
    m0 = max(0.0, float(np.max(g_fit - m1 * xs_fit)))
    resid = g_ext - (m0 + m1 * xs_ext)
    scale = 1.0 + m0 + m1 * xs_ext
    cond_i = bool(np.all(resid <= 1e-9 * scale))

    if ks.r.is_zero:
        cond_ii = True  # vacuous: no growth at all
    else:
        xs = np.geomspace(xmax * 1e-6, 10.0 * xmax, n_samples)
        cond_ii = bool(np.all(ks.r(xs) <= ks.r.rtilde * xs * (1 + 1e-9)))

    # any mu dominating the coupled linear system works; the logarithmic norm
    # of its symmetric part is the canonical computable choice
    mu = float("nan")
    if cond_i:
        A = np.array([[m0, m1], [ks.r.r0, ks.r.r1]])
        mu = float(np.max(np.linalg.eigvalsh(0.5 * (A + A.T))))

    return ConditionReport(cond_i, m0, m1, cond_ii, ks.r.rtilde, mu,
                           detail=f"(n0-1)a majorant fitted on [0, {xmax:g}], "
                                  f"verified on [0, {10 * xmax:g}]")


@dataclass
class MomentBoundParams:
    """Assembled constants of the comparison ODE cascade."""

    orders: list
    gamma0: float
    alpha: float
    rtilde: float
    condition: str                      # 'i' or 'ii'
    cond_m0: float
    cond_m1: float
    r0: float
    r1: float
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
    c_alpha: float = 1.0
    phi_order: int = 2
    x0: float = 1.0
    a_tilde: float = 0.0
    b0: float = 2.0
    power: float = 3.0                  # (2 gamma0 - alpha)/(gamma0 - alpha)

    def rhs(self, i: int, Mi: float, Mim1: float) -> float:
        """Right-hand side of the scalar comparison ODE at order i."""
        return (self.D0[i] + self.D1[i] * Mi + self.D2[i] * Mim1
                + self.D3[i] * Mim1 ** self.power)


def assemble_bound_params(ks: KernelSet, m: float, M1_envelope_max: float,
                          condition: ConditionReport, sample_hi: float,
                          mode: str = "split", phi_order: int = 2,
                          eps_margin: float = 0.9) -> MomentBoundParams:
    """Build the D-constants for orders 2 .. floor(m)+1.

    The Young parameter per order is the largest one balancing the
    coagulation production against the fragmentation sink (delta_i in the
    splitting mode, delta_i/2 when the zeroth-moment functional needs half
    the sink), shrunk by a 10% safety margin.
    """
    if mode not in ("split", "p-estimate"):
        raise ValueError(f"unknown mode {mode!r}")
    if not condition.any_holds:
        raise InfeasibleParamsError("neither global-existence condition is certified")
    gamma0, alpha = ks.a.gamma0, ks.k.alpha
    if not ks.k.is_zero and alpha >= gamma0:
        raise InfeasibleParamsError("needs alpha < gamma0")
    i_top = int(m) if float(m).is_integer() else int(math.floor(m)) + 1
    i_top = max(i_top, 2, phi_order)
    orders = list(range(2, i_top + 1))

    par = MomentBoundParams(
        orders=orders, gamma0=gamma0, alpha=alpha, rtilde=ks.r.rtilde,
        condition=condition.certified, cond_m0=condition.m0, cond_m1=condition.m1,
        r0=ks.r.r0, r1=ks.r.r1,
        M1_max=M1_envelope_max, phi_order=phi_order, x0=ks.a.x0,
        b0=ks.b.n0_bound_amplitude,
        power=(2 * gamma0 - alpha) / (gamma0 - alpha))

    k0 = ks.k.k0 if not ks.k.is_zero else 0.0
    for i in orders:
        dp, d, nu = fragmentation_constants(ks, i, sample_hi=sample_hi)
        par.delta_prime[i], par.delta[i], par.nu[i] = dp, d, nu
        Ki = binary_expansion_constant(float(i)) * k0 if k0 > 0 else 0.0
        par.K[i] = Ki
        if Ki == 0.0:
            par.eps[i] = math.inf
            par.D0[i] = 0.0
            par.D1[i] = nu + par.rtilde
            par.D2[i] = par.rtilde
            par.D3[i] = 0.0
            continue
        d_eff = d if mode == "split" else 0.5 * d
        if d_eff <= 0:
            raise InfeasibleParamsError(
                f"order {i}: fragmentation sink surrogate is nonpositive (delta = {d})")
        eps = (eps_margin * d_eff * gamma0 / (alpha * Ki * (M1_envelope_max + 1.0))) ** (alpha / gamma0)
        par.eps[i] = eps
        eps_rec = eps ** (-gamma0 / (gamma0 - alpha))  # epsilon^{gamma0/(alpha-gamma0)}
        young = (gamma0 - alpha) / gamma0 * eps_rec
        par.D0[i] = Ki * par.c_alpha * M1_envelope_max**2
        par.D1[i] = nu + par.rtilde
        par.D2[i] = par.rtilde + Ki * M1_envelope_max * (1.0 + par.c_alpha + young)
        par.D3[i] = Ki * young

    # zeroth-moment machinery under condition (ii)
    xs = np.linspace(ks.a.x0 * 1e-6, ks.a.x0, 200)
    wi = 1.0 + np.power(xs, phi_order)
    par.a_tilde = 2.0 * par.b0 * float(np.max(ks.a(xs) * wi))
    return par


@dataclass
class BoundTrajectory:
    times: np.ndarray
    columns: dict                 # order (or 'phi_env') -> np.ndarray
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

    Case (i): the coupled linear (M0, M1) system; case (ii): the closed-form
    M1 envelope plus the Phi-functional envelope that controls M0.  Higher
    integer orders follow the scalar comparison ODE driven by the previous
    level; a fractional top order m is bounded by M1 + M_(floor(m)+1).
    """
    times = np.asarray(times, dtype=float)
    cols: dict = {}
    M0_0 = initial_moments.get(0, 0.0)
    M1_0 = initial_moments.get(1, 0.0)

    if par.condition == "i":
        A = np.array([[par.cond_m0, par.cond_m1],
                      [par.r0, par.r1]])
        lin = _rk4(lambda t, y: A @ y, np.array([M0_0, M1_0]), times, dt)
        cols[0] = lin[:, 0]
        cols[1] = lin[:, 1]
    else:
        cols[1] = M1_0 * np.exp(par.rtilde * times)

    prev = cols[1]
    for i in par.orders:
        Mi0 = initial_moments.get(i, 0.0)
        prev_interp = prev  # same time nodes

        def rhs(t, y, _prev=prev_interp, _i=i):
            Mim1 = float(np.interp(t, times, _prev))
            return np.array([par.rhs(_i, float(y[0]), Mim1)])

        cols[i] = _rk4(rhs, np.array([Mi0]), times, dt)[:, 0]
        prev = cols[i]

    # Phi-functional envelope and the induced M0 control (condition (ii))
    if par.condition == "ii":
        i = par.phi_order
        theta = par.D2[i] * cols[i - 1] + par.D3[i] * np.power(cols[i - 1], par.power)
        integrand = np.exp(-par.D1[i] * times) * (par.D0[i] + theta)
        integral = np.concatenate([[0.0], cumulative_trapezoid(integrand, times)])
        phi0 = initial_moments.get(i, 0.0)
        phi_env = np.exp(par.D1[i] * times) * (phi0 + integral)
        cols["phi_env"] = phi_env
        dp = par.delta_prime[i]
        if dp > 0:
            sink_integral = 2.0 * phi_env / dp
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


def check_domination(traj: Trajectory, bounds: BoundTrajectory, ks: KernelSet,
                     tol: float = 0.05) -> list[ReportRow]:
    """Assert simulated moments stay below their bound trajectories.

    Orders 0, 1, 2 and the trajectory's weight order are compared pointwise
    in time; under condition (ii) the zeroth moment is additionally checked
    through the Phi functional assembled from the snapshots.  One
    'moment-domination' row per comparison, measuring the largest ratio of
    the simulated value to its bound against 1 + tol.
    """
    par = bounds.params
    if traj.times.shape != bounds.times.shape or np.max(np.abs(traj.times - bounds.times)) > 1e-9:
        raise ValueError("trajectory and bound system must share output times")
    m = traj.m_order
    bound_m = bounds.order_bound(m)
    if bound_m is None:
        raise KeyError(f"bound system has no bound for order {m:g}")
    rows = []

    def add(name: str, ratio: np.ndarray, detail: str = "") -> None:
        rows.append(ReportRow("moment-domination", name, float(np.max(ratio)), "<=",
                              1.0 + tol, detail=detail))

    measured = {0: traj.M0, 1: traj.M1, 2: traj.M2}
    for key, name in ((0, "M0"), (1, "M1"), (2, "M2")):
        if key not in bounds.columns:
            continue
        b = bounds.column(key)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(b > 0, measured[key] / b, np.where(measured[key] <= 0, 0.0, np.inf))
        add(name, ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound_m > 0, traj.Mm / bound_m,
                         np.where(traj.Mm <= 0, 0.0, np.inf))
    add("Mm", ratio, f"weight order {m:g}")

    if par.condition == "ii" and "phi_env" in bounds.columns:
        i = par.phi_order
        flux = np.array([_frag_flux(f, ks, i) for f in traj.fields])
        acc = np.concatenate([[0.0], cumulative_trapezoid(flux, traj.times)])
        phi = traj.moments_at(float(i)) + 0.5 * par.delta_prime[i] * acc
        env = bounds.column("phi_env")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(env > 0, phi / env, np.inf)
        add("Phi", ratio, f"functional order {i}")
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


def m1_envelope_max(par_condition: ConditionReport, ks: KernelSet, M0_0: float,
                    M1_0: float, t_end: float) -> float:
    """Supremum of the certified M1 envelope on [0, t_end]."""
    if par_condition.cond_ii:
        return M1_0 * math.exp(ks.r.rtilde * t_end)
    if par_condition.cond_i:
        A = np.array([[par_condition.m0, par_condition.m1],
                      [ks.r.r0, ks.r.r1]])
        times = np.linspace(0.0, t_end, 201)
        lin = _rk4(lambda t, y: A @ y, np.array([M0_0, M1_0]), times, min(1e-3, t_end / 200))
        return float(np.max(lin[:, 1]))
    raise InfeasibleParamsError("neither global-existence condition is certified")
