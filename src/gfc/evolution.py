"""Time advance of the growth-fragmentation-coagulation system.

Two solvers:

* operator splitting (`solve`): exact characteristic transport composed with
  a reaction substep that integrates the linear sink exactly and redistributes
  exactly the absorbed amounts, so fragmentation, absorption and coagulation
  are each mass-neutral to rounding and nonnegativity is structural;
* Picard iteration on the mild formulation (`duhamel_solve`): iterates
  f_{j+1}(t) = S(t) f0 + int_0^t S(t-s) K_beta f_j(s) ds with S the shifted
  linear growth-fragmentation propagator and K_beta the shifted coagulation
  operator, which keeps every iterate nonnegative on the configured ball.

Both solvers share the spatial discretization: the grid, the exact
characteristic transport (`transport_apply`), the daughter matrix, the
coagulation operator and the exact linear-sink step.  They differ in time
integration (operator splitting against Picard iteration on the mild
formulation), so their agreement cross-validates the time integration.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coagulation import CoagTables, apply_coag, apply_coag_beta, build_coag_tables
from .fragmentation import DaughterMatrix, apply_frag, build_daughter_matrix, daughter_gain
from .grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from .kernels import CoagulationKernel, KernelSet, compute_beta
from .transport import make_antiderivatives, transport_apply

__all__ = [
    "SolverConfig",
    "Trajectory",
    "DuhamelReport",
    "ProbeReport",
    "ResidualReport",
    "ConfigError",
    "NumericalFailureError",
    "SetupError",
    "SplitStepper",
    "solve",
    "duhamel_solve",
    "regularization_probe",
    "pde_residual",
]


class ConfigError(ValueError):
    """Solver configuration violates a structural precondition."""


class SetupError(ValueError):
    """A probe's initial data fails its membership precondition."""


class NumericalFailureError(RuntimeError):
    """NaN/Inf encountered while stepping; carries diagnostic context."""


@dataclass
class SolverConfig:
    """Time-stepping parameters and the weight-order bookkeeping.

    The secondary orders satisfy max{1, l} < n < p < m with p = m - alpha
    when the Duhamel solver is used; the advective CFL keeps the
    semi-Lagrangian remap local and the positivity bound keeps the explicit
    coagulation loss dominated on the configured ball.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "strang-split"      # 'lie-split' | 'strang-split' | 'duhamel'
    reaction: str = "matched"         # 'matched' | 'naive' (negative control)
    m: float = 2.0
    n: Optional[float] = None
    p: Optional[float] = None
    ball_radius: float = 1.0
    use_beta_shift: bool = True
    positivity_policy: str = "guaranteed"   # 'guaranteed' | 'off'
    output_every: float = 0.05
    cfl_safety: float = 0.9
    blowup_ceiling: float = 1e6
    picard_tol: float = 1e-8
    picard_max_iter: int = 30

    def validate(self, ks: KernelSet, grid: SizeGrid) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.scheme not in ("lie-split", "strang-split", "duhamel"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.reaction not in ("matched", "naive"):
            raise ConfigError(f"unknown reaction variant {self.reaction!r}")
        if self.positivity_policy not in ("guaranteed", "off"):
            raise ConfigError(f"unknown positivity policy {self.positivity_policy!r}")
        ell = ks.b.n0_bound_exponent
        lmax = max(1.0, ell)
        if self.m <= lmax:
            raise ConfigError(f"weight order m = {self.m} must exceed max(1, l) = {lmax}")
        if not ks.k.is_zero and self.m <= ks.k.alpha + lmax:
            raise ConfigError(
                f"coagulation needs m > alpha + max(1, l) = {ks.k.alpha + lmax}")
        if self.scheme == "duhamel":
            if self.p is None or self.n is None:
                raise ConfigError("duhamel scheme needs the secondary orders n and p")
            if not (lmax < self.n < self.p < self.m):
                raise ConfigError("orders must satisfy max(1, l) < n < p < m")
            if abs(self.p - (self.m - ks.k.alpha)) > 1e-12:
                raise ConfigError("duhamel scheme requires p = m - alpha")
            if (self.m - self.n) / ks.a.gamma0 >= 1.0:
                raise ConfigError("(m - n)/gamma0 must be below 1 for the Duhamel integral")
        # advective CFL against the upwind cell edge
        if not ks.r.is_zero:
            r_edge = ks.r(grid.edges[1:])
            with np.errstate(divide="ignore"):
                limit = float(np.min(np.where(r_edge > 0, grid.widths / r_edge, np.inf)))
            if self.dt > self.cfl_safety * limit:
                raise ConfigError(
                    f"dt = {self.dt} violates the advective CFL limit {self.cfl_safety * limit:.3e}")
        if self.positivity_policy == "guaranteed":
            x = grid.centers
            if ks.k.kind == "table":
                # beta below is derived from the declared class bound, which a
                # table need not respect (k0 defaults to 0)
                xx, yy = x[:, None], x[None, :]
                over = ks.k(xx, yy) - ks.k.class_bound(xx, yy)
                i, j = np.unravel_index(np.argmax(over), over.shape)
                if over[i, j] > 1e-12 * max(1.0, ks.k.k0):
                    raise ConfigError(
                        "positivity cannot be guaranteed: the table coagulation kernel "
                        f"exceeds its {ks.k.bound_class!r} class bound with k0 = {ks.k.k0} "
                        f"by {over[i, j]:.3e} at (x_{i}, x_{j}) = ({x[i]:.4g}, {x[j]:.4g}); "
                        "raise k0 or disable the policy")
            beta = compute_beta(ks.k.k0, self.ball_radius) if not ks.k.is_zero else 0.0
            shield = ks.a(x) + beta * (1.0 + np.power(x, ks.k.alpha))
            worst = float(np.max(shield)) if shield.size else 0.0
            if self.dt * worst > 1.0:
                raise ConfigError(
                    "positivity cannot be guaranteed: dt * max(a + beta*(1+x^alpha)) = "
                    f"{self.dt * worst:.3f} exceeds 1; lower dt or disable the policy")


class Trajectory:
    """Snapshots of one run plus the scalar observables of each.

    The trajectory keeps the snapshots it is given and computes every column
    from them; growth_mass is the solver's running growth ledger at the
    snapshot times (zero for a Duhamel solve, which keeps none).
    """

    def __init__(self, grid: SizeGrid, m_order: float, times, snapshots: list,
                 growth_mass, outcome: str = "completed"):
        self.grid, self.m_order, self.outcome = grid, m_order, outcome
        self.times = np.asarray(times, dtype=float)
        self.fields = snapshots
        self.growth_mass = np.asarray(growth_mass, dtype=float)
        wm = WeightSpec(m_order, "shifted")

        def column(observable) -> np.ndarray:
            return np.array([observable(f) for f in snapshots])

        self.M0 = column(lambda f: moment(f, 0.0))
        self.M1 = column(lambda f: moment(f, 1.0))
        self.M2 = column(lambda f: moment(f, 2.0))
        self.Mm = column(lambda f: moment(f, m_order))
        self.norm0m = column(lambda f: weighted_integral(f, wm))
        self.min_density = column(DensityField.min_value)
        self.escaped_mass = column(lambda f: f.escaped_mass)

    def moments_at(self, order: float) -> np.ndarray:
        return np.array([moment(f, order) for f in self.fields])


class SplitStepper:
    """One Lie or Strang composition of transport and reaction.

    Transport advects along exact characteristics; the reaction substep
    solves the total linear sink (fragmentation loss plus the beta-shift
    absorption) exactly per cell, redistributes exactly the absorbed
    fragmentation share through the daughter matrix, returns the absorbed
    shift share pointwise, and advances coagulation explicitly.  Every
    circuit is mass-neutral to rounding; growth is the only mass source and
    is accounted in a running ledger.  `linear_step` advances only the
    linear growth-fragmentation part on the same set-up, with the absorbed
    shift share removed.
    """

    def __init__(self, ks: KernelSet, grid: SizeGrid, cfg: SolverConfig,
                 dm: Optional[DaughterMatrix] = None,
                 ct: Optional[CoagTables] = None):
        self.ks, self.grid, self.cfg = ks, grid, cfg
        x = grid.centers
        self.a = ks.a(x)
        self.has_frag = not ks.a.is_zero
        self.has_coag = not ks.k.is_zero
        self.dm = dm if dm is not None else (build_daughter_matrix(ks.b, grid) if self.has_frag else None)
        self.ct = ct if ct is not None else (build_coag_tables(ks.k, grid) if self.has_coag else None)
        self.beta = compute_beta(ks.k.k0, cfg.ball_radius) if (self.has_coag and cfg.use_beta_shift) else 0.0
        self.a1 = self.beta * (1.0 + np.power(x, ks.k.alpha)) if self.beta > 0 else np.zeros_like(x)
        self.antid = None if ks.r.is_zero else make_antiderivatives(ks, grid)
        self.growth_mass = 0.0

    # -- substeps -------------------------------------------------------
    def _transport(self, f: DensityField, dt: float) -> DensityField:
        if self.ks.r.is_zero:
            return f
        before = moment(f, 1.0) + f.escaped_mass
        out = transport_apply(f, dt, self.ks, self.cfg.m, antid=self.antid,
                              include_absorption=False)
        self.growth_mass += moment(out, 1.0) + out.escaped_mass - before
        return out

    def _linear_sink(self, g: np.ndarray, dt: float, keep_shift: bool) -> np.ndarray:
        """Exact per-cell decay of the total linear sink a + a1 over dt.

        Exactly the fragmentation share of the absorbed amount re-enters
        through the daughter matrix.  The shift share is returned in place
        when keep_shift (the mass-neutral split reaction) and removed
        otherwise (the absorption semigroup the Duhamel formula is built on).
        """
        c = self.a + self.a1
        decay = np.exp(-c * dt)
        absorbed = g * (1.0 - decay)
        with np.errstate(divide="ignore", invalid="ignore"):
            to_frag = np.where(c > 0, absorbed * self.a / c, 0.0)
        out = decay * g
        if keep_shift:
            out = out + (absorbed - to_frag)
        if self.has_frag:
            out = out + daughter_gain(self.dm, to_frag * self.grid.widths)
        return out

    def _reaction(self, f: DensityField, dt: float) -> DensityField:
        g = f.values
        esc = f.escaped_mass
        if self.cfg.reaction == "naive":
            out = g.copy()
            if self.has_frag:
                ff = apply_frag(f, self.ks, self.dm)
                out = out + dt * ff.values
        else:
            out = self._linear_sink(g, dt, keep_shift=True)
        if self.has_coag:
            kf = apply_coag(f, self.ct)
            out = out + dt * kf.values
            esc += dt * kf.escaped_mass
        return DensityField(self.grid, out, esc)

    def step(self, f: DensityField, dt: float) -> DensityField:
        if self.cfg.scheme == "lie-split":
            return self._reaction(self._transport(f, dt), dt)
        half = 0.5 * dt
        return self._transport(self._reaction(self._transport(f, half), dt), half)

    def linear_step(self, f: DensityField, dt: float) -> DensityField:
        """Transport, then the linear sink with the shift share removed."""
        if not self.ks.r.is_zero:
            f = transport_apply(f, dt, self.ks, self.cfg.m, antid=self.antid,
                                include_absorption=False)
        return DensityField(self.grid, self._linear_sink(f.values, dt, keep_shift=False),
                            f.escaped_mass)

    def advance_linear(self, f: DensityField, tau: float, n_sub: int) -> DensityField:
        h = tau / n_sub
        for _ in range(n_sub):
            f = self.linear_step(f, h)
        return f


def solve(f0: DensityField, cfg: SolverConfig, ks: KernelSet,
          dm: Optional[DaughterMatrix] = None,
          ct: Optional[CoagTables] = None) -> Trajectory:
    """March the splitting scheme (lie-split or strang-split) to t_end,
    recording observables.

    A blow-up monitor halts with outcome 'blowup' once the weighted norm of
    |f| exceeds the configured ceiling over its initial value, so a negative
    runaway trips it too; that is a result variant, not an error.  NaN/Inf
    raises NumericalFailureError.
    """
    cfg.validate(ks, f0.grid)
    if cfg.scheme == "duhamel":
        raise ConfigError("solve marches the splitting schemes; "
                          "scheme 'duhamel' is solved by duhamel_solve")
    stepper = SplitStepper(ks, f0.grid, cfg, dm=dm, ct=ct)
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ConfigError("t_end must be an integer number of steps")
    every = max(1, int(round(cfg.output_every / cfg.dt)))

    times, snapshots, growth = [0.0], [f0.copy()], [stepper.growth_mass]
    wm = WeightSpec(cfg.m, "shifted")

    def abs_norm(f: DensityField) -> float:
        return weighted_integral(DensityField(f.grid, np.abs(f.values)), wm)

    ceiling = cfg.blowup_ceiling * max(abs_norm(f0), 1e-300)
    f = f0
    outcome = "completed"
    for step in range(1, n_steps + 1):
        f = stepper.step(f, cfg.dt)
        if not np.all(np.isfinite(f.values)):
            raise NumericalFailureError(
                f"non-finite density at t = {step * cfg.dt:.6g} (step {step}); "
                f"min = {np.nanmin(f.values):.3e}, max = {np.nanmax(f.values):.3e}")
        if step % every == 0 or step == n_steps:
            times.append(step * cfg.dt)
            snapshots.append(f.copy())
            growth.append(stepper.growth_mass)
            if abs_norm(f) > ceiling:
                outcome = "blowup"
                break
    return Trajectory(f0.grid, cfg.m, times, snapshots, growth, outcome)


# ---------------------------------------------------------------------------
# Duhamel / Picard solver


@dataclass
class DuhamelReport:
    converged: bool
    iterations: int
    contraction_factors: list
    contraction_window: float


def duhamel_solve(f0: DensityField, cfg: SolverConfig, ks: KernelSet,
                  dm: Optional[DaughterMatrix] = None,
                  ct: Optional[CoagTables] = None) -> tuple[Trajectory, DuhamelReport]:
    """Picard iteration on the mild formulation.

    Requires the initial state inside the configured ball; every iterate then
    stays nonnegative because the shifted coagulation operator is nonnegative
    there.  The time convolution uses the product-trapezoid recurrence
    G_k = S(dt_out)[G_{k-1} + (dt_out/2) K f_{k-1}] + (dt_out/2) K f_k with
    the propagator resolved by fine substeps, and reports the empirical
    contraction factor plus the largest time window on which contraction held.
    A daughter matrix dm and coagulation tables ct built for (ks, f0.grid)
    are used as given instead of being rebuilt.
    """
    grid = f0.grid
    cfg.validate(ks, grid)
    wm = WeightSpec(cfg.m, "shifted")
    if weighted_integral(f0, wm) > cfg.ball_radius * (1 + 1e-12):
        raise ConfigError("duhamel solver needs the initial state inside the ball")

    # the mild formulation is built on the shifted operators whatever
    # use_beta_shift says for the splitting scheme
    prop = SplitStepper(ks, grid, replace(cfg, use_beta_shift=True), dm=dm, ct=ct)
    n_out = int(round(cfg.t_end / cfg.output_every))
    d_out = cfg.t_end / n_out
    n_sub = max(1, int(round(d_out / cfg.dt)))
    times = np.arange(n_out + 1) * d_out

    # linear part S(t_k) f0, iterate independent
    lin = [f0.copy()]
    for _ in range(n_out):
        lin.append(prop.advance_linear(lin[-1], d_out, n_sub))

    def k_beta(f: DensityField) -> DensityField:
        if prop.ct is None:
            return DensityField(grid, prop.a1 * f.values)
        return apply_coag_beta(f, prop.ct, prop.beta, ks.k.alpha)

    iterates = [fld.copy() for fld in lin]
    prev_err: Optional[np.ndarray] = None
    factors: list[float] = []
    converged = False
    err_nodes = np.zeros(n_out + 1)
    it = 0
    for it in range(1, cfg.picard_max_iter + 1):
        sources = [k_beta(fld) for fld in iterates]
        new = [f0.copy()]
        G = DensityField.zeros(grid)
        for k in range(1, n_out + 1):
            carry = DensityField(grid, G.values + 0.5 * d_out * sources[k - 1].values,
                                 G.escaped_mass + 0.5 * d_out * sources[k - 1].escaped_mass)
            G = prop.advance_linear(carry, d_out, n_sub)
            G = DensityField(grid, G.values + 0.5 * d_out * sources[k].values,
                             G.escaped_mass + 0.5 * d_out * sources[k].escaped_mass)
            new.append(DensityField(grid, lin[k].values + G.values,
                                    lin[k].escaped_mass + G.escaped_mass))
        err_nodes = np.array([
            weighted_integral(DensityField(grid, np.abs(new[k].values - iterates[k].values)), wm)
            for k in range(n_out + 1)])
        err = float(np.max(err_nodes))
        if prev_err is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                node_factors = np.where(prev_err > 0, err_nodes / np.maximum(prev_err, 1e-300), 0.0)
            factors.append(float(np.max(node_factors[1:])) if n_out else 0.0)
        prev_err = err_nodes
        iterates = new
        if err <= cfg.picard_tol * max(1.0, weighted_integral(f0, wm)):
            converged = True
            break

    window = cfg.t_end
    if factors and factors[-1] >= 1.0 and prev_err is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = np.maximum.accumulate(np.where(prev_err > 0, err_nodes / np.maximum(prev_err, 1e-300), 0.0)) < 1.0
        idx = np.nonzero(ok)[0]
        window = float(times[idx[-1]]) if idx.size else 0.0

    traj = Trajectory(grid, cfg.m, times, iterates, np.zeros(n_out + 1))
    return traj, DuhamelReport(converged, it, factors, window)


# ---------------------------------------------------------------------------
# moment-regularization probe of the linear semigroup


@dataclass
class ProbeReport:
    theta_hat: float
    sup_product: float
    variation: float
    norms: np.ndarray
    times: np.ndarray


def _linear_norm_curve(ks: KernelSet, grid: SizeGrid, m: float, f0: DensityField,
                       t_list: np.ndarray, dt: float) -> np.ndarray:
    cfg = SolverConfig(dt=dt, t_end=float(t_list[-1]), m=m, scheme="lie-split",
                       positivity_policy="off", use_beta_shift=False)
    # the unshifted linear semigroup needs no coagulation tables
    prop = SplitStepper(replace(ks, k=CoagulationKernel(k0=0.0)), grid, cfg)
    wm = WeightSpec(m, "shifted")
    norms = []
    f = f0.copy()
    t = 0.0
    for target in t_list:
        n_sub = max(1, int(round((target - t) / dt)))
        if target > t:
            f = prop.advance_linear(f, target - t, n_sub)
            t = target
        norms.append(weighted_integral(f, wm))
    return np.array(norms)


def regularization_probe(ks: KernelSet, grid: SizeGrid, m: float, n: float, p: float,
                         t_list: np.ndarray, eta: float = 0.25, dt: float = 1e-3,
                         membership_growth_min: float = 1.2) -> ProbeReport:
    """Probe the moment-regularization rate of the linear semigroup.

    The initial profile (1 + x)^(-(p + 1 + eta)) has a finite p-weighted norm
    but lies outside the m-weighted space on the untruncated axis, certified
    by its truncated m-norm growing under domain doubling.  The probe reports
    sup over t of t^((m-n)/gamma0) e^(-theta_hat t) ||S(t) f0||_[0,m] with
    theta_hat fitted on the late times, and its relative variation under grid
    and domain doubling; a grid-stable supremum empirically confirms the
    blow-up exponent is not worse than (m - n)/gamma0.
    """
    lmax = max(1.0, ks.b.n0_bound_exponent)
    if not (lmax < n < p < m):
        raise SetupError("orders must satisfy max(1, l) < n < p < m")
    t_list = np.asarray(t_list, dtype=float)

    def profile(x):
        return np.power(1.0 + x, -(p + 1.0 + eta))

    f0 = project(profile, grid)
    wm = WeightSpec(m, "shifted")
    wide = SizeGrid.geometric(grid.xmin, grid.xmax * 2.0, grid.cells)
    ratio = weighted_integral(project(profile, wide), wm) / weighted_integral(f0, wm)
    if not np.isfinite(ratio) or ratio < membership_growth_min:
        raise SetupError(
            f"initial profile looks m-integrable: truncated norm grew only {ratio:.3f}x "
            "under xmax doubling")

    kappa = (m - n) / ks.a.gamma0

    def run(g: SizeGrid) -> tuple[float, float, np.ndarray]:
        norms = _linear_norm_curve(ks, g, m, project(profile, g), t_list, dt)
        tail = t_list >= t_list[-1] / 3.0
        theta = max(0.0, float(np.polyfit(t_list[tail], np.log(norms[tail]), 1)[0]))
        product = np.power(t_list, kappa) * np.exp(-theta * t_list) * norms
        return float(np.max(product)), theta, norms

    sup1, theta1, norms = run(grid)
    refined = SizeGrid.geometric(grid.xmin, grid.xmax * 2.0, grid.cells * 2)
    sup2, _, _ = run(refined)
    variation = abs(sup2 - sup1) / sup1
    return ProbeReport(theta1, sup1, variation, norms, t_list)


# ---------------------------------------------------------------------------
# discrete residual of the strong equation


@dataclass
class ResidualReport:
    times: np.ndarray
    norms: np.ndarray
    weight_order: float

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms)) if self.norms.size else 0.0


def pde_residual(traj: Trajectory, ks: KernelSet, dm: Optional[DaughterMatrix],
                 ct: Optional[CoagTables], p: Optional[float] = None) -> ResidualReport:
    """Central-difference time derivative against the discrete right-hand side.

    Evaluated at interior output times in the p-weighted norm; decays under
    dt and grid refinement for smooth scenarios, and vanishes identically on
    stationary states.
    """
    if len(traj.fields) < 3:
        raise ValueError("need at least three snapshots for a central difference")
    p = traj.m_order if p is None else p
    grid = traj.grid
    x = grid.centers
    w = WeightSpec(p, "shifted")(x)
    out_t, out_norm = [], []
    for k in range(1, len(traj.fields) - 1):
        dt2 = traj.times[k + 1] - traj.times[k - 1]
        dfdt = (traj.fields[k + 1].values - traj.fields[k - 1].values) / dt2
        fk = traj.fields[k]
        rhs = np.zeros_like(x)
        if not ks.r.is_zero:
            rhs = rhs - np.gradient(ks.r(x) * fk.values, x)
        if dm is not None:
            rhs = rhs + apply_frag(fk, ks, dm).values
        if ct is not None:
            rhs = rhs + apply_coag(fk, ct).values
        resid = dfdt - rhs
        inner = slice(1, -1)
        out_t.append(traj.times[k])
        out_norm.append(float(np.sum(np.abs(resid[inner]) * w[inner] * grid.widths[inner])))
    return ResidualReport(np.array(out_t), np.array(out_norm), p)
