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
  Interval k of iteration j needs only interval k-1 of iteration j and the
  nodes k-1 and k of iteration j-1, so a block of iterations advances in
  lockstep: at each wave the linear part S(t_k) f0 (while it runs) and every
  iteration of the block advance one output interval, all as one stack
  through the linear propagator, and then land oldest first, each reading
  the node its predecessor has just landed.  Blocks are sized by the
  observed contraction, so that the last one usually holds the iteration
  that converges.  This is waveform relaxation on one window with the
  iterations pipelined in blocks (Womble, SIAM J. Sci. Stat. Comput. 11,
  1990), used here to batch array calls.

Both solvers share the spatial discretization: the grid, the exact
characteristic transport (`transport_apply`), the daughter matrix, the
coagulation operator and the exact linear-sink step.  They differ in time
integration (operator splitting against Picard iteration on the mild
formulation), so their agreement cross-validates the time integration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coagulation import CoagTables, apply_coag, apply_coag_beta, build_coag_tables
from .fragmentation import (DaughterMatrix, apply_frag, build_daughter_matrix, daughter_gain,
                            fold_sink)
from .grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from .kernels import AbsorptionRate, CoagulationKernel, KernelSet, ReportRow, built_once
from .transport import make_antiderivatives, transport_apply

__all__ = [
    "SolverConfig",
    "Trajectory",
    "DuhamelReport",
    "ConfigError",
    "NumericalFailureError",
    "SetupError",
    "SplitStepper",
    "solve",
    "duhamel_solve",
    "regularization_probe",
    "pde_residual",
]


BLOWUP_CEILING = 1e6           # a split run stops once its norm grows this much
PICARD_TOL = 1e-8              # Picard stops below this relative update ...
PICARD_MAX_ITER = 30           # ... or after this many iterations
MEMBERSHIP_GROWTH_MIN = 1.2    # probe data must grow this much under xmax doubling
PROBE_TIMES = np.geomspace(1e-2, 1.0, 13)   # the probe's sampling times
PROBE_ETA = 0.25   # the probe's profile decays like x^-(p + 1 + PROBE_ETA)
SCHEMES = ("lie-split", "duhamel")          # splitting (`solve`) and Picard (`duhamel_solve`)


class ConfigError(ValueError):
    """Solver configuration violates a structural precondition."""


class SetupError(ValueError):
    """A probe's initial data fails its membership precondition."""


class NumericalFailureError(RuntimeError):
    """NaN/Inf encountered while stepping; carries diagnostic context."""


@dataclass
class SolverConfig:
    """Time-stepping parameters and the weight-order bookkeeping.

    output_every divides t_end and, under lie-split, is a whole number of
    steps (a Duhamel run picks its own substep).  The Duhamel scheme needs
    `mild_premise`; n and p are the regularization probe's orders, read by
    no solver.  The one bound on dt is the positivity step bound, which
    keeps the explicit coagulation loss dominated on the configured ball,
    whose shift the kernel set carries; the transport is exact along
    characteristics and needs none.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "lie-split"         # one of SCHEMES
    m: float = 2.0
    n: Optional[float] = None
    p: Optional[float] = None
    ball_radius: float = 1.0
    output_every: float = 0.05

    def validate(self, ks: KernelSet, grid: SizeGrid) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; allowed: {', '.join(SCHEMES)}")
        if self.m <= 1.0:
            raise ConfigError(f"weight order m = {self.m} must exceed 1")
        if not ks.k.is_zero and self.m <= ks.k.alpha + 1.0:
            raise ConfigError(f"coagulation needs m > alpha + 1 = {ks.k.alpha + 1.0}")
        if self.scheme == "duhamel" and (reason := mild_premise(ks, self.m)):
            raise ConfigError(reason)
        # the step bound and the mild formulation both rest on the shift for this ball
        shift = AbsorptionRate.for_ball(ks.k, self.ball_radius)
        if ks.a1 != shift:
            raise ConfigError(
                f"the kernel set's shift {ks.a1} is not the one for ball radius "
                f"{self.ball_radius} ({shift})")
        x = grid.centers
        if ks.k.kind == "table":
            # the shift is derived from the declared class bound, which a
            # table need not respect (k0 defaults to 0); kept per (kernel, grid)
            over, i, j = ks.k.class_excess(grid)
            if over > 1e-12 * max(1.0, ks.k.k0):
                raise ConfigError(
                    "positivity cannot be guaranteed: the table coagulation kernel "
                    f"exceeds its {ks.k.bound_class!r} class bound with k0 = {ks.k.k0} "
                    f"by {over:.3e} at (x_{i}, x_{j}) = ({x[i]:.4g}, {x[j]:.4g}); "
                    "raise k0")
        worst = float(np.max(ks.q(x)))
        if self.dt * worst > 1.0:
            raise ConfigError(
                "positivity cannot be guaranteed: dt * max(a + beta*(1+x^alpha)) = "
                f"{self.dt * worst:.3f} exceeds 1; lower dt")
        if not _whole_multiple(self.t_end, self.dt):
            raise ConfigError("t_end must be an integer number of steps")
        if not 0 < self.output_every <= self.t_end:
            raise ConfigError(f"output_every = {self.output_every} must lie in "
                              f"(0, t_end = {self.t_end}]")
        if not _whole_multiple(self.t_end, self.output_every):
            raise ConfigError(f"output_every = {self.output_every} must divide "
                              f"t_end = {self.t_end}")
        if self.scheme == "lie-split" and not _whole_multiple(self.output_every, self.dt):
            raise ConfigError(f"output_every = {self.output_every} must be a whole number "
                              f"of steps dt = {self.dt} under lie-split")


def mild_premise(ks: KernelSet, m: float) -> Optional[str]:
    """Why the mild formulation in X_[0,m] fails, or None.  K maps X_m to
    X_(m - alpha), and the Duhamel integral needs an order n in
    (max(1, m - gamma0), m - alpha): one exists iff m > alpha + 1 and alpha < gamma0."""
    alpha, gamma0 = ks.k.alpha, ks.a.gamma0
    if not alpha < gamma0:
        return f"the mild formulation needs alpha = {alpha:g} < gamma0 = {gamma0:g}"
    if not m > alpha + 1.0:
        return f"the mild formulation needs m = {m:g} > alpha + 1 = {alpha + 1.0:g}"
    return None


def _whole_multiple(total: float, part: float) -> int:
    """total / part if it is a whole number >= 1, to 1e-9 relative, else 0."""
    k = round(total / part)
    return k if k >= 1 and abs(k * part - total) <= 1e-9 * max(1.0, total) else 0


class Trajectory:
    """Snapshots of one run plus the scalar observables of each.

    The trajectory keeps the snapshots it is given and computes every column
    from them; growth_mass is the split solver's growth ledger (a per-cell
    running sum, summed exactly at each output) at the snapshot times, or
    None for a Duhamel solve, which keeps none: the mild form conserves mass
    only to the accuracy of its time quadrature.
    """

    def __init__(self, grid: SizeGrid, m_order: float, times, snapshots: list,
                 growth_mass: Optional[list], outcome: str = "completed"):
        self.grid, self.m_order, self.outcome = grid, m_order, outcome
        self.times = np.asarray(times, dtype=float)
        self.fields = snapshots
        self.growth_mass = None if growth_mass is None else np.asarray(growth_mass, dtype=float)
        wm = WeightSpec(m_order, "shifted")

        def column(observable) -> np.ndarray:
            return np.array([observable(f) for f in snapshots])

        self.M0, self.M1, self.M2, self.Mm = map(self.moments_at, (0.0, 1.0, 2.0, m_order))
        self.norm0m = column(lambda f: weighted_integral(f, wm))
        self.min_density = column(DensityField.min_value)
        self.escaped_mass = column(lambda f: f.escaped_mass)

    def mass_residual(self, scale: float) -> Optional[np.ndarray]:
        """The mass ledger's residual |M1 + escaped - growth ledger - M1(0)| /
        scale at each output, or None when the solve kept no ledger."""
        if self.growth_mass is None:
            return None
        return np.abs(self.M1 + self.escaped_mass - self.growth_mass - self.M1[0]) / scale

    def moments_at(self, order: float) -> np.ndarray:
        return np.array([moment(f, order) for f in self.fields])


class SplitStepper:
    """Lie splitting: a step is transport, then reaction.

    Transport advects along exact characteristics; the reaction substep
    solves the total linear sink (fragmentation loss plus the beta-shift
    absorption) exactly per cell, redistributes exactly the absorbed
    fragmentation share through the daughter matrix, returns the absorbed
    shift share pointwise, and advances coagulation explicitly.  The linear
    sink is folded, per (dt, keep_shift), into one daughter matrix, so it
    costs one `daughter_gain` per substep.  That
    substep is first order, so the step is too; a symmetric composition
    would not raise it.  Every circuit is mass-neutral to rounding; growth
    is the only mass source.  Its ledger is kept per cell: each remap adds
    x_i dx_i (after_i - before_i) to cell i and the change of the escaped
    mass to one float, and `growth_mass` sums the cells exactly only when it
    is read (once per output).  Each add rounds once, so the ledger's error
    is of order steps * eps * the mass the remaps moved.
    `linear_step` advances only the linear growth-fragmentation part on the
    same set-up and in the same order, with the absorbed shift share removed;
    it takes one field or a stack of them (see `DensityField`), and advances
    each row bit for bit as it would advance that row alone.
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
        self.a1 = ks.a1(x)
        self.c = self.a + self.a1        # the total linear sink
        self.antid = None if ks.r.is_zero else make_antiderivatives(ks, grid)
        self._mass_weight = x * grid.widths
        self._growth_cells = np.zeros(grid.cells)   # the ledger, cell by cell
        self._growth_escaped = 0.0

    @property
    def growth_mass(self) -> float:
        """The mass the remaps have added so far: the per-cell ledger summed
        exactly, plus the change of the escaped mass."""
        return math.fsum(self._growth_cells.tolist()) + self._growth_escaped

    # -- substeps -------------------------------------------------------
    def _transport(self, f: DensityField, dt: float) -> DensityField:
        if self.ks.r.is_zero:
            return f
        out = transport_apply(f, dt, self.ks, self.cfg.m, antid=self.antid,
                              include_absorption=False)
        moved = out.values - f.values
        moved *= self._mass_weight
        self._growth_cells += moved
        self._growth_escaped += out.escaped_mass - f.escaped_mass
        return out

    @built_once
    def _folded_sink(self, dt: float, keep_shift: bool):
        """The map of `_linear_sink` as one daughter matrix, or a factor per cell."""
        decay = np.exp(-self.c * dt)
        loss = 1.0 - decay
        share = np.divide(self.a, self.c, out=np.zeros_like(self.c), where=self.c > 0)
        kept = decay + loss * (1.0 - share) if keep_shift else decay
        w = self.grid.widths
        return fold_sink(self.dm, loss * share * w, kept * w) if self.has_frag else kept

    def _linear_sink(self, g: np.ndarray, dt: float, keep_shift: bool) -> np.ndarray:
        """Exact per-cell decay of the total linear sink a + a1 over dt.

        Exactly the fragmentation share a/c of the absorbed amount re-enters
        through the daughter matrix.  The shift share is returned in place
        when keep_shift (the mass-neutral split reaction) and removed
        otherwise (the absorption semigroup the Duhamel formula is built on).
        The map is linear and fixed per (dt, keep_shift), so it is folded
        (`fold_sink`) once per pair and each call is one `daughter_gain`;
        without fragmentation it is one product.
        """
        sink = self._folded_sink(dt, keep_shift)
        return daughter_gain(sink, g) if self.has_frag else sink * g

    def _reaction(self, f: DensityField, dt: float) -> DensityField:
        out = self._linear_sink(f.values, dt, keep_shift=True)
        esc = f.escaped_mass
        if self.has_coag:
            kf = apply_coag(f, self.ct)
            out += dt * kf.values
            esc += dt * kf.escaped_mass
        return DensityField(self.grid, out, esc)

    def step(self, f: DensityField, dt: float) -> DensityField:
        return self._reaction(self._transport(f, dt), dt)

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
    """March the splitting scheme (lie-split) to t_end, recording observables.

    A blow-up monitor halts with outcome 'blowup' once the weighted norm of
    |f| exceeds BLOWUP_CEILING times its initial value, so a negative
    runaway trips it too; that is a result variant, not an error.  NaN/Inf
    raises NumericalFailureError.
    """
    cfg.validate(ks, f0.grid)
    if cfg.scheme == "duhamel":
        raise ConfigError("solve marches the splitting schemes; "
                          "scheme 'duhamel' is solved by duhamel_solve")
    stepper = SplitStepper(ks, f0.grid, cfg, dm=dm, ct=ct)
    n_steps = _whole_multiple(cfg.t_end, cfg.dt)
    every = _whole_multiple(cfg.output_every, cfg.dt)

    times, snapshots, growth = [0.0], [f0.copy()], [stepper.growth_mass]
    wm = WeightSpec(cfg.m, "shifted")

    def abs_norm(f: DensityField) -> float:
        return weighted_integral(DensityField(f.grid, np.abs(f.values)), wm)

    ceiling = BLOWUP_CEILING * max(abs_norm(f0), 1e-300)
    f = f0
    outcome = "completed"
    for step in range(1, n_steps + 1):
        f = stepper.step(f, cfg.dt)
        if not np.all(np.isfinite(f.values)):
            raise NumericalFailureError(
                f"non-finite density at t = {step * cfg.dt:.6g} (step {step}); "
                f"min = {np.nanmin(f.values):.3e}, max = {np.nanmax(f.values):.3e}")
        if step % every == 0:
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
    update: float              # the last node error over max(1, ||f0||_[0,m])
    iterations: int
    contraction_factors: list
    contraction_window: float
    blocks: list               # the iterations started per block, in order
    waves: int                 # stacked propagator calls, n_out per block

    @property
    def converged(self) -> bool:
        return self.update <= PICARD_TOL

    @property
    def schedule(self) -> str:
        """The iterations, blocks and waves, as '11 iterations in blocks 4+8, 8 waves'."""
        return (f"{self.iterations} iterations in blocks {'+'.join(map(str, self.blocks))}, "
                f"{self.waves} waves")


class _Sweep:
    """One Picard iteration in flight after the iteration whose nodes are
    `prev`: a judged iteration, or its predecessor in the block, which lands
    each node just before it.  It carries the convolution G at its last node
    and the source K_beta f_prev there, and records each node with the
    node's error against `prev`."""

    def __init__(self, prev: list, f0: DensityField, source0: DensityField):
        self.prev = prev
        self.nodes, self.err = [f0.copy()], [0.0]   # every iteration starts at f0
        self.G, self.left = DensityField.zeros(f0.grid), source0

    def carry(self, half: float) -> DensityField:
        """G + (dt_out/2) K f_{k-1}, the row the linear propagator advances."""
        return DensityField(self.G.grid, self.G.values + half * self.left.values,
                            self.G.escaped_mass + half * self.left.escaped_mass)

    def land(self, moved: DensityField, half: float, lin: list, k_beta, wm: WeightSpec) -> None:
        """Add (dt_out/2) K f_k to the advanced carry, and the linear part to
        that, to make node k."""
        k = len(self.nodes)
        right = k_beta(self.prev[k])
        G = self.G = DensityField(moved.grid, moved.values + half * right.values,
                                  moved.escaped_mass + half * right.escaped_mass)
        node = DensityField(G.grid, lin[k].values + G.values, lin[k].escaped_mass + G.escaped_mass)
        self.nodes.append(node)
        diff = DensityField(G.grid, np.abs(node.values - self.prev[k].values))
        self.err.append(weighted_integral(diff, wm))
        self.left = right


def _picard_horizon(update: float, factor: float) -> int:
    """The iterations after one with this update and contraction factor until
    an update falls to PICARD_TOL, ceil(log(PICARD_TOL / update) / log factor),
    or 0 where that is undefined: factor outside (0, 1), PICARD_TOL <= 0."""
    if not (0.0 < factor < 1.0 and 0.0 < PICARD_TOL < update < math.inf):
        return 0
    return math.ceil(math.log(PICARD_TOL / update) / math.log(factor))


def duhamel_solve(f0: DensityField, cfg: SolverConfig, ks: KernelSet,
                  dm: Optional[DaughterMatrix] = None,
                  ct: Optional[CoagTables] = None) -> tuple[Trajectory, DuhamelReport]:
    """Picard iteration on the mild formulation.

    Requires the initial state inside the configured ball; every iterate then
    stays nonnegative because the shifted coagulation operator is nonnegative
    there.  The time convolution uses the product-trapezoid recurrence
    G_k = S(dt_out)[G_{k-1} + (dt_out/2) K f_{k-1}] + (dt_out/2) K f_k with
    the propagator resolved by fine substeps, and reports the last relative
    update, the contraction factors, the largest window where they held and
    the block schedule.  A solve stopped by PICARD_MAX_ITER short of
    PICARD_TOL has outcome 'not-converged'.
    A daughter matrix dm and coagulation tables ct built for (ks, f0.grid)
    are used as given instead of being rebuilt.

    The iterations run in blocks (see the module docstring).  Each of a
    block's n_out waves advances the linear part (in the first block) and
    every iteration of the block one output interval in one stacked call of
    the propagator, then lands them oldest first.  The first block has
    min(n_out, PICARD_MAX_ITER) iterations; each later one has
    max(n_out, k), capped by the iterations left, with k the iterations the
    last judged update needs at the last factor to reach PICARD_TOL
    (`_picard_horizon`).  Every block but the last has at least n_out
    iterations, so a solve of J iterations takes at most J + n_out - 1
    waves.  Each row is advanced exactly as it would be alone, so the result
    is the one of sweeping the iterations one after another.  A block's
    iterations are judged in order once it ends; once one meets PICARD_TOL,
    or is the PICARD_MAX_ITER-th, the rest of the block is dropped.
    """
    grid = f0.grid
    if cfg.scheme != "duhamel":
        # validate checks the Duhamel premises only for scheme 'duhamel'
        raise ConfigError("duhamel_solve iterates scheme 'duhamel'; "
                          f"scheme {cfg.scheme!r} is marched by solve")
    cfg.validate(ks, grid)
    wm = WeightSpec(cfg.m, "shifted")
    if weighted_integral(f0, wm) > cfg.ball_radius * (1 + 1e-12):
        raise ConfigError("duhamel solver needs the initial state inside the ball")

    prop = SplitStepper(ks, grid, cfg, dm=dm, ct=ct)
    n_out = _whole_multiple(cfg.t_end, cfg.output_every)
    d_out = cfg.t_end / n_out
    n_sub = max(1, int(round(d_out / cfg.dt)))
    times = np.arange(n_out + 1) * d_out
    half = 0.5 * d_out

    def k_beta(f: DensityField) -> DensityField:
        if prop.ct is None:
            return DensityField(grid, prop.a1 * f.values)
        return apply_coag_beta(f, prop.ct, prop.a1)

    source0 = k_beta(f0)            # every iterate starts at f0
    lin = [f0.copy()]               # iteration 0, the linear part S(t_k) f0
    iterates = lin                  # the nodes of the last iteration judged
    scale = max(1.0, weighted_integral(f0, wm))
    prev_err: Optional[np.ndarray] = None
    node_factors: Optional[np.ndarray] = None
    factors: list[float] = []
    blocks: list[int] = []
    update = math.inf
    it = 0
    # `not <=`, so that a NaN update runs on to PICARD_MAX_ITER
    while it < PICARD_MAX_ITER and not update <= PICARD_TOL:
        horizon = _picard_horizon(update, factors[-1]) if factors else 0
        block: list[_Sweep] = []
        for _ in range(min(max(n_out, horizon), PICARD_MAX_ITER - it)):
            block.append(_Sweep(block[-1].nodes if block else iterates, f0, source0))
        blocks.append(len(block))
        for _ in range(n_out):
            rows = ([lin[-1]] if len(lin) <= n_out else []) + [s.carry(half) for s in block]
            stack = prop.advance_linear(
                DensityField(grid, np.array([r.values for r in rows]),
                             np.array([r.escaped_mass for r in rows])), d_out, n_sub)
            moved = [DensityField(grid, v, float(e))
                     for v, e in zip(stack.values, stack.escaped_mass)]
            if len(lin) <= n_out:
                lin.append(moved.pop(0).copy())
            for s, g in zip(block, moved):
                s.land(g, half, lin, k_beta, wm)
        for s in block:
            it += 1
            err_nodes = np.array(s.err)
            iterates = s.nodes
            update = float(np.max(err_nodes)) / scale
            if prev_err is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    node_factors = np.where(prev_err > 0,
                                            err_nodes / np.maximum(prev_err, 1e-300), 0.0)
                factors.append(float(np.max(node_factors[1:])) if n_out else 0.0)
            prev_err = err_nodes
            if update <= PICARD_TOL:
                break

    window = cfg.t_end
    if factors and factors[-1] >= 1.0:
        # the last iteration's factors per node: contraction held up to the
        # last output time before the first node whose error did not shrink
        idx = np.nonzero(np.maximum.accumulate(node_factors) < 1.0)[0]
        window = float(times[idx[-1]]) if idx.size else 0.0

    rep = DuhamelReport(update, it, factors, window, blocks, n_out * len(blocks))
    return Trajectory(grid, cfg.m, times, iterates, None,
                      "completed" if rep.converged else "not-converged"), rep


# ---------------------------------------------------------------------------
# moment-regularization probe of the linear semigroup


def _linear_norm_curve(ks: KernelSet, grid: SizeGrid, m: float, f0: DensityField,
                       t_list: np.ndarray, dt: float) -> np.ndarray:
    # the linear semigroup needs no coagulation tables and, without them, no shift
    prop = SplitStepper(replace(ks, k=CoagulationKernel(k0=0.0), a1=AbsorptionRate()), grid,
                        SolverConfig(m=m))
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


GRID_STABILITY_TOL = 0.25   # the probe's supremum, relative, under grid+xmax doubling


def regularization_probe(ks: KernelSet, grid: SizeGrid, m: float, n: float, p: float,
                         t_list: np.ndarray = PROBE_TIMES, *, dt: float) -> list[ReportRow]:
    """Probe the moment-regularization rate of the linear semigroup.

    The initial profile (1 + x)^(-(p + 1 + PROBE_ETA)) has a finite p-weighted
    norm but lies outside the m-weighted space on the untruncated axis, certified
    by its truncated m-norm growing by at least MEMBERSHIP_GROWTH_MIN under
    domain doubling.  The 'regularization-probe' rows report sup over t of
    t^((m-n)/gamma0) e^(-theta_hat t) ||S(t) f0||_[0,m] with theta_hat fitted
    on the late times (`bounded-product`), and its relative variation under
    grid and domain doubling against GRID_STABILITY_TOL (`grid-stability`); a
    grid-stable supremum empirically confirms the blow-up exponent is not
    worse than (m - n)/gamma0.
    """
    if not (1.0 < n < p < m):
        raise SetupError("orders must satisfy 1 < n < p < m")
    if ks.a.gamma0 <= 0:
        raise SetupError(f"the probe's (m - n)/gamma0 needs gamma0 > 0, got {ks.a.gamma0:g}")
    t_list = np.asarray(t_list, dtype=float)

    def profile(x):
        return np.power(1.0 + x, -(p + 1.0 + PROBE_ETA))

    f0 = project(profile, grid)
    wm = WeightSpec(m, "shifted")
    wide = SizeGrid.geometric(grid.xmin, grid.xmax * 2.0, grid.cells)
    ratio = weighted_integral(project(profile, wide), wm) / weighted_integral(f0, wm)
    if not np.isfinite(ratio) or ratio < MEMBERSHIP_GROWTH_MIN:
        raise SetupError(
            f"initial profile looks m-integrable: truncated norm grew only {ratio:.3f}x "
            "under xmax doubling")

    kappa = (m - n) / ks.a.gamma0

    def run(g: SizeGrid) -> tuple[float, float]:
        norms = _linear_norm_curve(ks, g, m, project(profile, g), t_list, dt)
        tail = t_list >= t_list[-1] / 3.0
        theta = max(0.0, float(np.polyfit(t_list[tail], np.log(norms[tail]), 1)[0]))
        product = np.power(t_list, kappa) * np.exp(-theta * t_list) * norms
        return float(np.max(product)), theta

    sup1, theta1 = run(grid)
    refined = SizeGrid.geometric(grid.xmin, grid.xmax * 2.0, grid.cells * 2)
    sup2, _ = run(refined)
    return [
        # finite on every truncated grid, so this row cannot fail
        ReportRow("regularization-probe", "bounded-product", sup1, "<", math.inf,
                  detail=f"theta_hat = {theta1:.3g}"),
        ReportRow("regularization-probe", "grid-stability", abs(sup2 - sup1) / sup1, "<",
                  GRID_STABILITY_TOL, detail="sup variation under grid+xmax doubling"),
    ]


# ---------------------------------------------------------------------------
# discrete residual of the strong equation


PDE_RESIDUAL_TOL = 0.05   # the strong-form residual, relative to the mid-run norm


def pde_residual(traj: Trajectory, ks: KernelSet, dm: Optional[DaughterMatrix],
                 ct: Optional[CoagTables], p: Optional[float] = None) -> list[ReportRow]:
    """The 'pde-residual' row: central-difference time derivative against the
    discrete right-hand side.

    Evaluated at interior output times in the p-weighted norm (p defaults to
    the trajectory's weight order) and normalized by the p-weighted norm of
    |f| at mid-run; decays under dt and grid refinement for smooth scenarios,
    and vanishes identically on stationary states.  Fewer than three
    snapshots give an n/a row.
    """
    if len(traj.fields) < 3:
        return [ReportRow("pde-residual", "interior", detail="too few snapshots")]
    p = traj.m_order if p is None else p
    grid = traj.grid
    x = grid.centers
    wp = WeightSpec(p, "shifted")
    w = wp(x)
    worst = 0.0
    for k in range(1, len(traj.fields) - 1):
        dt2 = traj.times[k + 1] - traj.times[k - 1]
        dfdt = (traj.fields[k + 1].values - traj.fields[k - 1].values) / dt2
        fk = traj.fields[k]
        rhs = -np.gradient(ks.r(x) * fk.values, x)
        if dm is not None:
            rhs = rhs + apply_frag(fk, ks, dm).values
        if ct is not None:
            rhs = rhs + apply_coag(fk, ct).values
        resid = dfdt - rhs
        inner = slice(1, -1)
        worst = max(worst, float(np.sum(np.abs(resid[inner]) * w[inner] * grid.widths[inner])))
    # normalize against the advection + reaction magnitude at mid-run
    mid = traj.fields[len(traj.fields) // 2]
    scale = max(weighted_integral(DensityField(grid, np.abs(mid.values)), wp), 1e-300)
    return [ReportRow("pde-residual", "interior", worst / scale, "<=", PDE_RESIDUAL_TOL,
                      detail="central-difference time derivative vs RHS")]
