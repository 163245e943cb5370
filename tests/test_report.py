"""Check rows: one type, built by the producers and passed through by the
suites, with one rule from (measured, relation, bound, tol) to status."""
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

import gfc.evolution
import gfc.kernels
import gfc.transport
from gfc import moment_bounds as mb
from gfc.coagulation import coag_moment_identity
from gfc.config import load_scenario
from gfc.evolution import PICARD_TOL, duhamel_solve, pde_residual, regularization_probe
from gfc.fragmentation import frag_moment_identity
from gfc.grid import DensityField, WeightSpec, weighted_integral
from gfc.kernels import ReportRow, validate_kernel_set, verdict
from gfc.presets import get_preset, preset_names
from gfc.report import NO_GROWTH_LEDGER, SUITES, ScenarioContext, _exact_family, run_suites
from gfc.transport import resolvent_integral_bounds, v_lambda_diagnostics


@pytest.fixture(scope="module")
def ctx():
    """gfc-global-ii at 64 cells, with the probe's orders n and p set."""
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.05, output_every=0.025)
    raw["solver"].update(n=1.25, p=1.5)
    return ScenarioContext(load_scenario(raw))


PRODUCERS = {
    "kernel-validation": lambda ctx: validate_kernel_set(ctx.ks, 1e-3, 1e2, m=ctx.cfg.m),
    "integral-bounds": lambda ctx: resolvent_integral_bounds(1.0, 4.0, ctx.cfg.m, ctx.ks,
                                                             ctx.antid),
    "moment-domination": lambda ctx: mb.check_domination(ctx.trajectory, ctx.bounds, ctx.ks),
    "resolvent": lambda ctx: v_lambda_diagnostics(ctx.spectral, ctx.ks, ctx.antid),
    "frag-identities": lambda ctx: frag_moment_identity(ctx.f0, ctx.ks, ctx.dm),
    "coag-identities": lambda ctx: coag_moment_identity(ctx.f0, ctx.ct),
    "regularization-probe": lambda ctx: regularization_probe(
        ctx.ks, ctx.grid, ctx.cfg.m, ctx.cfg.n, ctx.cfg.p, dt=ctx.cfg.dt),
    "pde-residual": lambda ctx: pde_residual(ctx.trajectory, ctx.ks, ctx.dm, ctx.ct,
                                             p=ctx.cfg.p),
}


@pytest.mark.parametrize("name", ["gfc-global-i", "gfc-global-ii"])
def test_negative_control_undershoots_on_scenarios_with_growth(name):
    """The control runs the scenario's coagulation alone at the dt that makes
    every cell's explicit loss factor at most -1, whatever growth the
    scenario has."""
    raw = get_preset(name)
    raw["grid"]["cells"] = 64
    (row,) = SUITES["negative-control"](ScenarioContext(load_scenario(raw)))
    assert row.status == "pass"
    assert row.measured < -1.0


@pytest.mark.parametrize("suite", sorted(PRODUCERS))
def test_producer_rows_carry_the_suite_they_are_printed_under(ctx, suite):
    rows = PRODUCERS[suite](ctx)
    assert rows and all(type(r) is ReportRow and r.suite == suite for r in rows)
    report, _ = run_suites(ctx, [suite])
    assert {r.suite for r in report.rows} == {suite}


@pytest.mark.parametrize("suite", ["frag-identities", "coag-identities",
                                   "regularization-probe", "pde-residual"])
def test_suite_is_its_producer(ctx, suite):
    """These suites print exactly the rows their producer returns, at the
    tolerances the producers own."""
    assert SUITES[suite](ctx) == PRODUCERS[suite](ctx)


def test_resolvent_suite_ends_with_the_v_lambda_rows(ctx):
    rows = SUITES["resolvent"](ctx)
    assert [r.name for r in rows] == ["norm-bound", "defining-identity",
                                      "v-lambda-divergence", "v-lambda-monotone"]
    assert rows[2:] == v_lambda_diagnostics(ctx.spectral, ctx.ks, ctx.antid)
    assert ctx.spectral.lam == ctx.spectral.omega + 2.0


def test_probe_without_secondary_orders_not_applicable():
    """The probe reads its weight orders from the solver section, so a
    scenario without n and p gets one n/a row."""
    raw = get_preset("regularization-probe")
    raw["grid"]["cells"] = 64
    del raw["solver"]["n"], raw["solver"]["p"]
    rows = SUITES["regularization-probe"](ScenarioContext(load_scenario(raw)))
    assert [(r.suite, r.name, r.status) for r in rows] == \
        [("regularization-probe", "bounded-product", "n/a")]


@pytest.mark.parametrize("alpha,m,reason", [
    (1.0, 2.5, "the mild formulation needs alpha = 1 < gamma0 = 1"),
    (0.5, 2.0, None)])
def test_cross_validation_checks_the_mild_premise_on_the_laws(alpha, m, reason):
    """Cross-validation needs the mild formulation's premise, which the laws
    and m decide, not typed orders: where it fails the suite prints one n/a
    row with the reason instead of refusing the scenario."""
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 32
    raw["time"].update(t_end=0.05, output_every=0.025)
    raw["kernels"]["coagulation"]["alpha"] = alpha
    raw["solver"]["m"] = m
    assert "n" not in raw["solver"] and "p" not in raw["solver"]
    rows = SUITES["solver-cross-validation"](ScenarioContext(load_scenario(raw)))
    if reason is None:
        assert [r.status for r in rows] == ["pass"] * 3
    else:
        assert [(r.name, r.status, r.detail) for r in rows] == \
            [("split-vs-duhamel", "n/a", reason)]


def test_moment_domination_suite_passes_the_rows_through(ctx):
    rows = SUITES["moment-domination"](ctx)
    dom = mb.check_domination(ctx.trajectory, ctx.bounds, ctx.ks)
    assert [r.name for r in dom] == ["M0", "M1", "M2", "Mm", "Phi"]
    assert rows[0].name == "condition"
    assert rows[1:1 + len(dom)] == dom


def test_integral_bounds_suite_only_renames(ctx):
    rows = SUITES["integral-bounds"](ctx)
    first = resolvent_integral_bounds(0.5, 1.5, ctx.cfg.m, ctx.ks, ctx.antid)
    assert [r.name for r in rows[:2]] == ["I(a=0.5,l=1.5)", "J(a=0.5,l=1.5)"]
    for r, p in zip(rows, first):
        assert (r.suite, r.status, r.measured, r.bound, r.detail) == \
            (p.suite, p.status, p.measured, p.bound, p.detail)


Q_SUITES = ["quasi-contractivity", "resolvent", "integral-bounds", "laplace"]


def test_q_reading_suites_share_one_q_table(monkeypatch):
    """The four suites that read Q build one Antiderivatives between them,
    the context's, and tabulate Q once; the integral-bounds rows are those
    of a table per (alpha, lambda)."""
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    ctx = ScenarioContext(load_scenario(raw))
    built, tables = [], []
    real_init, real_tabulate = gfc.transport.Antiderivatives.__init__, \
        gfc.transport.Antiderivatives._tabulate_Q

    def counting_init(self, ks):
        built.append(self)
        real_init(self, ks)

    def counting_tabulate(self, x):
        tables.append(self)
        real_tabulate(self, x)

    monkeypatch.setattr(gfc.transport.Antiderivatives, "__init__", counting_init)
    monkeypatch.setattr(gfc.transport.Antiderivatives, "_tabulate_Q", counting_tabulate)
    report, _ = run_suites(ctx, Q_SUITES)
    assert built == tables == [ctx.antid]
    omega = ctx.spectral.omega
    alone = [r for alpha in (0.5, 1.0, 5.0) for lam_f in (1.5, 3.0)
             for r in resolvent_integral_bounds(alpha, lam_f * omega, ctx.cfg.m, ctx.ks,
                                                gfc.transport.Antiderivatives(ctx.ks))]
    assert len(tables) == 7
    rows = [r for r in report.rows if r.suite == "integral-bounds"]
    assert [(r.measured, r.bound) for r in rows] == [(r.measured, r.bound) for r in alone]


# ---------------------------------------------------------------------------
# one verdict rule

RELATIONS = ["<=", "<", ">=", ">"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MEASURED = st.one_of(FINITE, st.sampled_from([math.inf, -math.inf, math.nan]))
TOL = st.floats(0.0, 1e300)
PLAIN = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@settings(max_examples=400, deadline=None)
@given(relation=st.sampled_from(RELATIONS), measured=MEASURED, bound=FINITE,
       tol=TOL, wider=TOL)
def test_verdict_rule(relation, measured, bound, tol, wider):
    status = verdict(measured, relation, bound, tol)
    assert status in ("pass", "fail")
    row = ReportRow("s", "n", measured, relation, bound, tol)
    assert row.status == status and row.passed == (status == "pass")
    if math.isnan(measured):
        assert status == "fail"
        return
    # without a tolerance the rule is the plain comparison
    assert (verdict(measured, relation, bound) == "pass") == PLAIN[relation](measured, bound)
    # the strict and non-strict relations of opposite direction are complements
    opposite = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}[relation]
    assert verdict(measured, relation, bound) != verdict(measured, opposite, bound)
    # a tolerance only ever turns a fail into a pass, a larger one more so,
    # and it widens towards the permissive side only
    if verdict(measured, relation, bound) == "pass":
        assert status == "pass"
    if status == "pass":
        assert verdict(measured, relation, bound, tol + wider) == "pass"
        assert measured <= bound + tol if relation[0] == "<" else measured >= bound - tol


@given(measured=MEASURED, bound=FINITE, tol=TOL)
def test_no_relation_is_not_applicable(measured, bound, tol):
    assert verdict(measured, None, bound, tol) == "n/a"
    assert ReportRow("s", "n", measured, None, bound, tol).passed


def test_row_rejects_unknown_relation_and_negative_tolerance():
    with pytest.raises(ValueError, match="relation"):
        ReportRow("s", "n", 1.0, "==", 1.0)
    with pytest.raises(ValueError, match="tolerance"):
        ReportRow("s", "n", 1.0, "<=", 1.0, -1e-12)


def _rows(suite: str, *names: str) -> list[str]:
    return [f"{suite}/{name}" for name in names]


_KERNEL_ROWS = ("frag-nonnegative", "frag-lower-bound", "daughter-nonnegative",
                "daughter-support", "daughter-mass-conservation", "daughter-number-bound",
                "daughter-liminf", "growth-positive")
_COAG_ROWS = ("coag-symmetric", "coag-nonnegative", "coag-class-bound",
              "absorption-nonnegative", "absorption-exponent", "weight-order")
_FRAG_ROWS = _rows("frag-identities", "mass-neutral", "moment-0", "moment-1", "moment-2",
                   "sink-estimate-2")
_ORACLE_ROWS = _rows("oracle", "closed-form-profile", "closed-form-number", "mass-conserved")
_AFFINE_KERNEL_ROWS = _rows("kernel-validation", *_KERNEL_ROWS, "growth-affine-bound",
                            "growth-origin-class", *_COAG_ROWS, "weight-order-coagulation")

# every preset's rows, in print order: a renamed, added or dropped row is a
# deliberate change to this list
ROW_INVENTORY = {
    "aizenman-bak-frag": [
        *_rows("kernel-validation", *_KERNEL_ROWS, "growth-origin-class", *_COAG_ROWS),
        *_FRAG_ROWS, "mass-budget/closure", "positivity/min-cell", *_ORACLE_ROWS,
        "quasi-contractivity/growth-bound", "pde-residual/interior",
        "determinism/bit-identical-csv"],
    "constant-coag": [
        *_rows("coag-identities", "moment-0", "moment-1", "moment-2"), "mass-budget/closure",
        "positivity/min-cell", *_ORACLE_ROWS, "negative-control/undershoot",
        "determinism/bit-identical-csv"],
    "gfc-global-i": [
        *_AFFINE_KERNEL_ROWS, "mass-budget/closure", "positivity/min-cell",
        *_rows("moment-domination", "condition", "M0", "M1", "M2", "Mm"),
        "determinism/bit-identical-csv"],
    "gfc-global-ii": [
        *_AFFINE_KERNEL_ROWS, *_FRAG_ROWS,
        *_rows("coag-identities", "moment-0", "moment-1", "moment-2"), "mass-budget/closure",
        "positivity/min-cell", "quasi-contractivity/growth-bound",
        *_rows("resolvent", "norm-bound", "defining-identity", "v-lambda-divergence",
               "v-lambda-monotone"),
        *_rows("integral-bounds", *(f"{q}(a={a},l={lam})" for a in ("0.5", "1", "5")
                                    for lam in ("1.5", "3") for q in "IJ")),
        "laplace/consistency",
        *_rows("solver-cross-validation", "split-vs-duhamel", "picard-nonnegative",
               "picard-contraction"),
        *_rows("moment-domination", "condition", "M0", "M1", "M2", "Mm", "Phi",
               "M1-envelope-tight"),
        "determinism/bit-identical-csv"],
    "regularization-probe": [
        *_rows("kernel-validation", *_KERNEL_ROWS, "growth-affine-bound",
               "growth-origin-class", *_COAG_ROWS),
        *_rows("regularization-probe", "bounded-product", "grid-stability"),
        "determinism/bit-identical-csv"],
}


@pytest.mark.parametrize("name", preset_names())
def test_every_status_follows_from_its_row(name):
    """Every row of every suite a preset lists is n/a or carries the status
    its relation gives, and the preset prints exactly its inventory."""
    raw = get_preset(name)
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.1, output_every=0.05)
    report, ctx = run_suites(ScenarioContext(load_scenario(raw)))
    assert [f"{r.suite}/{r.name}" for r in report.rows] == ROW_INVENTORY[name]
    lines = report.render().splitlines()
    for r, line in zip(report.rows, lines):
        if r.relation is None:
            assert r.status == "n/a" and math.isnan(r.measured), f"{r.suite}/{r.name}"
        else:
            assert r.status == verdict(r.measured, r.relation, r.bound, r.tol)
            assert f" {r.relation} {r.bound:.6g}" in line


def test_picard_contraction_is_what_convergence_tests(monkeypatch):
    """The row measures the last relative Picard update against PICARD_TOL,
    so its status is the solver's convergence flag: a converged solve
    passes, one stopped after two iterations fails."""
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.1, output_every=0.05)
    ctx = ScenarioContext(load_scenario(raw))

    def picard_row():
        report, _ = run_suites(ctx, ["solver-cross-validation"])
        return next(r for r in report.rows if r.name == "picard-contraction")

    row = picard_row()
    assert (row.relation, row.bound, row.status) == ("<=", PICARD_TOL, "pass")
    monkeypatch.setattr(gfc.evolution, "PICARD_MAX_ITER", 2)
    row = picard_row()
    assert row.status == "fail" and row.measured > PICARD_TOL
    assert "2 iterations in blocks 2, 4 waves;" in row.detail


def test_cross_validation_compares_every_split_output(ctx):
    """Split output k is Duhamel node 2k, at the same time: the row is the
    worst distance over all of them."""
    dcfg = replace(ctx.cfg, scheme="duhamel", output_every=0.5 * ctx.cfg.output_every)
    dtraj, _ = duhamel_solve(ctx.f0, dcfg, ctx.ks, dm=ctx.dm, ct=ctx.ct)
    traj, w = ctx.trajectory, WeightSpec(ctx.cfg.m, "shifted")
    np.testing.assert_allclose(dtraj.times[::2], traj.times, rtol=0.0, atol=1e-12)
    dist = [weighted_integral(DensityField(ctx.grid, np.abs(f.values - g.values)), w) / norm
            for f, g, norm in zip(traj.fields, dtraj.fields[::2], traj.norm0m)]
    row = SUITES["solver-cross-validation"](ctx)[0]
    assert row.name == "split-vs-duhamel" and row.measured == max(dist) > 0.0
    assert row.detail == f"worst of all {len(traj.fields)} split outputs"


def test_positivity_row_states_its_direction():
    """On constant-coag the minimum density stays strictly positive, so the
    min-cell row passes only under `>=`; on the presets that print
    `measured=0 >= 0` either direction would pass."""
    raw = get_preset("constant-coag")
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.1, output_every=0.05)
    report, _ = run_suites(ScenarioContext(load_scenario(raw)), ["positivity"])
    (row,) = report.rows
    assert row.name == "min-cell" and row.relation == ">=" and row.bound == 0.0
    assert row.measured > 0.0 and row.status == "pass"


def _capped_duhamel_run(monkeypatch):
    """constant-coag as a converging Duhamel run at 128 cells, stopped by
    PICARD_MAX_ITER patched to 3 at an update of about 1e-2."""
    raw = get_preset("constant-coag")
    raw["grid"]["cells"] = 128
    raw["kernels"]["coagulation"]["k0"] = 0.1
    raw["time"].update(t_end=0.2, output_every=0.01)
    raw["solver"]["scheme"] = "duhamel"
    monkeypatch.setattr(gfc.evolution, "PICARD_MAX_ITER", 3)
    return ScenarioContext(load_scenario(raw)), ("not-converged", "PICARD_TOL")


def _split_blowup_run(monkeypatch):
    """constant-coag at 128 cells with the blow-up ceiling patched to 1 + 1e-4."""
    raw = get_preset("constant-coag")
    raw["grid"]["cells"] = 128
    monkeypatch.setattr(gfc.evolution, "BLOWUP_CEILING", 1.0 + 1e-4)
    return ScenarioContext(load_scenario(raw)), ("blowup",)


@pytest.mark.parametrize("case", [_capped_duhamel_run, _split_blowup_run],
                         ids=["duhamel-not-converged", "split-blowup"])
def test_incomplete_run_fails_positivity(monkeypatch, case):
    """A run that stops short certifies nothing: min-cell measures NaN and
    fails although every cell stayed >= 0, and its detail names the outcome
    (and, for Picard, the last update against PICARD_TOL)."""
    ctx, words = case(monkeypatch)
    report, _ = run_suites(ctx)
    assert ctx.trajectory.outcome == words[0]
    assert np.min(ctx.trajectory.min_density) >= 0.0
    (row,) = [r for r in report.rows if r.suite == "positivity"]
    assert math.isnan(row.measured) and row.status == "fail"
    assert all(word in row.detail for word in words), row.detail
    assert [r for r in report.rows if not r.passed] == [row]


def test_table_daughter_quadrature_budget(monkeypatch):
    """On a table daughter law, numerical quadrature runs only in the
    independent checks: one vector quadrature over the 50 mass-conservation
    sizes, one over the 7 growth-origin cutoffs, and 3 scalar daughter-count
    sizes. Every daughter constant is a closed form."""
    calls = {"_quad": 0, "_quad_intervals": 0}

    def counted(helper):
        quad = getattr(gfc.kernels, helper)

        def call(*args, **kwargs):
            calls[helper] += 1
            return quad(*args, **kwargs)
        return call

    for helper in calls:
        monkeypatch.setattr(gfc.kernels, helper, counted(helper))
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 128
    raw["time"]["t_end"] = 0.25
    u = np.linspace(0.0, 1.0, 17)
    raw["kernels"]["daughter"] = {"kind": "table", "table_u": u.tolist(),
                                  "table_phi": (6.0 * u * (1.0 - u) + 0.5).tolist()}
    report, _ = run_suites(ScenarioContext(load_scenario(raw)),
                           ["kernel-validation", "frag-identities", "moment-domination"])
    assert report.passed, [r.name for r in report.rows if not r.passed]
    assert calls == {"_quad": 3, "_quad_intervals": 2}


def _linear_growth_r1_15(raw):
    raw["kernels"]["growth"]["r1"] = 15.0


def _grid_to_1e13(raw):
    raw["grid"]["xmax"] = 1e13
    # keep the positivity bound on dt within reach of the larger sizes
    raw["kernels"]["fragmentation"]["gamma0"] = 0.0
    raw["kernels"]["coagulation"]["alpha"] = 0.05


@pytest.mark.parametrize("change", [_linear_growth_r1_15, _grid_to_1e13])
def test_q_reading_suites_follow_the_flow_past_1e12(change):
    """Linear growth with r1 = 15 carries xmax = 50 to 50*e^30 within the
    quasi-contractivity times; the second grid reaches 1e13 itself.  Q's
    table grows to every size these suites read."""
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.05, output_every=0.025)
    change(raw)
    ctx = ScenarioContext(load_scenario(raw))
    (row,) = SUITES["quasi-contractivity"](ctx)
    assert row.status == "pass"
    for suite in ("resolvent", "integral-bounds", "laplace"):
        rows = SUITES[suite](ctx)
        assert rows and all(math.isfinite(r.measured) for r in rows)


# ---------------------------------------------------------------------------
# the oracle's exact family f = M a^2 e^(-a x)


def _family(cells=64, dt=1e-3, t_end=0.1, **solver):
    """gfc-global-ii with a constant kernel k0 = 0.5 from f0 = 0.1 e^(-x):
    growth 0.25 x, fragmentation x with b = 2/y and coagulation all on, and
    in the exact family."""
    raw = get_preset("gfc-global-ii")
    raw["kernels"]["coagulation"] = {"kind": "constant", "k0": 0.5}
    raw["initial"] = {"profile": "exponential", "amplitude": 0.1, "decay": 1.0}
    raw["grid"]["cells"] = cells
    raw["time"] = {"dt": dt, "t_end": t_end, "output_every": t_end}
    raw["solver"].update(solver)
    return ScenarioContext(load_scenario(raw))


def _member(r1, c, k0, amplitude=1.0, decay=1.0):
    """aizenman-bak-frag with growth r1 x, fragmentation c x and a constant
    kernel k0, from f0 = amplitude e^(-decay x)."""
    raw = get_preset("aizenman-bak-frag")
    ker = raw["kernels"]
    ker["growth"] = {"kind": "linear", "r1": r1} if r1 else {"kind": "constant", "r0": 0.0}
    ker["fragmentation"]["a0"] = c
    ker["coagulation"]["k0"] = k0
    raw["initial"].update(amplitude=amplitude, decay=decay)
    return ScenarioContext(load_scenario(raw))


def _profile_error(ctx):
    return SUITES["oracle"](ctx)[0].measured


@pytest.mark.parametrize("initial", [{"amplitude": 2.0}, {"decay": 2.0}])
def test_oracle_reads_the_initial_profile(initial):
    """The exact solution starts from the scenario's own exponential, so a
    correct solve passes whatever its amplitude and decay."""
    raw = get_preset("aizenman-bak-frag")
    raw["initial"].update(initial)
    rows = SUITES["oracle"](ScenarioContext(load_scenario(raw)))
    assert [f"{r.suite}/{r.name}" for r in rows] == _ORACLE_ROWS
    assert all(r.status == "pass" for r in rows), [(r.name, r.measured) for r in rows]


@pytest.mark.parametrize("section, key, value", [
    ("initial", "profile", "mass-exponential"),
    ("initial", "amplitude", 0.0),
    ("initial", "decay", 0.0),
    ("kernels", "growth", {"kind": "affine", "r0": 0.1, "r1": 0.1}),
    ("kernels", "fragmentation", {"kind": "power-law", "a0": 1.0, "gamma0": 0.5}),
    ("kernels", "daughter", {"kind": "power-law", "nu": 1.0}),
    ("kernels", "coagulation", {"kind": "sum", "k0": 0.5}),
    # tables whose values are family members are still tables
    ("kernels", "growth", {"kind": "table", "table_x": [1e-3, 1.0, 60.0],
                           "table_r": [1e-3, 1.0, 60.0]}),
    ("kernels", "fragmentation", {"kind": "table", "table_x": [1e-3, 1.0, 60.0],
                                  "table_a": [1e-3, 1.0, 60.0]}),
    ("kernels", "daughter", {"kind": "table", "table_u": [0.0, 1.0], "table_phi": [2.0, 2.0]}),
    ("kernels", "coagulation", {"kind": "table", "k0": 1.0, "table_x": [1e-3, 60.0],
                                "table_k": [[1.0, 1.0], [1.0, 1.0]]}),
], ids=["mass-exponential", "amplitude-0", "decay-0", "affine-growth", "gamma0-0.5", "nu-1",
        "sum-kernel", "growth-table", "frag-table", "daughter-table", "coag-table"])
def test_oracle_outside_the_family_is_one_na_row(section, key, value):
    raw = get_preset("aizenman-bak-frag")
    raw[section][key] = value
    (row,) = SUITES["oracle"](ScenarioContext(load_scenario(raw)))
    assert (row.suite, row.name, row.status) == ("oracle", "closed-form", "n/a")


def test_duhamel_with_growth_keeps_no_mass_ledger():
    """A Duhamel trajectory records no growth ledger, so under growth the
    mass row is not applicable; the profile and the number still pass."""
    rows = SUITES["oracle"](_family(scheme="duhamel"))
    assert [(r.name, r.status) for r in rows] == [
        ("closed-form-profile", "pass"), ("closed-form-number", "pass"), ("mass-conserved", "n/a")]
    assert rows[2].detail == SUITES["mass-budget"](_family(scheme="duhamel"))[0].detail


def test_duhamel_without_growth_keeps_no_mass_ledger():
    """The mild form conserves mass only to its time quadrature, so the mass
    row is n/a for every Duhamel run, growth or not.  This converged one on
    constant-coag drifts 2.5e-5 in mass, yet its profile and number pass."""
    raw = get_preset("constant-coag")
    raw["grid"]["cells"] = 128
    raw["kernels"]["coagulation"]["k0"] = 0.1
    raw["time"].update(t_end=0.2, output_every=0.01)
    raw["solver"]["scheme"] = "duhamel"
    ctx = ScenarioContext(load_scenario(raw))
    assert ctx.solution[1].converged and ctx.trajectory.outcome == "completed"
    rows = SUITES["oracle"](ctx) + SUITES["mass-budget"](ctx)
    assert [(r.name, r.status) for r in rows] == [
        ("closed-form-profile", "pass"), ("closed-form-number", "pass"),
        ("mass-conserved", "n/a"), ("closure", "n/a")]
    assert rows[2].detail == rows[3].detail == NO_GROWTH_LEDGER


def test_exact_number_matches_the_bessel_form():
    """N = M a obeys N' = c M(0) e^(r1 t) - (k0/2) N^2.  N = (2/k0) u'/u turns
    it into u'' = lam^2 e^(r1 t) u, lam^2 = k0 c M(0) / 2, which z =
    (2 lam / r1) e^(r1 t / 2) makes the modified Bessel equation of order 0."""
    r1, c, k0, amplitude, decay = 0.5, 1.5, 2.0, 0.8, 1.3
    m0, n0 = amplitude / decay**2, amplitude / decay
    t = np.linspace(0.0, 2.0, 21)
    M, a = _exact_family(_member(r1, c, k0, amplitude, decay))(t)
    lam = math.sqrt(k0 * c * m0 / 2.0)
    z, z0 = 2.0 * lam / r1 * np.exp(r1 * t / 2.0), 2.0 * lam / r1
    rho = k0 * n0 / (r1 * z0)
    B = (special.i1(z0) - rho * special.i0(z0)) / (special.k1(z0) + rho * special.k0(z0))
    N = r1 * z / k0 * (special.i1(z) - B * special.k1(z)) / (special.i0(z) + B * special.k0(z))
    np.testing.assert_allclose(M, m0 * np.exp(r1 * t), rtol=1e-15)
    np.testing.assert_allclose(M * a, N, rtol=1e-10)


@pytest.mark.parametrize("r1, c, k0, number", [
    (0.0, 1.0, 0.0, lambda t: 1.0 + t),                     # a = 1 + t
    (0.0, 0.0, 2.0, lambda t: 1.0 / (1.0 + 2.0 * t / 2.0)),  # N0 / (1 + k0 N0 t / 2)
    (0.5, 1.5, 0.0, lambda t: 1.0 + 1.5 * np.expm1(0.5 * t) / 0.5),
], ids=["aizenman-bak", "constant-kernel", "growth-fragmentation"])
def test_exact_number_degenerate_closed_forms(r1, c, k0, number):
    """From f0 = e^(-x), so M(0) = N(0) = 1; at k0 = 0, N' = c M(0) e^(r1 t)."""
    t = np.linspace(0.0, 2.0, 21)
    M, a = _exact_family(_member(r1, c, k0))(t)
    np.testing.assert_allclose(M * a, number(t), rtol=1e-10)


def test_exact_profile_solves_the_full_equation():
    """At probe points, d_t f (a fourth-order difference in t) equals the
    growth, fragmentation and coagulation terms, each integral by quad."""
    r1, c, k0 = 0.5, 1.0, 2.0
    exact, t, h = _exact_family(_member(r1, c, k0)), 0.7, 1e-3
    M, a = exact(t + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))

    def f(x, k=2):
        return M[k] * a[k] ** 2 * np.exp(-a[k] * x)

    for x in (0.3, 2.0, 8.0):
        dfdt = (f(x, 0) - 8.0 * f(x, 1) + 8.0 * f(x, 3) - f(x, 4)) / (12.0 * h)
        terms = [-r1 * f(x) * (1.0 - a[2] * x),           # -d_x(r1 x f)
                 -c * x * f(x), 2.0 * c * quad(f, x, np.inf)[0],
                 0.5 * k0 * quad(lambda y: f(y) * f(x - y), 0.0, x)[0],
                 -k0 * f(x) * quad(f, 0.0, np.inf)[0]]
        scale = max(map(abs, terms))
        assert min(map(abs, terms)) > 1e-4 * scale     # each term shows in the sum
        assert dfdt == pytest.approx(sum(terms), rel=0.0, abs=1e-9 * scale)


def test_split_step_order_against_the_exact_solution():
    """lie-split is first order in time and second in cells, measured by
    the closed-form-profile row on the family scenario to t = 0.2."""
    time = [_profile_error(_family(512, dt, 0.2)) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(time, time[1:])]
    assert all(0.9 <= q <= 1.2 for q in orders), (time, orders)
    space = [_family(cells, 1.25e-4, 0.2) for cells in (64, 128)]
    e64, e128 = (_profile_error(ctx) for ctx in space)
    assert math.log2(e64 / e128) >= 1.7, (e64, e128)
    # the time error at this dt, from a solve at twice the step, is below a
    # tenth of the 128-cell error, so the space order is the cells' own
    coarse = _family(128, 2.5e-4, 0.2).trajectory.fields[-1].values
    fine, grid = space[1].trajectory.fields[-1].values, space[1].grid
    w = (1.0 + grid.centers) * grid.widths
    assert np.sum(np.abs(coarse - fine) * w) / np.sum(fine * w) < 0.1 * e128
