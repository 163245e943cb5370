"""Check rows: one type, built by the producers and passed through by the
suites, with one rule from (measured, relation, bound, tol) to status."""
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfc.evolution
import gfc.kernels
import gfc.transport
from gfc import moment_bounds as mb
from gfc.coagulation import coag_moment_identity
from gfc.config import load_scenario
from gfc.evolution import PICARD_TOL, pde_residual, regularization_probe
from gfc.fragmentation import frag_moment_identity
from gfc.kernels import ReportRow, validate_kernel_set, verdict
from gfc.presets import get_preset, preset_names
from gfc.report import SUITES, ScenarioContext, run_suites
from gfc.transport import resolvent_integral_bounds, v_lambda_diagnostics


@pytest.fixture(scope="module")
def ctx():
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.05, output_every=0.025)
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
    scenario without n and p gets one n/a row, as cross-validation does."""
    raw = get_preset("regularization-probe")
    raw["grid"]["cells"] = 64
    del raw["solver"]["n"], raw["solver"]["p"]
    rows = SUITES["regularization-probe"](ScenarioContext(load_scenario(raw)))
    assert [(r.suite, r.name, r.status) for r in rows] == \
        [("regularization-probe", "bounded-product", "n/a")]


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


@pytest.mark.parametrize("name", preset_names())
def test_every_status_follows_from_its_row(name):
    """Every row of every suite a preset lists is n/a or carries the status
    its relation gives."""
    raw = get_preset(name)
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.1, output_every=0.05)
    report, ctx = run_suites(ScenarioContext(load_scenario(raw)))
    assert {r.suite for r in report.rows} == set(ctx.sc.check_suites)
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
    assert "iteration 2;" in row.detail


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
