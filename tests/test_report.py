"""Check rows: one type, built by the producers and passed through by the
suites, with one rule from (measured, relation, bound, tol) to status."""
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfc import moment_bounds as mb
from gfc.config import load_scenario
from gfc.kernels import ReportRow, SamplePlan, validate_kernel_set, verdict
from gfc.presets import get_preset, preset_names
from gfc.report import SUITES, ScenarioContext, run_suites
from gfc.transport import resolvent_integral_bounds


@pytest.fixture(scope="module")
def ctx():
    raw = get_preset("gfc-global-ii")
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.05, output_every=0.025)
    return ScenarioContext(load_scenario(raw))


PRODUCERS = {
    "kernel-validation": lambda ctx: validate_kernel_set(ctx.ks, SamplePlan(m=ctx.cfg.m)),
    "integral-bounds": lambda ctx: resolvent_integral_bounds(1.0, 4.0, ctx.cfg.m, ctx.ks),
    "moment-domination": lambda ctx: mb.check_domination(ctx.trajectory, ctx.bounds, ctx.ks),
}


@pytest.mark.parametrize("suite", sorted(PRODUCERS))
def test_producer_rows_carry_the_suite_they_are_printed_under(ctx, suite):
    rows = PRODUCERS[suite](ctx)
    assert rows and all(type(r) is ReportRow and r.suite == suite for r in rows)
    report, _ = run_suites(ctx, [suite])
    assert {r.suite for r in report.rows} == {suite}


def test_moment_domination_suite_passes_the_rows_through(ctx):
    rows = SUITES["moment-domination"](ctx)
    dom = mb.check_domination(ctx.trajectory, ctx.bounds, ctx.ks,
                              tol=ctx.sc.tolerance("domination", 0.05))
    assert [r.name for r in dom] == ["M0", "M1", "M2", "Mm", "Phi"]
    assert rows[0].name == "condition"
    assert rows[1:1 + len(dom)] == dom


def test_integral_bounds_suite_only_renames(ctx):
    rows = SUITES["integral-bounds"](ctx)
    first = resolvent_integral_bounds(0.5, 1.5, ctx.cfg.m, ctx.ks)
    assert [r.name for r in rows[:2]] == ["I(a=0.5,l=1.5)", "J(a=0.5,l=1.5)"]
    for r, p in zip(rows, first):
        assert (r.suite, r.status, r.measured, r.bound, r.detail) == \
            (p.suite, p.status, p.measured, p.bound, "")


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
    its relation gives; picard-contraction is the one hand-set row."""
    raw = get_preset(name)
    raw["grid"]["cells"] = 64
    raw["time"].update(t_end=0.1, output_every=0.05)
    report, ctx = run_suites(ScenarioContext(load_scenario(raw)))
    assert {r.suite for r in report.rows} == set(ctx.sc.check_suites)
    lines = report.render().splitlines()
    for r, line in zip(report.rows, lines):
        if r.name == "picard-contraction":
            assert r.held is not None and "set by hand" in r.detail
            continue
        assert r.held is None, f"{r.suite}/{r.name} sets its status by hand"
        if r.relation is None:
            assert r.status == "n/a" and math.isnan(r.measured), f"{r.suite}/{r.name}"
        else:
            assert r.status == verdict(r.measured, r.relation, r.bound, r.tol)
            assert f" {r.relation} {r.bound:.6g}" in line
