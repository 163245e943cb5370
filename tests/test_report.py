"""Check rows: one type, built by the producers and passed through by the suites."""
import pytest

from gfc import moment_bounds as mb
from gfc.config import load_scenario
from gfc.kernels import ReportRow, SamplePlan, validate_kernel_set
from gfc.presets import get_preset
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
