"""The benchmark's hooks into gfc still hold.

`benchmarks/` drives gfc through public names, patches some of them for its
span tracer and reads fields of the objects they return.  Each workload is
set up and run once under the tracer here and must pass every output gate
against its stored reference, and the layer sweep times each of its
functions once, so a change that breaks one of those hooks fails the tests
rather than the benchmark run.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import spans  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gates_under_the_tracer(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    with spans.Tracer().installed():
        ctx = workloads.set_up(wl.raw(0))
        out = wl.op(ctx, tmp_path)
    err = workloads.err_ref(out.traj, workloads.load_reference(name))
    gates = workloads.output_gates(wl, out, err)
    assert gates["trajectory-present"]
    assert all(gates.values()), sorted(g for g, ok in gates.items() if not ok)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_set_up_builds_each_part_once(name, monkeypatch):
    """One set-up (load, `ScenarioContext`, `SplitStepper`) parses each
    scenario section once, builds one `SizeGrid`, and evaluates the
    coagulation kernel on the grid once; a table kernel's class bound is
    read once too, and none is read for the closed forms."""
    from collections import Counter

    from gfc import config
    from gfc.grid import SizeGrid
    from gfc.kernels import CoagulationKernel

    calls = Counter()

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key(*args)] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(config, "_fields", counted(lambda cls, section, path: path,
                                                   config._fields))
    for cls, attr in ((SizeGrid, "__init__"), (CoagulationKernel, "_evaluate_on"),
                      (CoagulationKernel, "class_bound")):
        monkeypatch.setattr(cls, attr, counted(lambda *args, attr=attr: attr,
                                               getattr(cls, attr)))
    workloads.set_up(workloads.WORKLOADS[name].raw(0))
    sections = ["kernels.fragmentation.", "kernels.daughter.", "kernels.growth.",
                "kernels.coagulation.", "kernels.", "grid.", "time.", "solver.", "initial."]
    table = name == "setup-table"
    assert calls == Counter({**dict.fromkeys(sections, 1), "__init__": 1, "_evaluate_on": 1,
                             **({"class_bound": 1} if table else {})})


def test_sweep_calls_each_layer_function(monkeypatch):
    """`sweep.sweep_cells` with one call per timed function: this pins the
    calls it makes, such as the positional `transport_apply(f, t, ks, m,
    antid=...)` and `make_antiderivatives(ks, grid)`."""
    timed = []

    def one_call(fn, args_cycle):
        timed.append(fn(*args_cycle[0]))
        return 0.0

    monkeypatch.setattr(sweep, "per_call_ms", one_call)
    rows = sweep.sweep_cells(32, 0)
    assert rows == dict.fromkeys(("apply_coag", "transport_apply", "daughter_gain",
                                  "table_build_daughter_matrix"), 0.0)
    assert len(timed) == 4 and all(out is not None for out in timed)


def test_split_step_reaches_each_layer_by_its_module_name():
    """One `SplitStepper.step` calls the coagulation, transport and daughter
    gain layers through the names the tracer rebinds, once each, so
    `--trace 1` attributes their time to them."""
    from collections import Counter

    from gfc.config import load_scenario
    from gfc.evolution import SplitStepper

    sc = load_scenario("gfc-global-ii", {"grid": {"cells": 32}})
    ks, grid, cfg = sc.kernel_set(), sc.grid(), sc.solver_config()
    stepper = SplitStepper(ks, grid, cfg)
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    names = [("gfc.coagulation", "apply_coag"), ("gfc.transport", "transport_apply"),
             ("gfc.fragmentation", "daughter_gain")]
    with spans.patched({(mod, attr): counted(attr, getattr(sys.modules[mod], attr))
                        for mod, attr in names}):
        stepper.step(sc.initial_field(grid), cfg.dt)
    assert calls == {"apply_coag": 1, "transport_apply": 1, "daughter_gain": 1}
