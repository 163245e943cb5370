"""The benchmark's hooks into gfc still hold.

`benchmarks/` drives gfc through public names, patches some of them for its
span tracer and reads fields of the objects they return.  Each workload is
set up and run once under the tracer here and must pass every output gate
against its stored reference, so a change that breaks one of those hooks
fails the tests rather than the benchmark run.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import spans  # noqa: E402
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
