"""gfc benchmark: time one workload, gate its outputs, print its metrics.

    python3 benchmarks/run.py --workload split-coag --seed 0 --seconds 30 --trace 0

Run from the repository root.  It imports gfc from ``src/`` beside this
directory and fails (exit 2, no result) when that source tree is missing.

``--trace 0`` repeats the workload's set-up, makes one untimed warm-up call,
then repeats the timed call for about ``--seconds`` seconds and reports
the end-to-end metrics over those calls.  ``--trace 1`` does a set-up and
the warm-up, then alternates untraced set-ups and calls with traced ones,
every layer entry point wrapped, and reports the per-layer metrics of the
last traced pair; its span list is written to ``.bench_out/``.  In both
modes every timed call is gated and the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 5, 200, 0.1
TRACE_PAIRS = 5

# per-layer metrics: (metric, unit, span name, aggregate field)
SPAN_METRICS = [
    ("coagulation.apply_coag.calls", "count", "coagulation.apply_coag", "calls"),
    ("coagulation.apply_coag.self_s", "s", "coagulation.apply_coag", "self_s"),
    ("coagulation.apply_coag.ms_per_call", "ms", "coagulation.apply_coag", "ms_per_call"),
    ("coagulation.apply_coag_beta.calls", "count", "coagulation.apply_coag_beta", "calls"),
    ("coagulation.apply_coag_beta.self_s", "s", "coagulation.apply_coag_beta", "self_s"),
    ("coagulation.build_coag_tables.s", "s", "coagulation.build_coag_tables", "s"),
    ("transport.transport_apply.calls", "count", "transport.transport_apply", "calls"),
    ("transport.transport_apply.self_s", "s", "transport.transport_apply", "self_s"),
    ("transport.transport_apply.ms_per_call", "ms", "transport.transport_apply", "ms_per_call"),
    ("transport.make_antiderivatives.s", "s", "transport.make_antiderivatives", "s"),
    ("fragmentation.build_daughter_matrix.s", "s", "fragmentation.build_daughter_matrix", "s"),
    ("fragmentation.daughter_gain.calls", "count", "fragmentation.daughter_gain", "calls"),
    ("fragmentation.daughter_gain.self_s", "s", "fragmentation.daughter_gain", "self_s"),
    ("grid.moment.calls", "count", "grid.moment", "calls"),
    ("grid.moment.self_s", "s", "grid.moment", "self_s"),
    ("grid.weighted_integral.calls", "count", "grid.weighted_integral", "calls"),
    ("grid.weighted_integral.self_s", "s", "grid.weighted_integral", "self_s"),
    ("evolution.solve.calls", "count", "evolution.solve", "calls"),
    ("evolution.solve.s", "s", "evolution.solve", "s"),
    ("evolution.duhamel_solve.s", "s", "evolution.duhamel_solve", "s"),
    ("kernels.validate_kernel_set.s", "s", "kernels.validate_kernel_set", "s"),
    ("config.load_scenario.s", "s", "config.load_scenario", "s"),
    ("moment_bounds.global_conditions.s", "s", "moment_bounds.global_conditions", "s"),
    ("moment_bounds.assemble_bound_params.s", "s", "moment_bounds.assemble_bound_params", "s"),
    ("moment_bounds.bound_system.s", "s", "moment_bounds.bound_system", "s"),
    ("moment_bounds.check_domination.s", "s", "moment_bounds.check_domination", "s"),
    ("cli.write_trajectory_csv.s", "s", "cli.write_trajectory_csv", "s"),
] + [(f"report.suite.{name}.s", "s", f"report.suite.{name}", "s")
     for name in ("kernel-validation", "mass-budget", "positivity", "moment-domination",
                  "determinism")]

# per-layer metrics read from the tracer's counters: (metric, unit)
COUNT_METRICS = [
    ("coagulation.table_bytes", "bytes-computed"),
    ("coagulation.apply_coag.bytes_computed", "bytes-computed"),
    ("transport.pchip_builds", "count"),
    ("evolution.solve.identical_inputs", "count"),
    ("evolution.picard_iterations", "count"),
    ("report.checks", "count"),
    ("report.checks_failed", "count"),
    ("cli.write_trajectory_csv.bytes", "bytes"),
]


def import_program():
    """Import gfc from this checkout's source tree, or exit without a result."""
    if not (SRC / "gfc" / "__init__.py").is_file():
        print(f"benchmark: no gfc source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gfc
    if Path(gfc.__file__).resolve().parent != (SRC / "gfc").resolve():
        print(f"benchmark: imported gfc from {gfc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Ledger:
    """Attempted and failed operations: the set-up phase, the warm-up, every
    timed call and every output gate."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def timed(fn, *args):
    """(seconds, result or None, exception text or None) of one call."""
    start = time.perf_counter()
    try:
        out = fn(*args)
        err = None
    except Exception:  # a failing call is a measured outcome, not a crash
        out, err = None, traceback.format_exc()
    return time.perf_counter() - start, out, err


class Runner:
    """Runs one workload's set-ups and calls and gates every output."""

    def __init__(self, wl, seed: int, out_dir: Path):
        import workloads as W
        self.W, self.wl, self.out_dir = W, wl, out_dir
        self.raw = wl.raw(seed)
        self.ref = W.load_reference(wl.name)
        self.ledger = Ledger()
        self.errs: list[float] = []
        self.first_csv = None

    def set_ups(self, count_ok, host=None) -> tuple[list, object]:
        """Set-ups one after another while ``count_ok(durations)``; one operation
        for the ledger.  Returns the durations, rescaled by ``host`` when
        given, and the last context."""
        setups, failed, ctx = [], False, None
        if host is not None:
            host.restart()
        while not setups or count_ok(setups):
            dt, ctx, err = timed(self.W.set_up, self.raw)
            setups.append(dt if host is None else host.rescale(dt))
            if err:
                failed = True
                print(err, file=sys.stderr)
        self.ledger.record("set-up", not failed)
        return setups, ctx

    def warm_up(self, ctx) -> None:
        """One untimed call, so that the first timed call does not pay for
        lazy imports and first-touch memory (the first call of a process ran
        10-20% slower on picard-xval and cli-run)."""
        _, _, err = timed(self.wl.op, ctx, self.out_dir)
        self.ledger.record("warm-up", err is None)
        if err:
            print(err, file=sys.stderr)

    def call(self, ctx) -> float:
        dt, out, err = timed(self.wl.op, ctx, self.out_dir) if ctx is not None \
            else (0.0, None, "no context: set-up failed")
        self.ledger.record("call", err is None)
        if err:
            print(err, file=sys.stderr)
            out = self.W.Outcome()
        e = self.W.err_ref(out.traj, self.ref) if out.traj is not None else 1.0
        self.errs.append(e)
        gates = self.W.output_gates(self.wl, out, e)
        if out.csv:
            if self.first_csv is None:
                self.first_csv = out.csv[0]
            else:
                gates["csv-identical-across-calls"] = out.csv[0] == self.first_csv
        for name, ok in gates.items():
            self.ledger.record(name, ok)
        return dt


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics with tracing off, in seconds at the reference host
    speed (``host.py``).

    Set-ups run first, at least MIN_SETUPS and then until the set-up phase,
    reference kernel runs included, has taken SETUP_SHARE of ``seconds`` or
    they number MAX_SETUPS: a set-up of a few milliseconds needs many samples
    for a steady median.  After the warm-up, calls repeat on the last context
    until the next one would overrun ``seconds``.  The reference kernel runs
    between any two of these.  The unscaled median call and the kernel's
    median are printed too.
    """
    from host import HostSpeed
    start = time.perf_counter()
    host = HostSpeed()
    setups, ctx = runner.set_ups(lambda t: len(t) < MIN_SETUPS or (
        len(t) < MAX_SETUPS and time.perf_counter() - start < SETUP_SHARE * seconds), host)
    runner.warm_up(ctx)
    host.restart()
    wall, runs = [], []
    while not wall or time.perf_counter() - start + statistics.median(wall) <= seconds:
        wall.append(runner.call(ctx))
        runs.append(host.rescale(wall[-1]))
    for name, value in (("unscaled_run_s", statistics.median(wall)),
                        ("reference_kernel_s", host.median())):
        print(f"{name:44s} {value:.6g} s")
    led = runner.ledger
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "err_ref": (statistics.median(runner.errs), "1"),
        "ok_frac": (1.0 - len(led.failed) / led.attempted, "1"),
    }


def measure_traced(runner: Runner, trace_path: Path) -> dict:
    """Per-layer metrics from a traced set-up and call.

    After the warm-up, TRACE_PAIRS pairs run, each an untraced set-up and
    call and then a traced set-up and call under a fresh tracer.  The layer
    metrics come from the last pair's tracer; the tracing overheads are the
    median traced minus the median untraced times, so that a single slow
    call does not decide them.
    """
    from spans import LAYERS, Tracer
    _, ctx = runner.set_ups(lambda t: False)
    runner.warm_up(ctx)
    plain, traced = {"setup": [], "run": []}, {"setup": [], "run": []}
    for _ in range(TRACE_PAIRS):
        (dt,), ctx = runner.set_ups(lambda t: False)
        plain["setup"].append(dt)
        plain["run"].append(runner.call(ctx))
        tracer = Tracer()
        with tracer.installed():
            with tracer.span("bench.setup"):
                _, ctx = runner.set_ups(lambda t: False)
            with tracer.span("bench.run"):
                runner.call(ctx)
        agg = tracer.aggregate()
        traced["setup"].append(agg["bench.setup"]["s"])
        traced["run"].append(agg["bench.run"]["s"])
    tracer.write(trace_path)
    overhead = {k: statistics.median(traced[k]) - statistics.median(plain[k]) for k in plain}

    for row in agg.values():
        row["ms_per_call"] = 1e3 * row["s"] / row["calls"]
    metrics = {name: (agg.get(span, {}).get(field, 0.0), unit)
               for name, unit, span, field in SPAN_METRICS}
    metrics.update({name: (tracer.counts.get(name, 0), unit) for name, unit in COUNT_METRICS})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(row["self_s"] for span, row in agg.items()
                                          if span.startswith(layer + ".")), "s")
    metrics.update({
        "trace.setup_s": (agg["bench.setup"]["s"], "s"),
        "trace.run_s": (agg["bench.run"]["s"], "s"),
        "trace.overhead_s": (overhead["run"], "s"),
        "trace.setup_overhead_s": (overhead["setup"], "s"),
        "trace.unattributed_s": (agg["bench.setup"]["self_s"] + agg["bench.run"]["self_s"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


def main(argv=None) -> int:
    env.pin()
    ap = argparse.ArgumentParser(description="gfc benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="scenario seed; 0 reproduces the shipped presets")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads as W
    if args.workload not in W.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if not W.reference_path(args.workload).is_file():
        print(f"benchmark: missing reference {W.reference_path(args.workload)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(W.WORKLOADS[args.workload], args.seed, out_dir)
        if args.trace:
            metrics = measure_traced(
                runner, OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    led = runner.ledger
    for name in sorted(set(led.failed)):
        print(f"FAILED  {name}  x{led.failed.count(name)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not led.failed,
        "attempted": led.attempted,
        "failed": len(led.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
