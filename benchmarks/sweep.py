"""Layer sweep: ms per call of the hot layer functions at 128-1024 cells.

Times `apply_coag`, `transport_apply` (one splitting half step, as the
solver calls it), `daughter_gain` and the table-kernel `build_daughter_matrix`
on the gfc-global-ii grid and kernels, with random admissible fields
(nonnegative, inside the configured ball) drawn from ``--seed``:

    python3 benchmarks/sweep.py --seed 0

and writes the table to ``.bench_out/sweep.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import env

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out" / "sweep.json"
CELLS = (128, 256, 512, 1024)
FIELDS = 5


def per_call_ms(fn, args_cycle: list) -> float:
    """Median ms per call; at least three calls and 0.5 s, or one slow call."""
    times = []
    while len(times) < 3 or sum(times) < 0.5:
        args = args_cycle[len(times) % len(args_cycle)]
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
        if times[0] > 2.0:
            break
    return 1e3 * statistics.median(times)


def sweep_cells(n: int, seed: int) -> dict:
    import numpy as np
    from gfc import coagulation, config, fragmentation, grid as G, transport
    import workloads as W

    sc = config.load_scenario({**W.split_coag_raw(seed), "grid": {
        "xmin": 1e-3, "xmax": 50.0, "cells": n}})
    ks, g, cfg = sc.kernel_set(), sc.grid(), sc.solver_config()
    rng = np.random.default_rng([seed, n])
    w = G.WeightSpec(cfg.m, "shifted")
    fields = []
    for _ in range(FIELDS):
        f = G.DensityField(g, rng.random(n) * np.exp(-g.centers))
        f.values *= 0.5 * cfg.ball_radius / G.weighted_integral(f, w)
        fields.append(f)
    ct = coagulation.build_coag_tables(ks.k, g)
    dm = fragmentation.build_daughter_matrix(ks.b, g)
    antid = transport.make_antiderivatives(ks, g)
    table_b = config.load_scenario(W.setup_table_raw(seed)).kernel_set().b
    return {
        "apply_coag": per_call_ms(coagulation.apply_coag, [(f, ct) for f in fields]),
        "transport_apply": per_call_ms(
            lambda f: transport.transport_apply(f, 0.5 * cfg.dt, ks, cfg.m, antid=antid,
                                                include_absorption=False),
            [(f,) for f in fields]),
        "daughter_gain": per_call_ms(fragmentation.daughter_gain,
                                     [(dm, f.values * g.widths) for f in fields]),
        "table_build_daughter_matrix": per_call_ms(fragmentation.build_daughter_matrix,
                                                   [(table_b, g)]),
    }


def main() -> int:
    env.pin()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    rows = {}
    print(f"{'cells':>6s} " + " ".join(f"{k:>28s}" for k in (
        "apply_coag ms", "transport_apply ms", "daughter_gain ms",
        "table build_daughter_matrix ms")), flush=True)
    for n in CELLS:
        rows[n] = sweep_cells(n, args.seed)
        print(f"{n:6d} " + " ".join(f"{v:28.4f}" for v in rows[n].values()), flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"seed": args.seed, "unit": "ms/call",
                                    "cells": {str(n): r for n, r in rows.items()}},
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
