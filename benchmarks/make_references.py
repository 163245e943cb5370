"""Generate the reference final states behind the benchmark's err_ref metric.

Each reference repeats a workload's computation at one eighth of its time
step and stores the final cell values.  They are made once, from the commit
recorded in each file, and never during a measured run:

    python3 benchmarks/make_references.py
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gfc import evolution  # noqa: E402

import workloads as W  # noqa: E402

COMMAND = "python3 benchmarks/make_references.py"
REFINE = 8


def reference_state(name: str) -> tuple[dict, "evolution.DensityField", float]:
    raw = W.WORKLOADS[name].raw(0)
    raw["time"]["dt"] = raw["time"].get("dt", 1e-3) / REFINE
    ctx = W.set_up(raw)
    if ctx.cfg.scheme == "duhamel":
        traj, _ = evolution.duhamel_solve(ctx.f0, ctx.cfg, ctx.ks)
    else:
        traj = evolution.solve(ctx.f0, ctx.cfg, ctx.ks, dm=ctx.dm, ct=ctx.ct)
    return raw, traj.fields[-1], float(traj.times[-1])


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(W.WORKLOADS):
        start = time.perf_counter()
        raw, final, t = reference_state(name)
        doc = {"workload": name, "command": COMMAND, "commit": commit,
               "dt": raw["time"]["dt"], "t": t, "cells": final.grid.cells,
               "escaped_mass": final.escaped_mass, "values": final.values.tolist()}
        with open(W.reference_path(name), "w") as fh:
            json.dump(doc, fh, indent=0)
            fh.write("\n")
        print(f"{name}: t = {t:g}, dt = {doc['dt']:g}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
