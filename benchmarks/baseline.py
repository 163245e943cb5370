"""Measure the benchmark's baseline: repeated runs, one traced run, the sweep.

Runs every workload of BENCHMARK.json RUNS times, one process after another
and interleaved across workloads, with seeds 0 to RUNS - 1; then one traced
run per workload and the layer sweep.  Prints each end-to-end metric's
median and quartile spread against its bound, the same for the unscaled
run_s and the host speed reference kernel (``host.py``) with the correlation
of the two, and writes everything, with a description of the machine, to
``benchmarks/baseline.json``:

    python3 benchmarks/baseline.py
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import env
import sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
UNSCALED = ("unscaled_run_s", "reference_kernel_s")   # printed by --trace 0 runs


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["unscaled"] = {f[0]: float(f[1]) for f in map(str.split, lines[:-1])
                       if f and f[0] in UNSCALED}
    return res


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine() -> dict:
    import numpy
    import scipy
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        name = f"L{(d / 'level').read_text().strip()} {(d / 'type').read_text().strip()}"
        caches[name] = (d / "size").read_text().strip()
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "environment": dict(env.PINNED),
    }


def main() -> int:
    env.pin()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(RUNS):
        for w in results:
            res = run_once(bench["command"], w, seed, seconds, 0)
            results[w].append(res)
            print(f"run {seed + 1}/{RUNS} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    doc = {"machine": machine(), "run_seconds": seconds, "runs": RUNS,
           "seeds": list(range(RUNS)), "workloads": {}}
    rel: dict = {k: [] for k in UNSCALED}
    print(f"\n{'workload':12s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for w, runs in results.items():
        e2e = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        doc["workloads"][w] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
        }
        for name, s in e2e.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{w:12s} {name:18s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bounds[name]:6.2f}{flag}")
        unscaled = {k: spread([r["unscaled"][k] for r in runs]) for k in UNSCALED}
        doc["workloads"][w]["unscaled"] = unscaled
        for k, s in unscaled.items():
            rel[k] += [v / s["median"] for v in s["values"]]
            print(f"{w:12s} {k:18s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f}")
        traced = run_once(bench["command"], w, 0, seconds, 1)
        doc["workloads"][w]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    # how closely the host speed reference follows the workloads, run by run
    doc["kernel_correlation"] = statistics.correlation(*rel.values())
    print(f"reference kernel vs unscaled run_s, run medians: correlation "
          f"{doc['kernel_correlation']:.3f}")
    subprocess.run([sys.executable, str(HERE / "sweep.py"), "--seed", "0"],
                   cwd=ROOT, check=True, timeout=900)
    doc["sweep"] = json.loads(sweep.OUT.read_text())
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
