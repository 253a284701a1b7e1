"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

    python3 bench/spread.py --runs 10 [--workloads disk_walks,...] [--first-seed 1]
                            [--traced-seed 1] [--out bench/baseline.json]

Runs bench/run.py once per seed and workload (workloads interleaved), then
reports for each end-to-end metric the median, the quartiles from
statistics.quantiles(values, n=4), and the interquartile spread as a share
of the median against the metric's bound in BENCHMARK.json.  With
--traced-seed it adds one traced run per workload.  Exit status 1 if a run
fails or a spread (other than setup_s) exceeds its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or res is None or not res["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed "
                         f"(exit {proc.returncode})")
    return res, took


def machine():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {m: [] for m in bounds} for w in workloads}
    wall = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res, took = run_once(w, seed, spec["run_seconds"], 0)
            wall[w].append(took)
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: {took:.1f} s  " + "  ".join(
                f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds), flush=True)

    ok = True
    report = {"machine": machine(), "seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for w in workloads:
        rows = {}
        for m, meta in bounds.items():
            vals = values[w][m]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread <= meta["bound"] / 3
            within = spread <= meta["bound"] or m == "setup_s"
            ok &= within
            rows[m] = {"unit": meta["unit"], "median": med, "q1": q1, "q3": q3,
                       "spread": spread, "bound": meta["bound"], "values": vals}
            print(f"{w:<20} {m:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} / bound {meta['bound']} "
                  f"{'steady' if steady else 'WITHIN' if within else 'OVER'}")
        report["workloads"][w] = {"end_to_end": rows,
                                  "run_wall_s": statistics.median(wall[w])}
        if args.traced_seed is not None:
            res, took = run_once(w, args.traced_seed, spec["run_seconds"], 1)
            report["workloads"][w]["per_layer"] = {
                k: v["value"] for k, v in res["metrics"].items()}
            report["workloads"][w]["traced_seed"] = args.traced_seed
            report["workloads"][w]["traced_wall_s"] = took
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
