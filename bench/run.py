"""stabletau benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 bench/run.py --smoke

One invocation sets the workload up, runs rounds of seeded inputs in a
closed loop (one caller, one process, n_threads=1) until --seconds have
passed, checks every result against an oracle that does not share the code
under test, and prints one JSON object as the last line of stdout.  --trace 0
reports the end-to-end metrics; --trace 1 replays the same rounds under the
per-layer tracer (bench/layers.py) and reports the per-layer metrics.  A
human-readable table goes to stderr.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import probes  # noqa: E402
from layers import Tracer, ratio  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Round  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5      # setups per run: this process plus fresh child processes
MIN_ROUNDS = 3
CHILD_TIMEOUT = 170.0
CAL_REF_S = 0.003      # kernel duration that defines a calibrated second ...
CAL_STREAM_REF_S = 0.0015  # ... plus this when the kernel streams a large temporary


def import_package():
    """Import stabletau from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stabletau" / "__init__.py").is_file():
        raise SystemExit(f"bench: {src / 'stabletau'} not found; run from a stabletau checkout")
    sys.path.insert(0, str(src))
    import stabletau
    from stabletau import analysis, closedform, extension, geom, quad, wos

    if Path(stabletau.__file__).resolve().parent != (src / "stabletau").resolve():
        raise SystemExit(f"bench: imported stabletau from {stabletau.__file__}, not {src}")
    return SimpleNamespace(analysis=analysis, closedform=closedform, extension=extension,
                           geom=geom, quad=quad, wos=wos)


class CalibratedClock:
    """Wall time rescaled to a fixed machine speed.

    The CPU of a shared virtual machine switches between speed states 1.5x
    apart every few seconds, which spreads raw wall times of whole runs by
    about 20%.  A fixed kernel of this file's own numpy and Python code (no
    stabletau) is timed before and after each unit; the unit's calibrated
    time is wall * reference / (mean kernel time).  Workloads whose time goes
    to large temporaries (`stream = True`) add a memory-streaming part: it
    tracks their slowdowns better, and those of small-array code worse.
    """

    def __init__(self, stream: bool):
        self.stream = stream
        self.reference = CAL_REF_S + (CAL_STREAM_REF_S if stream else 0.0)
        rng = np.random.default_rng(12345)
        self._big = rng.random((1024, 256))
        self._vec = rng.random((256, 2))
        self._small = rng.random(225)
        self._stream = rng.random((4096, 256)) if stream else None
        self.refresh()

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):  # interpreter and small-array dispatch, like a quadrature cell
            acc += float(np.sum(np.sqrt(self._small * 1.0001 + i)))
        for _ in range(2):  # cache-sized array work, like a walk round
            acc += float((self._big @ self._vec).sum() + np.argmin(self._big, axis=1).sum()
                         + np.cos(self._big[:, :64]).sum())
        if self.stream:  # a fresh 8 MB temporary, like a 16384-point distance query
            acc += float(np.argmin(self._stream - 0.5, axis=1).sum())
        return time.perf_counter() - t0

    def refresh(self):
        self.last = self.kernel()

    def scale(self, wall, before) -> float:
        self.last = self.kernel()
        return wall * self.reference / (0.5 * (before + self.last))

    def time(self, fn, *args, **kwargs):
        """(result, calibrated seconds) of one call; the kernel after it is reused
        as the kernel before the next."""
        before = self.last
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, self.scale(time.perf_counter() - t0, before)


# -- measuring --------------------------------------------------------------------------

def setup_workload(name, sizes, seed, clock):
    """Import the package and set the workload up; returns (pkg, workload, calibrated s)."""
    clock.refresh()
    before = clock.last
    t0 = time.perf_counter()
    pkg = import_package()
    wl = WORKLOADS[name]()
    wl.setup(pkg, sizes, np.random.default_rng([seed, 0]))
    return pkg, wl, clock.scale(time.perf_counter() - t0, before)


def prepare(name, sizes, seed, clock):
    """Set up, then build the benchmark's own reference data outside the timing."""
    pkg, wl, secs = setup_workload(name, sizes, seed, clock)
    if hasattr(wl, "oracle"):
        wl.oracle()
    return pkg, wl, secs


def run_round(wl, inp, clock, n_threads=1):
    clock.refresh()
    t0 = time.perf_counter()
    try:
        units = wl.run(inp, clock, n_threads=n_threads)
    except Exception as exc:  # an exception fails the round, and so the run
        traceback.print_exc(file=sys.stderr)
        text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return Round(ops=0, attempted=len(inp), failed=len(inp),
                     problems=[f"exception: {text}"]), None
    wall = time.perf_counter() - t0
    rnd = wl.check(inp, units)
    rnd.wall, rnd.cal = wall, sum(cal for _, cal in units)
    return rnd, units


def measure(wl, rng, seconds, clock):
    inputs, rounds, outs = [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        inp = wl.inputs(rng)
        rnd, units = run_round(wl, inp, clock)
        inputs.append(inp)
        rounds.append(rnd)
        outs.append(units)
    return inputs, rounds, outs


def child_setup_seconds(name, size, seed):
    """Setup time measured in a fresh interpreter, so imports and lazy tables count."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--size", size, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def summarize(rounds):
    return (sum(r.attempted for r in rounds), sum(r.failed for r in rounds),
            [p for r in rounds for p in r.problems])


def end_to_end(name, args, sizes, clock):
    _, wl, setup_main = prepare(name, sizes, args.seed, clock)
    setups = [setup_main] + [child_setup_seconds(name, args.size, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
    _, rounds, _ = measure(wl, np.random.default_rng([args.seed, 1]), args.seconds, clock)
    attempted, failed, problems = summarize(rounds)
    problems += wl.run_checks(rounds)
    ok = [r for r in rounds if not r.problems] or [Round(ops=0, attempted=0, cal=1.0)]
    # work per second over the whole run averages the per-round variation of
    # the seeded inputs; time to tolerance takes the median over rounds because
    # a rare walk can inflate one estimate's variance tenfold
    metrics = {
        "time_to_tol_s": (statistics.median(r.tol_s for r in ok), "s", len(ok)),
        "ops_per_s": (sum(r.ops for r in ok) / sum(r.cal for r in ok), "1/s", len(ok)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    raw = sum(r.ops for r in ok) / max(sum(r.wall for r in ok), 1e-9)
    human = [f"{name}: {len(rounds)} rounds, {attempted} {wl.op} attempted, {failed} failed "
             f"(failed_share {failed / max(attempted, 1):.3g})"]
    rounds_of = {"time_to_tol_s": "median", "ops_per_s": "total", "setup_s": "median"}
    for key, (value, unit, n) in metrics.items():
        label = key
        if key == "ops_per_s":
            label = "walks_per_s" if wl.op == "walks" else "hessian_points_per_s"
        how = f"{rounds_of[key]} of n={n}" if key in rounds_of else "process peak"
        human.append(f"  {label:<22} {value:>14.6g} {unit:<4} {how}")
    per_round = sorted(r.ops / r.cal for r in ok)
    human.append(f"  {'  per round':<22} {statistics.median(per_round):>14.6g} 1/s  "
                 f"median, range {per_round[0]:.6g} to {per_round[-1]:.6g}")
    human.append(f"  {'  raw wall':<22} {raw:>14.6g} 1/s  uncalibrated")
    if wl.op == "points":
        human.append(f"  indeterminate points   {sum(r.indeterminate for r in rounds)} "
                     f"of {attempted}")
    return attempted, failed, problems, {k: (v, u) for k, (v, u, _) in metrics.items()}, human


def traced(name, args, sizes, clock):
    pkg, wl, _ = prepare(name, sizes, args.seed, clock)
    inputs, plain, outs = measure(wl, np.random.default_rng([args.seed, 1]),
                                  args.seconds / 2, clock)
    tracer = Tracer(pkg)
    replay = []
    t0 = time.perf_counter()
    with tracer:
        for inp in inputs:
            replay.append(run_round(wl, inp, clock)[0])
    traced_wall = time.perf_counter() - t0
    problems = []
    missing = tracer.missing(wl.traced)
    if missing:
        problems.append(f"wrappers never fired on {name}: {missing}")
    for i, (a, b) in enumerate(zip(plain, replay)):
        if a.digest != b.digest:
            problems.append(f"round {i}: traced results differ from untraced results")
    attempted, failed, round_problems = summarize(plain + replay)
    problems += round_problems + wl.run_checks(plain)

    metrics = tracer.metrics(traced_wall)
    points = sum(r.ops for r in replay) if wl.op == "points" else 0
    ind = sum(r.indeterminate for r in replay)
    metrics["extension.indeterminate_share"] = (ratio(ind, points), "ratio")
    two, _ = run_round(wl, inputs[0], clock, n_threads=2)
    problems += two.problems
    metrics["analysis.threads2_speedup"] = (ratio(plain[0].cal, two.cal), "ratio")
    metrics["trace.overhead"] = (ratio(sum(r.cal for r in replay), sum(r.cal for r in plain)),
                                 "ratio")
    probe_rng = np.random.default_rng([args.seed, 2])
    metrics.update(probes.distance_probe(pkg, probe_rng))
    rt_field = wl.roundtrip_field(outs[0]) if outs[0] else None
    if rt_field is not None:
        metrics.update(probes.field_roundtrip(pkg, rt_field, probe_rng, BENCH_DIR))
    else:  # no field on this workload's path
        metrics.update({key: (0.0, unit) for key, unit in probes.ROUNDTRIP_UNITS.items()})
    human = [f"{name} (traced): {len(inputs)} rounds replayed"]
    human += [f"  {k:<36} {v:>14.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    return attempted, failed, problems, metrics, human


# -- entry points ---------------------------------------------------------------------

def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def run_children(seed, seconds, traces, size):
    """Run every workload in its own process; returns (ok, table lines)."""
    e2e, per_layer = declared_metrics()
    ok, lines = True, []
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--size", size]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            took = time.perf_counter() - t0
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                res = None
            want = per_layer if trace else e2e
            bad = []
            if proc.returncode != 0 or res is None or not res.get("correct"):
                bad.append(f"exit {proc.returncode}, correct={res and res.get('correct')}")
            elif sorted(res["metrics"]) != sorted(want):
                bad.append(f"metric names differ: {sorted(set(want) ^ set(res['metrics']))}")
            elif not all(math.isfinite(m["value"]) for m in res["metrics"].values()):
                bad.append("non-finite metric values")
            ok &= not bad
            lines.append(f"== {name} trace={trace}: {'FAILED ' if bad else 'ok '}"
                         f"in {took:.1f} s {'; '.join(bad)}")
            lines += proc.stderr.rstrip().splitlines()
    return ok, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload, untraced and traced, metrics checked")
    args = ap.parse_args(argv)

    if args.smoke or args.workload == "all":
        import_package()  # fail fast outside a checkout
        if args.smoke:
            ok, lines = run_children(args.seed, 0.5, (0, 1), "smoke")
        else:
            ok, lines = run_children(args.seed, args.seconds, (args.trace,), args.size)
        print("\n".join(lines))
        print("all workloads ok" if ok else "some workloads FAILED")
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")

    sizes = SMOKE if args.size == "smoke" else FULL
    clock = CalibratedClock(stream=WORKLOADS[args.workload].stream)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_workload(args.workload, sizes, args.seed, clock)[2]}))
        return 0
    run = traced if args.trace else end_to_end
    attempted, failed, problems, metrics, human = run(args.workload, args, sizes, clock)
    for line in human + [f"  CHECK FAILED: {p}" for p in problems]:
        print(line, file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
