#!/usr/bin/env python3
"""Build the end-to-end benchmark (bench/e2e) and run its workloads.

One workload, as a benchmark harness calls it; the last line of stdout
is one JSON object with the run's metrics (end-to-end ones, or the
per-layer ones with --trace 1):

    python3 bench/e2e/run.py --workload detect_full --seed 3 \\
        --seconds 10 --trace 0

Every workload, with every metric printed by name, unit, median,
quartiles and sample count, and a results file under bench/e2e/out/:

    python3 bench/e2e/run.py [--seed N] [--sets N] [--trace] [--smoke]

--trace adds a traced run per workload (per-layer metrics and a Chrome
trace file). --smoke runs every workload and check, traced runs
included, on small sets for a second each. --sets N repeats the whole
run N times and reports whether the sets' medians agree within each
end-to-end metric's bound.

Metric names, units and bounds come from BENCHMARK.json at the root.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "ptolemy_e2e"
POOL_WIDTH = 2
RUN_TIMEOUT_S = 170
# The detect_* stage sum must match pool width x 1e6 / detect_rps
# within this share (the traced replay accounts for the whole detection).
RECONCILE_TOLERANCE = 0.15
DETECT_STAGES = ("nn.forward_us", "path.extract_us", "path.similarity_us",
                 "classify.forest_us")


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "ptolemy_e2e", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run ptolemy_e2e once; returns its JSON result."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PTOLEMY_")}
    env["PTOLEMY_NUM_THREADS"] = str(POOL_WIDTH)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(OUT / f"trace_{workload}.json")]
    if smoke:
        cmd += ["--smoke", "--setups", "1", "--reps", "2"]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          text=True) as p:
        try:
            stdout, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
    lines = stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload}: ptolemy_e2e exited {p.returncode}")
    return json.loads(lines[-1])


def summary(samples):
    """(median, q1, q3, n) of one metric's samples."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med, len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, q1, q3, len(samples)


def contract_line(spec, result, trace):
    """The harness's result object: every listed metric's median."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"ptolemy_e2e did not report {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: ptolemy_e2e unit "
                             f"{got['unit']} != BENCHMARK.json unit "
                             f"{m['unit']}")
        metrics[m["name"]] = {"value": summary(got["samples"])[0],
                              "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_metrics(workload, result):
    print(f"\n{workload}: correct={result['correct']} "
          f"ops={result['attempted']} ops_failed={result['failed']}")
    for f in result["failures"]:
        print(f"  FAILED CHECK: {f}")
    print(f"  {'metric':28} {'unit':8} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}")
    for name, m in result["metrics"].items():
        med, q1, q3, n = summary(m["samples"])
        print(f"  {name:28} {m['unit']:8} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {n:3d}")


def reconcile(workload, traced):
    """Stage sum of the traced replay vs the per-detection wall time of
    the same run's untraced leg at full pool occupancy; True if within
    RECONCILE_TOLERANCE."""
    med = {k: summary(v["samples"])[0] for k, v in traced["metrics"].items()}
    stages = sum(med[s] for s in DETECT_STAGES)
    wall = POOL_WIDTH * 1e6 / med["detect_rps"]
    ratio = stages / wall
    ok = abs(ratio - 1.0) <= RECONCILE_TOLERANCE
    print(f"  {workload}: forward+extract+similarity+forest = "
          f"{stages:.1f} us vs {POOL_WIDTH} x 1e6 / detect_rps = "
          f"{wall:.1f} us (ratio {ratio:.3f}, "
          f"{'within' if ok else 'OUTSIDE'} {RECONCILE_TOLERANCE:.0%})")
    return ok


def agree(medians, bound):
    """True when every set's median is within bound of the first's."""
    base = medians[0]
    return all(abs(m - base) <= bound * abs(base) for m in medians[1:])


def report(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    seconds = 1.0 if args.smoke else (args.seconds or spec["run_seconds"])
    trace = args.trace or args.smoke
    runs = {w: [] for w in names}
    traced = {}
    for s in range(args.sets):
        for w in names:
            log(f"[set {s + 1}/{args.sets}] {w} ...")
            runs[w].append(run_workload(w, args.seed, seconds, False,
                                        args.smoke))
            if trace and s == 0:
                traced[w] = run_workload(w, args.seed, seconds, True,
                                         args.smoke)

    env = {"nproc": os.cpu_count(), "pool_width": POOL_WIDTH,
           "simd": runs[names[0]][0]["env"]["simd"], "commit": commit(),
           "seed": args.seed, "seconds": seconds, "sets": args.sets}
    print("env: " + json.dumps(env))
    for w in names:
        print_metrics(w, runs[w][0])
        if w in traced:
            print_metrics(w + " (traced)", traced[w])

    ok = all(r["correct"] for rs in runs.values() for r in rs)
    ok = ok and all(r["correct"] for r in traced.values())
    if traced:
        print("\ntraced runs: trace files in " + str(OUT))
        for w in names:
            if w.startswith("detect") and w in traced:
                ok = reconcile(w, traced[w]) and ok
    if args.sets > 1:
        # p99_ms left the end-to-end list because it did not repeat
        # within a tenth; the report keeps checking whether it does.
        checks = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
        checks.append(("p99_ms", 0.1))
        print("\nstability: do the sets' medians agree within each bound?")
        for w in names:
            for name, bound in checks:
                meds = [summary(r["metrics"][name]["samples"])[0]
                        for r in runs[w]]
                verdict = "agree" if agree(meds, bound) else "DIFFER"
                print(f"  {w:15} {name:16} bound {bound:.3f} "
                      f"medians {' '.join(f'{x:.6g}' for x in meds)} "
                      f"{verdict}")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"env": env, "runs": runs, "traced": traced}, indent=1))
    print(f"\nresults: {OUT / 'results.json'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # A terminated runner still stops and reaps the ptolemy_e2e process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}")
        build()
        if args.workload:
            trace = args.trace == "1"
            seconds = args.seconds or spec["run_seconds"]
            result = run_workload(args.workload, args.seed, seconds, trace)
            for f in result["failures"]:
                log("FAILED CHECK: " + f)
            print(json.dumps(contract_line(spec, result, trace)))
            return 0 if result["correct"] else 1
        args.trace = args.trace == "1"
        return report(args, spec)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
