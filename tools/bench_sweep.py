#!/usr/bin/env python3
"""Sweep the compute-core knobs over perf_smoke and pick defaults.

Runs the perf_smoke binary once per point of a small knob grid --
thread count (PTOLEMY_NUM_THREADS) x SIMD mode (PTOLEMY_SIMD), 6
points in full -- parses each run's BENCH_micro.json, and emits:

* a Markdown summary table (one row per grid point, ranked by the
  selection metric) for humans and CI artifacts, and
* a machine-readable JSON file with the picked defaults (the env block
  of the winning run plus the metrics it won on), so a deployment or a
  later tuning pass can consume the recommendation directly.

The selection metric is end-to-end serving throughput
(``detect.batch_per_sec``) -- the knobs exist to serve detections, not
to win microbenchmarks -- with conv GFLOP/s and the forward cost split
reported alongside.

``--smoke`` shrinks the grid to a two-point sanity sweep (default
threads, both SIMD modes) sized for a CI leg; the full grid is meant
for an idle machine.  Each run inherits
PTOLEMY_BENCH_MIN_TIME (or ``--min-time``), so total wall time is
roughly grid-size x the per-run budget.

Usage:
    tools/bench_sweep.py [--build-dir build] [--smoke]
                         [--min-time 0.2] [--out-md BENCH_sweep.md]
                         [--out-json BENCH_sweep_picks.json]

Exit status: 0 on success (all runs completed), 1 when any grid point
fails to run or parse, 2 on usage errors.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile

# Dotted keys pulled out of each run's BENCH_micro.json. The first is
# the selection metric; the rest are reported for context.
SELECT_KEY = "detect.batch_per_sec"
REPORT_KEYS = (
    SELECT_KEY,
    "detect.forward_us_per_detect",
    "conv_fwd.gemm_gflops",
    "conv_fwd.prepack_speedup",
)


def dig(obj, dotted):
    """Fetch a dotted-path value from nested dicts, or None."""
    cur = obj
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def grid_points(smoke):
    """Yield knob dicts. Values of None mean 'leave the env alone'
    (the binary's built-in default)."""
    threads = [None] if smoke else ["1", "2", "4"]
    simd = [None, "scalar"]
    for t, s in itertools.product(threads, simd):
        yield {
            "PTOLEMY_NUM_THREADS": t,
            "PTOLEMY_SIMD": s,
        }


def shown(knobs):
    """Human-readable knob values (defaults spelled out)."""
    return {
        "threads": knobs["PTOLEMY_NUM_THREADS"] or "auto",
        "simd": knobs["PTOLEMY_SIMD"] or "avx2",
    }


def run_point(binary, knobs, min_time):
    """Run perf_smoke under @p knobs; return its parsed JSON."""
    env = dict(os.environ)
    for k, v in knobs.items():
        env.pop(k, None)
        if v is not None:
            env[k] = v
    if min_time is not None:
        env["PTOLEMY_BENCH_MIN_TIME"] = str(min_time)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out_path = tf.name
    try:
        proc = subprocess.run([binary, out_path], env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"perf_smoke exited {proc.returncode}:\n{proc.stdout}")
        with open(out_path) as fh:
            return json.load(fh)
    finally:
        try:
            os.unlink(out_path)
        except OSError:
            pass


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def write_markdown(path, rows, pick, smoke, min_time):
    cols = ["threads", "simd"]
    metrics = [k.split(".", 1)[1] for k in REPORT_KEYS]
    with open(path, "w") as fh:
        fh.write("# perf_smoke knob sweep\n\n")
        fh.write(f"Grid: {'smoke (CI sanity)' if smoke else 'full'}; "
                 f"per-run budget PTOLEMY_BENCH_MIN_TIME="
                 f"{min_time}s; ranked by `{SELECT_KEY}` "
                 "(higher is better).\n\n")
        fh.write("| " + " | ".join(cols + metrics) + " |\n")
        fh.write("|" + "---|" * (len(cols) + len(metrics)) + "\n")
        for row in rows:
            cells = [row["knobs"][c] for c in cols]
            cells += [fmt(row["metrics"].get(k)) for k in REPORT_KEYS]
            fh.write("| " + " | ".join(cells) + " |\n")
        fh.write("\nPicked defaults (best "
                 f"`{SELECT_KEY}`): ")
        fh.write(", ".join(f"{c}={pick['knobs'][c]}" for c in cols))
        fh.write(f" at {fmt(pick['metrics'].get(SELECT_KEY))}"
                 " detections/s.\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="directory holding the perf_smoke binary")
    ap.add_argument("--smoke", action="store_true",
                    help="two-point sanity grid sized for a CI leg")
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="per-measurement budget handed to perf_smoke "
                         "via PTOLEMY_BENCH_MIN_TIME (default 0.2)")
    ap.add_argument("--out-md", default="BENCH_sweep.md",
                    help="Markdown summary output path")
    ap.add_argument("--out-json", default="BENCH_sweep_picks.json",
                    help="picked-defaults JSON output path")
    args = ap.parse_args(argv)

    binary = os.path.join(args.build_dir, "perf_smoke")
    if not os.path.exists(binary):
        print(f"bench_sweep: {binary} not found (build first)",
              file=sys.stderr)
        return 2

    rows = []
    failures = 0
    points = list(grid_points(args.smoke))
    for i, knobs in enumerate(points):
        label = " ".join(f"{k}={v}" for k, v in shown(knobs).items())
        print(f"[{i + 1}/{len(points)}] {label}", flush=True)
        try:
            bench = run_point(binary, knobs, args.min_time)
        except (RuntimeError, OSError, json.JSONDecodeError) as e:
            print(f"bench_sweep: grid point failed: {e}", file=sys.stderr)
            failures += 1
            continue
        rows.append({
            "knobs": shown(knobs),
            "env": {k: v for k, v in knobs.items() if v is not None},
            "metrics": {k: dig(bench, k) for k in REPORT_KEYS},
        })

    if not rows:
        print("bench_sweep: no grid point succeeded", file=sys.stderr)
        return 1

    rows.sort(key=lambda r: r["metrics"].get(SELECT_KEY) or 0.0,
              reverse=True)
    pick = rows[0]
    write_markdown(args.out_md, rows, pick, args.smoke, args.min_time)
    with open(args.out_json, "w") as fh:
        json.dump({
            "select_key": SELECT_KEY,
            "picked_env": pick["env"],
            "picked_knobs": pick["knobs"],
            "metrics": pick["metrics"],
            "grid": "smoke" if args.smoke else "full",
            "rows": rows,
        }, fh, indent=2)
        fh.write("\n")

    print(f"bench_sweep: wrote {args.out_md} and {args.out_json}; "
          f"best {SELECT_KEY} = "
          f"{fmt(pick['metrics'].get(SELECT_KEY))} with "
          + ", ".join(f"{c}={pick['knobs'][c]}"
                      for c in ("threads", "simd")))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
