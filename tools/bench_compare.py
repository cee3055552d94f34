#!/usr/bin/env python3
"""Compare a fresh perf_smoke/serve_load JSON against a checked-in baseline.

The gate distinguishes three kinds of metric:

* **Ratio keys** (``*speedup*``, ``avx2_vs_scalar``) are machine
  independent — both sides of the division ran on the same host, so a
  drop past the noise band means a real relative regression (e.g. the
  AVX2 kernel silently falling back to scalar, or the batched path
  losing to the one it replaced).  These HARD-FAIL everywhere.
* **Allocation counters** (``allocs_*``, ``steady_state_allocs``) must
  never increase: the serving steady state is allocation-free by
  contract and a single new alloc per batch is a real leak of that
  contract, not noise.  These HARD-FAIL everywhere, with zero band.
* **Absolute throughputs** (``*_per_sec``, ``*gflops*``) depend on the
  host.  They hard-fail locally (same machine as the baseline) but only
  WARN under ``--warn-only-absolutes`` (CI runners differ from the
  machine that recorded the baseline).
* **Exact metrics** (everything under ``hw.``) are deterministic
  integers — cycle counts, instruction counts, DRAM bytes from the
  cycle-level simulator over a fixed profiled trace.  There is no noise
  band and no direction: ANY difference from the baseline hard-fails,
  in either direction, like the allocation counters.  An intentional
  compiler or timing-model change must re-baseline via
  ``tools/bench_update_baseline``.

``--prefix hw.`` restricts the comparison to keys under one dotted
prefix (the CI codesign leg gates only the deterministic hw block that
way, leaving throughput gating to the perf leg).

A gated key (ratio, allocation or exact) that is in the baseline but
missing from the fresh run HARD-FAILS: a deleted gate, or a harness
block that quietly stops emitting one, would otherwise pass.  Removing a
gate on purpose means removing it from the baseline in the same change.
Other keys present in only one file are reported but never fatal, so
adding a benchmark does not require updating the baseline atomically.
Latency percentiles and shed rates under ``serve.points`` are skipped:
they are load-dependent coordinates, not metrics with a monotone
"better".

Exit status: 0 clean, 1 on any hard failure, 2 on usage/IO errors.

Usage:
    bench_compare.py BASELINE FRESH [--noise 0.30] [--warn-only-absolutes]
    bench_compare.py --self-test
"""

import argparse
import json
import sys

# Metrics where a *decrease* is a regression but the absolute value is
# machine-dependent.  Substring match on the flattened dotted key.
HIGHER_IS_BETTER = (
    "_per_sec",
    "gflops",
    "ops_per_sec",
    "capacity_per_sec",
)

# Machine-independent ratios: both numerator and denominator were
# measured on the same host in the same process.
RATIO_MARKERS = ("speedup", "avx2_vs_scalar")

# Ratios that compare two near-equal schedules and jitter with cache
# state, or that only some hosts can measure (the AVX-512 conv tile vs
# AVX2 needs AVX-512F); they are reported but gated only as absolutes
# (warn-only in CI).
INFORMATIONAL_RATIOS = (
    "detect.batch_speedup_vs_single_stream",
    "train.speedup_vs_1thread",
    "conv_fwd.avx512_speedup",
)

ALLOC_MARKERS = ("allocs", "steady_state_allocs")

# Deterministic simulator/compiler metrics: gated exactly, both
# directions, zero band.  telemetry.mem.* is the sketch geometry and
# footprint derived purely from the (epsilon, delta) error-bound
# config — any drift there is a silent change to the provable error
# bound, not noise.
EXACT_PREFIXES = ("hw.", "telemetry.mem.")

# Load-curve coordinates, not monotone metrics.  The _trial_ markers
# are perf_smoke's median-of-N spread diagnostics (fastest/slowest
# trial): by construction noisier than the gated median, recorded for
# humans reading the artifact, never gated.
SKIP_MARKERS = ("serve.points", "path_bits_last", "shed_rate", "_trial_")


def flatten(obj, prefix=""):
    """Flatten nested dicts/lists into dotted-path -> scalar."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def classify(key):
    lk = key.lower()
    if any(m in lk for m in SKIP_MARKERS):
        return "skip"
    if any(lk.startswith(p) for p in EXACT_PREFIXES):
        return "exact"
    if any(m in lk for m in ALLOC_MARKERS):
        return "alloc"
    if any(m in lk for m in RATIO_MARKERS):
        if any(lk == m or lk.endswith(m) for m in INFORMATIONAL_RATIOS):
            return "absolute"
        return "ratio"
    if any(m in lk for m in HIGHER_IS_BETTER):
        return "absolute"
    return "skip"


def compare(baseline, fresh, noise, warn_only_absolutes, out=sys.stdout,
            prefix=None):
    """Return (hard_failures, warnings) comparing two flattened dicts."""
    base = flatten(baseline)
    new = flatten(fresh)
    if prefix:
        base = {k: v for k, v in base.items() if k.startswith(prefix)}
        new = {k: v for k, v in new.items() if k.startswith(prefix)}
    failures = []
    warnings = []

    for key in sorted(set(base) & set(new)):
        kind = classify(key)
        if kind == "skip":
            continue
        b, f = base[key], new[key]
        if not isinstance(b, (int, float)) or not isinstance(f, (int, float)):
            continue
        if kind == "exact":
            if f != b:
                failures.append(
                    f"EXACT  {key}: {b} -> {f} (deterministic hw metric "
                    "must match the baseline exactly; re-baseline via "
                    "tools/bench_update_baseline if the change is "
                    "intentional)")
            continue
        if kind == "alloc":
            if f > b:
                failures.append(
                    f"ALLOC  {key}: {b} -> {f} (steady state must not "
                    "allocate more)")
            continue
        floor = b * (1.0 - noise)
        if f >= floor:
            continue
        msg = (f"{key}: {f:.4g} < {b:.4g} * (1 - {noise:.2f}) "
               f"= {floor:.4g}")
        if kind == "ratio":
            failures.append("RATIO  " + msg)
        elif warn_only_absolutes:
            warnings.append("ABS    " + msg)
        else:
            failures.append("ABS    " + msg)

    # Hard-gated metrics must exist on both sides: a vanished ratio,
    # allocation or hw key is a silent hole in the gate, not an optional
    # extra benchmark.
    for key in sorted(set(base) - set(new)):
        kind = classify(key)
        if kind in ("exact", "ratio", "alloc"):
            failures.append(f"{kind.upper():6} {key}: in baseline but "
                            "missing from fresh run")
        elif kind != "skip":
            warnings.append(f"MISSING {key}: in baseline but not in fresh "
                            "run")
    for key in sorted(set(new) - set(base)):
        kind = classify(key)
        if kind == "exact" and isinstance(new[key], (int, float)):
            failures.append(f"EXACT  {key}: not in baseline (re-baseline "
                            "via tools/bench_update_baseline)")
        elif kind != "skip":
            warnings.append(f"NEW     {key}: not in baseline (consider "
                            "tools/bench_update_baseline)")

    for w in warnings:
        print(f"warn: {w}", file=out)
    for f in failures:
        print(f"FAIL: {f}", file=out)
    if not failures:
        n = len([k for k in set(base) & set(new) if classify(k) != "skip"])
        print(f"bench_compare: {n} gated metrics within "
              f"{noise:.0%} of baseline", file=out)
    return failures, warnings


def self_test():
    """Gate sanity: an injected regression must fail, a clean run must not."""
    baseline = {
        "detect": {
            "batch_per_sec": 4000.0,
            "batch_speedup_vs_legacy": 3.3,
            "allocs_per_batch": 0,
        },
        "conv_fwd": {
            "gemm_gflops": 50.0,
            "gemm_gflops_trial_min": 40.0,
            "speedup": 41.6,
        },
        "similarity": {
            "w65536": {"and_popcount_ops_per_sec": 3.0e6,
                       "avx2_vs_scalar": 7.0}
        },
        "hw": {
            "inference_cycles": 6994,
            "opt_all": {"cycles": 14995, "instrs": 88},
        },
        "telemetry": {
            "attached_vs_plain_speedup": 1.01,
            "allocs_per_window": 0,
            "mem": {"sketch_width": 1024, "sketch_bytes": 20480},
        },
    }
    import copy

    clean = copy.deepcopy(baseline)
    clean["detect"]["batch_per_sec"] *= 1.02  # ordinary jitter
    f, _ = compare(baseline, clean, 0.30, False)
    assert not f, f"clean run flagged: {f}"

    ratio_reg = copy.deepcopy(baseline)
    ratio_reg["similarity"]["w65536"]["avx2_vs_scalar"] = 1.0  # kernel lost
    f, _ = compare(baseline, ratio_reg, 0.30, True)
    assert any("avx2_vs_scalar" in x for x in f), \
        "injected ratio regression not caught under --warn-only-absolutes"

    alloc_reg = copy.deepcopy(baseline)
    alloc_reg["detect"]["allocs_per_batch"] = 1
    f, _ = compare(baseline, alloc_reg, 0.30, True)
    assert any("allocs_per_batch" in x for x in f), \
        "injected allocation regression not caught"

    # Implicit-GEMM-vs-naive is a same-host ratio: losing it (the conv
    # forward silently regressing) must hard-fail even
    # under --warn-only-absolutes, while the median-of-N spread
    # diagnostics are never gated no matter how wide the trials swing.
    conv_reg = copy.deepcopy(baseline)
    conv_reg["conv_fwd"]["speedup"] = 20.0
    f, _ = compare(baseline, conv_reg, 0.30, True)
    assert any("conv_fwd.speedup" in x for x in f), \
        "injected conv forward ratio regression not caught"
    spread = copy.deepcopy(baseline)
    spread["conv_fwd"]["gemm_gflops_trial_min"] = 1.0
    f, _ = compare(baseline, spread, 0.30, False)
    assert not any("trial_min" in x for x in f), \
        "trial-spread diagnostic should never be gated"

    abs_reg = copy.deepcopy(baseline)
    abs_reg["detect"]["batch_per_sec"] = 1000.0
    f, _ = compare(baseline, abs_reg, 0.30, False)
    assert any("batch_per_sec" in x for x in f), \
        "absolute regression not caught in local mode"
    f, w = compare(baseline, abs_reg, 0.30, True)
    assert not f and any("batch_per_sec" in x for x in w), \
        "absolute regression should only warn under --warn-only-absolutes"

    # Deterministic hw metrics are gated exactly, with no noise band and
    # in BOTH directions — a one-cycle change must fail even under
    # --warn-only-absolutes, and so must an "improvement".
    cyc_reg = copy.deepcopy(baseline)
    cyc_reg["hw"]["opt_all"]["cycles"] += 1
    f, _ = compare(baseline, cyc_reg, 0.30, True)
    assert any("hw.opt_all.cycles" in x for x in f), \
        "injected cycle-count change not caught"
    cyc_imp = copy.deepcopy(baseline)
    cyc_imp["hw"]["opt_all"]["cycles"] -= 1000
    f, _ = compare(baseline, cyc_imp, 0.30, True)
    assert any("hw.opt_all.cycles" in x for x in f), \
        "un-baselined cycle-count improvement not caught"
    missing_hw = copy.deepcopy(baseline)
    del missing_hw["hw"]["inference_cycles"]
    f, _ = compare(baseline, missing_hw, 0.30, True)
    assert any("hw.inference_cycles" in x for x in f), \
        "vanished hw metric not caught"

    # So must a vanished ratio or allocation gate (a deleted perf_smoke
    # block, or one that stops emitting its key), while a vanished
    # absolute only warns.
    for block, key in (("conv_fwd", "speedup"),
                       ("detect", "allocs_per_batch")):
        gone = copy.deepcopy(baseline)
        del gone[block][key]
        f, _ = compare(baseline, gone, 0.30, True)
        assert any(f"{block}.{key}" in x and "missing" in x for x in f), \
            f"vanished gate {block}.{key} not caught"
    gone_abs = copy.deepcopy(baseline)
    del gone_abs["detect"]["batch_per_sec"]
    f, w = compare(baseline, gone_abs, 0.30, True)
    assert not f and any("batch_per_sec" in x for x in w), \
        "vanished absolute should only warn"

    # --prefix restricts the gate: with prefix hw., a throughput
    # regression is invisible but the cycle change still fails.
    both = copy.deepcopy(baseline)
    both["detect"]["batch_per_sec"] = 1000.0
    both["hw"]["opt_all"]["cycles"] += 1
    f, _ = compare(baseline, both, 0.30, False, prefix="hw.")
    assert any("hw.opt_all.cycles" in x for x in f), \
        "cycle change not caught under --prefix hw."
    assert not any("batch_per_sec" in x for x in f), \
        "--prefix hw. should not gate non-hw keys"

    # Telemetry gates: the ingest-overhead ratio is same-host (hard
    # fails), the per-window allocation counter must never grow, and
    # the error-bound-derived sketch geometry is exact in both
    # directions like the hw block.
    tel_ratio = copy.deepcopy(baseline)
    tel_ratio["telemetry"]["attached_vs_plain_speedup"] = 0.5
    f, _ = compare(baseline, tel_ratio, 0.30, True)
    assert any("attached_vs_plain_speedup" in x for x in f), \
        "injected telemetry overhead regression not caught"
    tel_alloc = copy.deepcopy(baseline)
    tel_alloc["telemetry"]["allocs_per_window"] = 3
    f, _ = compare(baseline, tel_alloc, 0.30, True)
    assert any("allocs_per_window" in x for x in f), \
        "injected telemetry allocation regression not caught"
    tel_mem = copy.deepcopy(baseline)
    tel_mem["telemetry"]["mem"]["sketch_bytes"] = 10240  # bound shrank
    f, _ = compare(baseline, tel_mem, 0.30, True)
    assert any("telemetry.mem.sketch_bytes" in x for x in f), \
        "sketch-geometry change not caught by the exact gate"

    print("bench_compare: self-test passed")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--noise", type=float, default=0.30,
                    help="allowed fractional drop before failing "
                         "(default 0.30)")
    ap.add_argument("--warn-only-absolutes", action="store_true",
                    help="machine-dependent absolutes warn instead of "
                         "failing (for CI runners that differ from the "
                         "baseline host)")
    ap.add_argument("--prefix",
                    help="gate only keys under this dotted prefix "
                         "(e.g. 'hw.' for the deterministic codesign "
                         "block)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate catches injected regressions")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.fresh:
        ap.error("BASELINE and FRESH are required unless --self-test")
    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        with open(args.fresh) as fh:
            fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    failures, _ = compare(baseline, fresh, args.noise,
                          args.warn_only_absolutes, prefix=args.prefix)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
