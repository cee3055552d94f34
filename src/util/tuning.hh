/**
 * @file
 * Startup consumption of bench_sweep picked-defaults JSON.
 *
 * `tools/bench_sweep.py` sweeps the knob grid and writes the winning
 * configuration to a picks JSON (`picked_env`: knob name → value).
 * Pointing PTOLEMY_TUNING_FILE at that file applies the picked knobs
 * process-wide at startup — closing the loop so a sweep run on the
 * deployment host actually configures the binary, instead of sitting
 * in a report nobody reads back.
 *
 * Precedence: explicitly-set environment variables ALWAYS win. The
 * loader only fills in knobs that are unset (setenv with overwrite=0),
 * so `PTOLEMY_SIMD=scalar ./detect` still forces scalar even when the
 * tuning file picked AVX2. Only the known knob names are applied
 * (PTOLEMY_NUM_THREADS, PTOLEMY_SIMD) — a tuning file cannot inject
 * arbitrary environment.
 *
 * Mechanism: both lazy statics that read those knobs (globalPool's
 * thread count, simdMode) call ensureTuningApplied() before their
 * first getenv, so the file is honored no matter which knob is read
 * first. The load
 * happens exactly once (std::once_flag) and uses setenv(), which is
 * only safe before other threads are spawned — which holds here
 * because the first of those statics to initialize is what creates
 * the pool.
 */

#ifndef PTOLEMY_UTIL_TUNING_HH
#define PTOLEMY_UTIL_TUNING_HH

namespace ptolemy
{

/**
 * Apply PTOLEMY_TUNING_FILE (if set) exactly once, process-wide.
 * Unset, unreadable or malformed files are diagnosed to stderr and
 * otherwise ignored — a bad tuning file must never take serving down.
 * Idempotent and cheap after the first call.
 */
void ensureTuningApplied();

/**
 * Apply the picks file at @p path immediately (the worker behind
 * ensureTuningApplied; callable directly by tests and tools). Returns
 * the number of knobs actually applied — unknown knob names are
 * skipped (a tuning file cannot inject arbitrary environment) and so
 * are knobs already pinned by explicit environment.
 */
unsigned applyTuningFile(const char *path);

/** Knobs applied by the last (only) load — 0 when no file was set,
 *  the file was unreadable, or every picked knob was already pinned by
 *  explicit environment. Introspection for tests and startup logs. */
unsigned tuningKnobsApplied();

} // namespace ptolemy

#endif // PTOLEMY_UTIL_TUNING_HH
