/**
 * @file
 * Shared vocabulary of the end-to-end benchmark program: run options,
 * named metric samples, the per-run result and the correctness
 * comparison every workload applies to the Decisions it receives.
 */

#ifndef PTOLEMY_BENCH_E2E_COMMON_HH
#define PTOLEMY_BENCH_E2E_COMMON_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/detector_model.hh"

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Heap allocations made by the whole process so far (alloc_counter.cc). */
std::size_t allocCount();

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** How one invocation measures. */
struct Options
{
    double seconds = 10.0; ///< measured time of the run
    int reps = 5;          ///< repetitions the untraced run splits it into
    bool trace = false;    ///< traced run: per-layer metrics + trace file
    std::string traceFile; ///< Chrome trace JSON destination (traced run)
};

/** One named metric: its unit and one sample per repetition. */
struct Metric
{
    std::string name;
    std::string unit;
    std::vector<double> samples;
};

/** Everything one workload run reports. */
struct RunResult
{
    std::vector<Metric> metrics;
    std::size_t attempted = 0; ///< operations issued while measuring
    std::size_t failed = 0;    ///< errors and wrong Decisions among them
    std::vector<std::string> failures; ///< failed correctness checks

    /** Append @p v to metric @p name (created on first use). */
    void add(const std::string &name, const char *unit, double v);

    /** Record a failed correctness check. */
    void fail(std::string what) { failures.push_back(std::move(what)); }
};

/** True when @p a and @p b agree bit for bit on class, score and
 *  similarity features (the fields every detection path computes). */
bool sameDecision(const ptolemy::core::Decision &a,
                  const ptolemy::core::Decision &b);

/** ROC AUC of the Decisions' scores against labels (1 = adversarial). */
double aucOf(const std::vector<ptolemy::core::Decision> &ds,
             const std::vector<int> &labels);

} // namespace e2e

#endif // PTOLEMY_BENCH_E2E_COMMON_HH
