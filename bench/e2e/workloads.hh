/**
 * @file
 * The two load shapes the benchmark drives: a closed-loop caller of
 * DetectorSession::detectBatch, and an open-loop Poisson stream into
 * serve::DetectorServer. Both check every Decision they receive
 * against the sequential DetectorSession::detect reference.
 */

#ifndef PTOLEMY_BENCH_E2E_WORKLOADS_HH
#define PTOLEMY_BENCH_E2E_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "world.hh"

namespace e2e
{

/** Closed loop: one caller issues detectBatch on 64-request chunks. */
void runDetect(const World &w, const std::vector<ptolemy::core::Decision> &ref,
               const Options &opt, RunResult &out);

/** Open loop: one generator thread sends Poisson arrivals at the
 *  workload's rate through a default-configured DetectorServer. */
void runServe(const World &w, const std::vector<ptolemy::core::Decision> &ref,
              const Options &opt, std::uint64_t seed, RunResult &out);

/**
 * Traced replay of DetectorSession::detectInto through the public entry
 * points of each layer (inferInto, extractInto with an ExtractionTrace,
 * computeSimilarityInto + toVectorInto, predictProb), fanned out with
 * globalPool().parallelForWithTid over per-slot scratch. Replays
 * @p chunk-request batches for @p seconds or @p max_requests requests,
 * whichever ends first, records their spans, checks every replayed
 * Decision against @p ref and adds the nn/path/classify/core per-layer
 * metrics and span self times to @p out. Writes the spans to
 * @p trace_file as a Chrome trace unless it is empty.
 * @return replayed detections per second.
 */
double replayStages(const World &w,
                    const std::vector<ptolemy::core::Decision> &ref,
                    std::size_t chunk, double seconds,
                    std::size_t max_requests, const std::string &trace_file,
                    RunResult &out);

} // namespace e2e

#endif // PTOLEMY_BENCH_E2E_WORKLOADS_HH
