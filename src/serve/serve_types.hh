/**
 * @file
 * Serving-tier vocabulary types: per-request lifecycle, typed
 * resolution statuses, tier configuration and conservation-checked
 * statistics.
 *
 * The robustness contract the whole tier is built around: every
 * submitted request resolves to EXACTLY ONE terminal status — kOk,
 * kShed, kDeadlineExceeded or kError — under overload, poisoned
 * requests, stalled batches and mid-traffic model swaps alike. Nothing
 * crashes, nothing deadlocks, nothing is lost: counted in equals
 * counted out (ServeStatsSnapshot::conserved()).
 */

#ifndef PTOLEMY_SERVE_SERVE_TYPES_HH
#define PTOLEMY_SERVE_SERVE_TYPES_HH

#include <atomic>
#include <chrono>
#include <cstdint>

#include "core/detector_model.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace ptolemy::telemetry
{
class TelemetryHub;
}

namespace ptolemy::serve
{

/** The serving tier's clock (deadlines, latency accounting). */
using Clock = std::chrono::steady_clock;

/**
 * Request lifecycle. kPending/kQueued are transient; the four terminal
 * states are the typed per-request outcomes of the robustness
 * contract.
 */
enum class RequestStatus : std::uint8_t
{
    kPending = 0,         ///< constructed / reset, not yet submitted
    kQueued,              ///< admitted, waiting for or inside a batch
    kOk,                  ///< served; ServeRequest::decision is valid
    kShed,                ///< rejected by admission control (queue full)
    kDeadlineExceeded,    ///< expired at dequeue / batch formation
    kError,               ///< execution threw; see ServeRequest::error
};

/** True for the four terminal states. */
inline bool
isResolved(RequestStatus s)
{
    return s >= RequestStatus::kOk;
}

inline const char *
requestStatusName(RequestStatus s)
{
    switch (s) {
    case RequestStatus::kPending: return "pending";
    case RequestStatus::kQueued: return "queued";
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kShed: return "shed";
    case RequestStatus::kDeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::kError: return "error";
    }
    return "?";
}

/**
 * One in-flight detection request. The caller owns the object and the
 * input tensor; both must stay alive and untouched from submit() until
 * the request resolves (wait() on it). A resolved request is reusable:
 * reset() re-arms it for the next submit, and its Decision keeps its
 * warmed buffers, so a steady-state client performs no heap allocation
 * per request.
 *
 * Not copyable or movable (the server holds its address while queued).
 * Preallocate slabs as std::vector<ServeRequest> slab(n) — constructed
 * at full size, never resized.
 */
struct ServeRequest
{
    const nn::Tensor *x = nullptr;          ///< borrowed input
    Clock::time_point deadline = Clock::time_point::max();
    core::Decision decision;                ///< valid when status kOk
    Clock::time_point submittedAt{};        ///< stamped by submit()
    Clock::time_point dispatchedAt{};       ///< stamped at batch triage
                                            ///< (default if shed)
    Clock::time_point completedAt{};        ///< stamped at resolution
    std::uint64_t seq = 0;                  ///< submit ordinal (server)
    const char *error = "";                 ///< static reason for kError
    std::atomic<RequestStatus> status{RequestStatus::kPending};

    ServeRequest() = default;
    ServeRequest(const ServeRequest &) = delete;
    ServeRequest &operator=(const ServeRequest &) = delete;

    /** Re-arm for submission. Never call on a queued request. */
    void
    reset(const nn::Tensor &input,
          Clock::time_point dl = Clock::time_point::max())
    {
        x = &input;
        deadline = dl;
        dispatchedAt = {};
        seq = 0;
        error = "";
        status.store(RequestStatus::kPending, std::memory_order_relaxed);
    }

    /** Served-to-resolved latency (meaningful once resolved). */
    double
    latencyMicros() const
    {
        return std::chrono::duration<double, std::micro>(completedAt -
                                                         submittedAt)
            .count();
    }
};

/** Serving-tier knobs. */
struct ServeConfig
{
    /** Admission limit: submit() beyond this queue depth sheds
     *  immediately (producers are never blocked). */
    std::size_t queueDepth = 256;

    /** Batch cap. Batching is work-conserving: the dispatcher runs
     *  whatever queued while the previous batch computed, up to this
     *  many requests, and never waits for a batch to fill — an idle
     *  tier serves a lone request at once. */
    std::size_t maxBatch = 16;

    /** Default per-request deadline applied at submit() to requests
     *  that carry none (0 = requests without a deadline never
     *  expire). */
    std::uint32_t defaultDeadlineMicros = 0;

    /** Pool detectBatch fans out on; nullptr = the process-wide
     *  pool. */
    ThreadPool *pool = nullptr;

    /**
     * Optional telemetry hub (borrowed; must outlive the server).
     * When set, the dispatcher attaches it to its serving session —
     * every kOk Decision is ingested into the hub's per-slot shards —
     * and calls maybeSeal() between batches, so windows seal on the
     * dispatcher thread, never on a worker mid-batch. Telemetry
     * survives hot model swaps: the replacement session re-attaches
     * the same hub, and window/reference state carries across the
     * swap untouched.
     */
    telemetry::TelemetryHub *telemetry = nullptr;
};

/** Monotonic tier counters (readable while serving). */
struct ServeStatsSnapshot
{
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;
    std::uint64_t swaps = 0;
    std::uint64_t failedSwaps = 0;

    /** Terminal resolutions. */
    std::uint64_t
    resolved() const
    {
        return ok + shed + deadlineExceeded + errors;
    }

    /** Counted in == counted out. Only meaningful once the tier is
     *  quiescent (drained or stopped). */
    bool
    conserved() const
    {
        return resolved() == submitted;
    }
};

/** Atomic counter block behind ServeStatsSnapshot. */
struct ServeStats
{
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadlineExceeded{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> swaps{0};
    std::atomic<std::uint64_t> failedSwaps{0};

    ServeStatsSnapshot
    snapshot() const
    {
        ServeStatsSnapshot s;
        s.submitted = submitted.load(std::memory_order_relaxed);
        s.ok = ok.load(std::memory_order_relaxed);
        s.shed = shed.load(std::memory_order_relaxed);
        s.deadlineExceeded =
            deadlineExceeded.load(std::memory_order_relaxed);
        s.errors = errors.load(std::memory_order_relaxed);
        s.batches = batches.load(std::memory_order_relaxed);
        s.swaps = swaps.load(std::memory_order_relaxed);
        s.failedSwaps = failedSwaps.load(std::memory_order_relaxed);
        return s;
    }
};

} // namespace ptolemy::serve

#endif // PTOLEMY_SERVE_SERVE_TYPES_HH
