/**
 * @file
 * DetectorServer: the robust in-process serving tier over the
 * Engine/Session split.
 *
 * Architecture: client threads submit() preallocated ServeRequest
 * objects into a bounded RequestQueue (admission control sheds instead
 * of blocking). One dispatcher thread batches work-conservingly — each
 * batch is whatever queued while the previous one ran, up to maxBatch,
 * and a lone request on an idle tier runs at once — and executes each
 * batch as a single fused DetectorSession::detectBatch over the
 * configured thread pool, then resolves every request in the batch to
 * exactly one typed terminal status:
 *
 *  - kOk               served; Decision bit-identical to a direct
 *                      detectBatch over the same model.
 *  - kShed             refused at admission (queue at queueDepth).
 *  - kDeadlineExceeded expired before execution (checked when the
 *                      batch is formed).
 *  - kError            execution threw (poisoned request, or a fault
 *                      from inside the fused inference batch, which
 *                      the thread pool rethrows on the dispatcher —
 *                      see ThreadPool's exception contract). The
 *                      server itself survives and keeps serving.
 *
 * Hot model swap (RCU-style): swapModel() loads a fresh DetectorModel
 * from a signature-keyed save() artifact off to the side and publishes
 * it atomically; the batch in flight finishes on the old model, the
 * next batch pins the new one. A failed load (ModelLoadError, including
 * injected swap-during-load faults) leaves the old model serving.
 *
 * Fault injection: pass a core::ServeFaultPlan to construct the server
 * under a deterministic failure campaign (stalled batches, poisoned
 * requests, swap-during-load). The conservation contract —
 * stats().conserved() once quiescent, no crash, no deadlock, no lost
 * request — holds under any plan.
 */

#ifndef PTOLEMY_SERVE_SERVER_HH
#define PTOLEMY_SERVE_SERVER_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detector_session.hh"
#include "core/fault_injection.hh"
#include "serve/request_queue.hh"
#include "serve/serve_types.hh"

namespace ptolemy::serve
{

/**
 * In-process detection server: bounded queue, work-conserving batching
 * dispatcher, hot swap. Thread-safe entry points: submit(), wait(),
 * swapModel(), stats(), queueDepth() may be called from any thread.
 */
class DetectorServer
{
  public:
    /**
     * Starts the dispatcher thread immediately.
     * @param model initial fitted model (borrowed; must outlive the
     *        server or every model swapped in after it).
     * @param cfg tier knobs.
     * @param faults optional fault plan (borrowed; campaign counters
     *        are read back by the caller). nullptr = inject nothing.
     */
    explicit DetectorServer(const core::DetectorModel &model,
                            ServeConfig cfg = {},
                            core::ServeFaultPlan *faults = nullptr);

    /** Stops and joins the dispatcher (drains admitted requests). */
    ~DetectorServer();

    DetectorServer(const DetectorServer &) = delete;
    DetectorServer &operator=(const DetectorServer &) = delete;

    /**
     * Submit @p r (previously reset() with its input and deadline).
     * Never blocks. @return kQueued when admitted — the request now
     * belongs to the server until it resolves (wait() for it) — or
     * kShed when admission control refused it (the request is already
     * resolved; retry via RetryClient or give up). Submitting to a
     * stopped server sheds.
     */
    RequestStatus submit(ServeRequest &r);

    /** Block until @p r resolves; @return its terminal status. */
    RequestStatus wait(ServeRequest &r);

    /**
     * Hot model swap: build + load a fresh DetectorModel from a
     * save() artifact at @p path (validated against the serving
     * network's architecture signature) and publish it. In-flight
     * batches finish on the old model; batches formed after the swap
     * pin the new one. @return true on success; false when the load
     * failed (old model keeps serving, stats().failedSwaps bumped).
     */
    bool swapModel(const std::string &path);

    /**
     * Close admission and drain: already-admitted requests still
     * execute (deadlines permitting), then the dispatcher exits.
     * Idempotent; the destructor calls it.
     */
    void stop();

    ServeStatsSnapshot stats() const { return counters.snapshot(); }

    /** Instantaneous queue depth (for load probes). */
    std::size_t queueDepth() const { return queue.size(); }

    /** Pin the currently-published model (tests: decision bit-identity
     *  against a direct session over the same model). */
    std::shared_ptr<const core::DetectorModel> pinModel() const;

  private:
    void dispatchLoop();

    /** Execute one collected batch: fault hooks, deadline triage
     *  (stamps dispatchedAt), poison triage, one fused detectBatch,
     *  per-request resolution. */
    void executeBatch(std::vector<ServeRequest *> &batch);

    /** Resolve @p r to terminal status @p s (bumps the matching
     *  counter, stamps completedAt, wakes waiters). */
    void resolve(ServeRequest &r, RequestStatus s);

    ServeConfig cfg;
    core::ServeFaultPlan *faults; ///< borrowed, may be nullptr
    ServeStats counters;
    RequestQueue queue;

    std::atomic<std::uint64_t> seqCounter{0}; ///< submit ordinals

    // Published model (RCU): readers pin a shared_ptr under modelMu;
    // swapModel publishes a replacement. The initial model is borrowed
    // (aliasing shared_ptr with no control block ownership).
    mutable std::mutex modelMu;
    std::shared_ptr<const core::DetectorModel> curModel;

    // Completion signalling: resolvers store the request's atomic
    // status, then take-and-drop doneMu before notifying, so a waiter
    // between its predicate check and its sleep cannot miss the wake.
    std::mutex doneMu;
    std::condition_variable doneCv;

    // Dispatcher-owned serving state (no locks: single consumer).
    std::shared_ptr<const core::DetectorModel> pinned;
    std::unique_ptr<core::DetectorSession> session;
    std::uint64_t batchSeq = 0;
    std::vector<ServeRequest *> batch;    ///< collected batch
    std::vector<ServeRequest *> live;     ///< survivors of triage
    std::vector<const nn::Tensor *> xs;   ///< inputs of `live`
    std::vector<core::Decision> outs;     ///< persistent warmed results

    std::thread dispatcher; ///< started last, joined by stop()
};

} // namespace ptolemy::serve

#endif // PTOLEMY_SERVE_SERVER_HH
