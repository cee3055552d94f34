/**
 * @file
 * Per-client serving session over a shared, immutable DetectorModel.
 *
 * A DetectorSession owns every piece of mutable hot-path scratch the
 * online pipeline (paper Fig. 4 bottom: inference -> path extraction ->
 * canary comparison -> classification) needs: records, extraction
 * workspaces, path bits and feature buffers. Constructing one is cheap
 * (a handful of empty buffers); the first few detections warm the
 * buffers, after which the steady state performs no heap allocation.
 *
 * Thread-safety contract: one session serves one client/request stream
 * — never drive a single session from two threads at once. Any number
 * of sessions may share one DetectorModel concurrently with no locks
 * (the model is read-only; see DetectorModel). detectBatch() fans one
 * batch out on a thread pool *inside* the one calling thread's
 * session, over per-pool-slot scratch.
 *
 * Bit-identity guarantee: Decisions from detectBatch are bit-identical
 * to calling detect() on each input in order — at any batch size and
 * any PTOLEMY_NUM_THREADS — and any two sessions over the same model
 * produce identical Decisions for identical inputs.
 */

#ifndef PTOLEMY_CORE_DETECTOR_SESSION_HH
#define PTOLEMY_CORE_DETECTOR_SESSION_HH

#include <span>
#include <vector>

#include "core/detector_model.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace ptolemy::telemetry
{
class TelemetryHub;
}

namespace ptolemy::core
{

/**
 * Lightweight per-client detection session (all scratch, no state).
 */
class DetectorSession
{
  public:
    /** @param model fitted model (borrowed; must outlive the session
     *         and must not be mutated while the session serves). */
    explicit DetectorSession(const DetectorModel &model);

    const DetectorModel &model() const { return *mdl; }

    /** Full online pipeline for one input: inference + extraction +
     *  canary comparison + classification. */
    Decision detect(const nn::Tensor &x);

    /**
     * Fused batched serving entry point: for every xs[i], run
     * inference, path extraction, similarity features and forest
     * scoring in ONE pass over this sample — forward activations are
     * still cache-hot when the extractor walks them — with samples
     * fanned out on @p pool over per-pool-slot scratch. out[i] is the
     * Decision for xs[i], bit-identical to sequential detect(), at any
     * thread count (slots are pure scratch; results are keyed by
     * sample index, never by executing slot). A warmed-up session
     * performs no heap allocation per batch.
     *
     * Contract: @p out must pair up with @p xs one-to-one —
     * out.size() == xs.size(). A mismatch is a caller bug: it
     * debug-asserts, and throws std::invalid_argument in release
     * builds (never writes out of bounds). An empty @p xs is an
     * explicit no-op: the session returns immediately without touching
     * the pool or growing any scratch.
     *
     * @param xs borrowed batch inputs.
     * @param out one Decision per input; out.size() must equal
     *        xs.size(). Reused Decision buffers (a persistent vector)
     *        keep repeated batches allocation-free.
     * @param pool pool to fan out on; nullptr = the process-wide pool.
     */
    void detectBatch(std::span<const nn::Tensor *const> xs,
                     std::span<Decision> out, ThreadPool *pool = nullptr);

    /** Convenience overload over owned tensors. */
    void detectBatch(const std::vector<nn::Tensor> &xs,
                     std::vector<Decision> &out,
                     ThreadPool *pool = nullptr);

    /**
     * Attach (or detach with nullptr) a telemetry hub: every Decision
     * this session produces — detect() and detectBatch() — is
     * ingested into the hub's shard for the executing pool slot.
     * Ingestion is a handful of integer counter bumps per record and
     * never changes a Decision; scores stay bit-identical with
     * telemetry attached or not. The hub is borrowed and must outlive
     * the session (or be detached first). The hub should be built with
     * at least as many slots as the widest pool this session fans out
     * on; extra slots are harmless (they merge in as empty shards).
     */
    void attachTelemetry(telemetry::TelemetryHub *h) { hub = h; }
    telemetry::TelemetryHub *telemetryHub() const { return hub; }

    /** Similarity features of a recorded inference against the canary
     *  path of its predicted class. @p trace optionally receives the
     *  extraction op counts. */
    std::vector<double> featuresFor(const nn::Network::Record &rec,
                                    path::ExtractionTrace *trace = nullptr);

    /** Adversarial-probability score for a recorded pass. */
    double score(const nn::Network::Record &rec);

  private:
    /** Per-pool-slot scratch for the fused batch pipeline. Slot 0 also
     *  serves single-stream detect(), so both paths share warm
     *  buffers. */
    struct Slot
    {
        nn::Network::Record rec;
        path::ExtractionWorkspace ws;
        BitVector path;
        std::vector<double> feat;
    };

    /** Slot for the executing thread; out-of-range ids (a nested
     *  parallel section running inline under a foreign worker's id)
     *  clamp to slot 0, which is safe because inline sections are
     *  single-threaded by construction. */
    Slot &slot(unsigned tid)
    {
        return slots[tid < slots.size() ? tid : 0];
    }

    /** The shared per-sample pipeline behind detect and detectBatch. */
    void detectInto(const nn::Tensor &x, Decision &d, Slot &s);

    const DetectorModel *mdl;
    telemetry::TelemetryHub *hub = nullptr; ///< borrowed; may be null
    std::vector<Slot> slots;              ///< grown to pool width, kept warm
};

} // namespace ptolemy::core

#endif // PTOLEMY_CORE_DETECTOR_SESSION_HH
