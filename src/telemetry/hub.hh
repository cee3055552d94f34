/**
 * @file
 * TelemetryHub: windowed, sharded, bounded-memory production telemetry
 * for the serving tier.
 *
 * A million-user deployment has to watch its own score and path-bit
 * distributions without keeping per-request state. The hub holds one
 * WindowStats shard per pool slot; the serving hot path
 * (DetectorSession::detect/detectBatch) ingests each Decision into the
 * shard of the executing slot — integer counter updates only, no locks, no
 * allocation. Sealing a window merges the shards in fixed slot order
 * into a preallocated ring of sealed windows, evaluates drift against
 * the reference profile, and resets the shards; steady state performs
 * ZERO heap allocations after construction (asserted by serve_load and
 * the gtest suite, like every other hot loop in the tree).
 *
 * Determinism: every windowed statistic is an integer count (sketch
 * counters, histogram bins, class tallies), so the merged aggregate is
 * bit-identical regardless of which slot ingested which record — i.e.
 * across any PTOLEMY_NUM_THREADS and any scheduling. The CI
 * telemetry-determinism leg hashes sealed windows at 1 vs 2 threads.
 *
 * Thread-safety contract (mirrors DetectorSession): ingest() may be
 * called concurrently for DISTINCT slot ids (the pool guarantees
 * concurrently-executing loop bodies carry distinct ids); sealing,
 * reference capture and proposals belong to the thread that drives the
 * session between batches (the server's dispatcher). Sealed windows
 * and drift events are published under an internal mutex so monitoring
 * threads may read them while serving continues.
 *
 * Drift semantics: each sealed window with at least minRecords records
 * is compared against the reference profile captured at fit/warm-up
 * time — L1 distance between normalized score histograms, L1 distance
 * between path-divergence histograms (per-record fraction of path bits
 * falling OUTSIDE the predicted class's canary path, i.e. divergence
 * from the ClassPathStore profile), and the typed poison counter. Each
 * statistic above its threshold emits one typed DriftEvent into a
 * fixed ring.
 *
 * Recalibration is PROPOSE-ONLY: proposeThreshold() computes, from the
 * latest sealed window's score quantiles, the decision threshold that
 * would restore the reference flagged fraction. The serving model stays
 * immutable — applying a proposal means refitting offline and riding
 * the existing RCU swapModel() path, exactly like any other model
 * update.
 */

#ifndef PTOLEMY_TELEMETRY_HUB_HH
#define PTOLEMY_TELEMETRY_HUB_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "telemetry/sketch.hh"
#include "util/bitvector.hh"

namespace ptolemy::telemetry
{

/** Drift event classes (one per windowed drift statistic). */
enum class DriftKind : std::uint8_t
{
    kScoreDistribution = 0, ///< score-histogram L1 above threshold
    kPathDivergence,        ///< path-divergence histogram L1 above threshold
    kPoisonedScores,        ///< non-finite scores observed in the window
};

inline const char *
driftKindName(DriftKind k)
{
    switch (k) {
    case DriftKind::kScoreDistribution: return "score_distribution";
    case DriftKind::kPathDivergence: return "path_divergence";
    case DriftKind::kPoisonedScores: return "poisoned_scores";
    }
    return "?";
}

/** One typed drift detection, anchored to the sealed window that
 *  raised it. POD — the event ring is preallocated. */
struct DriftEvent
{
    std::uint64_t windowId = 0;
    DriftKind kind = DriftKind::kScoreDistribution;
    double statistic = 0.0; ///< the measured distance / count
    double threshold = 0.0; ///< the configured trip level
};

/** Hub configuration. Widths derive from the (ε, δ) bound; everything
 *  else is fixed-capacity so construction is the only allocation. */
struct TelemetryConfig
{
    ErrorBound bound;              ///< sizes the path-bit Count-Min sketch
    std::size_t scoreBins = 64;    ///< score/divergence histogram bins
    std::size_t numClasses = 0;    ///< prediction tally arity (required)
    std::size_t windowRecords = 1024; ///< maybeSeal() threshold
    std::size_t windowRing = 8;    ///< sealed windows kept (oldest evicted)
    std::size_t eventRing = 32;    ///< drift events kept (oldest evicted)
    std::size_t slots = 0;         ///< ingest shards; 0 = globalPool().size()
    std::uint64_t seed = 0x7E1E3E7; ///< sketch hash seed

    // Drift thresholds (see file comment for semantics).
    double scoreL1Threshold = 0.25;
    double divergenceL1Threshold = 0.25;
    std::uint64_t minRecords = 64; ///< windows below this skip drift eval
};

/**
 * One window's merged statistics: integer counters only (see the
 * determinism contract in the file comment).
 */
struct WindowStats
{
    CountMinSketch pathBits;   ///< set-bit index frequencies
    ScoreHistogram score;      ///< detector score distribution
    ScoreHistogram divergence; ///< 1 − overall path similarity per record
    std::vector<std::uint64_t> classCounts; ///< predictions per class
    std::uint64_t records = 0;
    std::uint64_t adversarial = 0; ///< records flagged by the detector

    WindowStats() = default;
    WindowStats(const TelemetryConfig &cfg);

    void mergeFrom(const WindowStats &other);
    void reset();
    std::size_t memoryBytes() const;
};

/** A sealed window: immutable once published. */
struct SealedWindow
{
    std::uint64_t id = 0; ///< 1-based seal ordinal
    WindowStats stats;
};

/** Fixed-size copy-out summary of one sealed window (monitoring
 *  surface; no containers, so snapshotting allocates nothing). */
struct WindowSummary
{
    std::uint64_t id = 0;
    std::uint64_t records = 0;
    std::uint64_t adversarial = 0;
    std::uint64_t poisonedScores = 0;
    std::uint64_t pathBitIncrements = 0; ///< sketch N for the ε·N bound
    double scoreP50 = 0.0, scoreP95 = 0.0, scoreP99 = 0.0;
    double scoreL1VsReference = 0.0;      ///< 0 when no reference
    double divergenceL1VsReference = 0.0; ///< 0 when no reference
};

/** Propose-only threshold recalibration (see file comment). */
struct ThresholdProposal
{
    std::uint64_t windowId = 0;     ///< window the proposal derives from
    std::uint64_t records = 0;
    double currentThreshold = 0.0;
    double proposedThreshold = 0.0; ///< window quantile restoring refFrac
    double referenceFlaggedFrac = 0.0;
    double windowFlaggedFrac = 0.0; ///< at currentThreshold, this window
};

/**
 * Sharded windowed telemetry aggregator (see file comment for the
 * contracts). Construction allocates everything; nothing after.
 */
class TelemetryHub
{
  public:
    /** std::invalid_argument when @p cfg leaves numClasses at 0. */
    explicit TelemetryHub(TelemetryConfig cfg);

    const TelemetryConfig &config() const { return cfg; }
    std::size_t numSlots() const { return shards.size(); }

    /** Total footprint of shards + ring + reference, bytes. */
    std::size_t memoryBytes() const;

    /** One record ingested into the executing slot's shard. Callable
     *  concurrently for distinct @p slot ids; out-of-range ids clamp to
     *  slot 0 (nested inline pool sections are single-threaded by
     *  construction — the same clamp DetectorSession uses).
     *  @param score forest score (NaN/Inf routes to the poison counter).
     *  @param predicted_class predicted class (tallied; clamped).
     *  @param adversarial detector verdict for the record.
     *  @param divergence 1 − overall path similarity vs the predicted
     *         class's canary path (non-finite routes to poison).
     *  @param path activation-path bits (set-bit indices feed the
     *         Count-Min sketch); nullptr skips path ingestion. */
    void ingest(unsigned slot, double score, std::size_t predicted_class,
                bool adversarial, double divergence,
                const BitVector *path);

    /** Records ingested since the last seal (sum over shards; exact
     *  only while no ingest is concurrently running). */
    std::uint64_t pendingRecords() const;

    /** Seal when pendingRecords() ≥ windowRecords (the server calls
     *  this between batches). @return true when a window sealed. */
    bool maybeSeal();

    /**
     * Seal the pending records unconditionally: merge shards in fixed
     * slot order into the next ring slot, evaluate drift against the
     * reference, reset the shards. An EMPTY pending set is an explicit
     * no-op: no window is published, no event raised, no id consumed.
     * @return true when a (non-empty) window sealed.
     */
    bool sealWindow();

    /**
     * Capture the reference profile from the pending records: merge
     * the shards into the reference stats (replacing any previous
     * reference) and reset the shards. Call after warming the serving
     * path with known-benign traffic at fit/deploy time. An empty
     * pending set clears the reference. @return records captured.
     */
    std::uint64_t captureReference();

    bool hasReference() const;

    /** Windows sealed so far (ids are 1..windowsSealed()). */
    std::uint64_t windowsSealed() const;

    /** Copy-out summary of sealed window @p id; false when the id is
     *  unknown or already evicted from the ring. */
    bool windowSummary(std::uint64_t id, WindowSummary &out) const;

    /** Summary of the latest sealed window; false when none sealed. */
    bool latestWindow(WindowSummary &out) const;

    /** Drift events raised so far (monotonic; ring keeps the latest
     *  eventRing of them). */
    std::uint64_t driftEventCount() const;

    /** Copy the retained drift events (oldest first) into @p out —
     *  caller-owned, reused buffer; amortized allocation-free. */
    void driftEvents(std::vector<DriftEvent> &out) const;

    /**
     * Threshold recalibration proposal from the latest sealed window
     * (propose-only; see file comment). @p current_threshold is the
     * serving decision threshold the proposal is relative to. Returns
     * false when no window is sealed, no reference is captured, or the
     * window holds no finite scores.
     */
    bool proposeThreshold(ThresholdProposal &out,
                          double current_threshold = 0.5) const;

    /**
     * Canonical FNV-1a hash over sealed window @p id's raw aggregates
     * (sketch counters, histogram bins, class tallies, record counts)
     * — the bit-identity probe the determinism tests and the CI
     * telemetry-determinism leg compare across thread counts. 0 when
     * the id is unknown or evicted.
     */
    std::uint64_t windowHash(std::uint64_t id) const;

    /** Point query on the latest sealed window's path-bit sketch
     *  (estimate ≤ true + ε·N at confidence 1 − δ). */
    std::uint64_t pathBitEstimate(std::uint64_t bit) const;

  private:
    /** Merge shards (fixed slot order) into @p dst, reset shards.
     *  Caller holds sealMu. @return records merged. */
    std::uint64_t drainShardsInto(WindowStats &dst);

    void evaluateDrift(const SealedWindow &win);

    void pushEvent(const DriftEvent &ev);

    void summarize(const SealedWindow &win, WindowSummary &out) const;

    TelemetryConfig cfg;
    std::vector<WindowStats> shards; ///< one per pool slot, lock-free

    mutable std::mutex sealMu; ///< guards ring/events/reference
    std::vector<SealedWindow> ring;  ///< windowRing preallocated slots
    std::uint64_t sealedCount = 0;   ///< windows sealed (ids 1-based)
    WindowStats reference;           ///< fit-time profile
    bool referenceSet = false;
    std::vector<DriftEvent> events;  ///< eventRing preallocated slots
    std::uint64_t eventCount = 0;    ///< events raised (monotonic)
};

} // namespace ptolemy::telemetry

#endif // PTOLEMY_TELEMETRY_HUB_HH
