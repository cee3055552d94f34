#include "telemetry/hub.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hh"

namespace ptolemy::telemetry
{

WindowStats::WindowStats(const TelemetryConfig &cfg)
    : pathBits(cfg.bound, cfg.seed),
      score(cfg.scoreBins),
      divergence(cfg.scoreBins),
      classCounts(std::max<std::size_t>(cfg.numClasses, 1), 0)
{
}

void
WindowStats::mergeFrom(const WindowStats &other)
{
    assert(classCounts.size() == other.classCounts.size() &&
           "WindowStats::mergeFrom: class arity mismatch");
    pathBits.mergeFrom(other.pathBits);
    score.mergeFrom(other.score);
    divergence.mergeFrom(other.divergence);
    for (std::size_t c = 0; c < classCounts.size(); ++c)
        classCounts[c] += other.classCounts[c];
    records += other.records;
    adversarial += other.adversarial;
}

void
WindowStats::reset()
{
    pathBits.reset();
    score.reset();
    divergence.reset();
    std::fill(classCounts.begin(), classCounts.end(), std::uint64_t{0});
    records = 0;
    adversarial = 0;
}

std::size_t
WindowStats::memoryBytes() const
{
    return pathBits.memoryBytes() +
           (score.bins() + divergence.bins() + classCounts.size()) *
               sizeof(std::uint64_t);
}

TelemetryHub::TelemetryHub(TelemetryConfig c) : cfg(std::move(c))
{
    if (cfg.numClasses == 0)
        throw std::invalid_argument(
            "TelemetryHub: numClasses must be configured");
    if (cfg.slots == 0)
        cfg.slots = globalPool().size();
    cfg.slots = std::max<std::size_t>(cfg.slots, 1);
    cfg.windowRing = std::max<std::size_t>(cfg.windowRing, 1);
    cfg.eventRing = std::max<std::size_t>(cfg.eventRing, 1);

    shards.reserve(cfg.slots);
    for (std::size_t s = 0; s < cfg.slots; ++s)
        shards.emplace_back(cfg);
    ring.reserve(cfg.windowRing);
    for (std::size_t w = 0; w < cfg.windowRing; ++w)
        ring.push_back(SealedWindow{0, WindowStats(cfg)});
    reference = WindowStats(cfg);
    events.resize(cfg.eventRing);
}

std::size_t
TelemetryHub::memoryBytes() const
{
    std::size_t bytes = reference.memoryBytes();
    for (const auto &s : shards)
        bytes += s.memoryBytes();
    for (const auto &w : ring)
        bytes += w.stats.memoryBytes();
    bytes += events.capacity() * sizeof(DriftEvent);
    return bytes;
}

void
TelemetryHub::ingest(unsigned slot, double score, std::size_t predicted_class,
                     bool adversarial, double divergence,
                     const BitVector *path)
{
    WindowStats &sh = shards[slot < shards.size() ? slot : 0];
    sh.score.add(score);
    sh.divergence.add(divergence);
    sh.classCounts[predicted_class < sh.classCounts.size() ? predicted_class
                                                           : 0] += 1;
    sh.records += 1;
    sh.adversarial += adversarial ? 1 : 0;
    if (path != nullptr)
        sh.pathBits.addPathBits(*path);
}

std::uint64_t
TelemetryHub::pendingRecords() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards)
        n += s.records;
    return n;
}

std::uint64_t
TelemetryHub::drainShardsInto(WindowStats &dst)
{
    dst.reset();
    // Fixed slot order 0..S−1. Integer merges are exactly associative
    // and commutative, so the order does not affect the result — it is
    // fixed anyway so the reduction itself is scheduling-independent.
    for (auto &s : shards) {
        dst.mergeFrom(s);
        s.reset();
    }
    return dst.records;
}

bool
TelemetryHub::maybeSeal()
{
    if (pendingRecords() < cfg.windowRecords)
        return false;
    return sealWindow();
}

bool
TelemetryHub::sealWindow()
{
    std::lock_guard<std::mutex> lk(sealMu);
    if (pendingRecords() == 0)
        return false; // empty window: explicit no-op
    SealedWindow &slot = ring[sealedCount % ring.size()];
    drainShardsInto(slot.stats);
    slot.id = ++sealedCount;
    evaluateDrift(slot);
    return true;
}

std::uint64_t
TelemetryHub::captureReference()
{
    std::lock_guard<std::mutex> lk(sealMu);
    const std::uint64_t n = drainShardsInto(reference);
    referenceSet = n > 0;
    return n;
}

bool
TelemetryHub::hasReference() const
{
    std::lock_guard<std::mutex> lk(sealMu);
    return referenceSet;
}

std::uint64_t
TelemetryHub::windowsSealed() const
{
    std::lock_guard<std::mutex> lk(sealMu);
    return sealedCount;
}

bool
TelemetryHub::windowSummary(std::uint64_t id, WindowSummary &out) const
{
    std::lock_guard<std::mutex> lk(sealMu);
    if (id == 0 || id > sealedCount)
        return false;
    const SealedWindow &win = ring[(id - 1) % ring.size()];
    if (win.id != id)
        return false; // evicted from the ring
    summarize(win, out);
    return true;
}

bool
TelemetryHub::latestWindow(WindowSummary &out) const
{
    std::lock_guard<std::mutex> lk(sealMu);
    if (sealedCount == 0)
        return false;
    summarize(ring[(sealedCount - 1) % ring.size()], out);
    return true;
}

std::uint64_t
TelemetryHub::driftEventCount() const
{
    std::lock_guard<std::mutex> lk(sealMu);
    return eventCount;
}

void
TelemetryHub::driftEvents(std::vector<DriftEvent> &out) const
{
    std::lock_guard<std::mutex> lk(sealMu);
    out.clear();
    const std::uint64_t kept =
        std::min<std::uint64_t>(eventCount, events.size());
    for (std::uint64_t i = eventCount - kept; i < eventCount; ++i)
        out.push_back(events[i % events.size()]);
}

bool
TelemetryHub::proposeThreshold(ThresholdProposal &out,
                               double current_threshold) const
{
    std::lock_guard<std::mutex> lk(sealMu);
    if (sealedCount == 0 || !referenceSet)
        return false;
    const SealedWindow &win = ring[(sealedCount - 1) % ring.size()];
    if (win.stats.score.total() == 0 || reference.score.total() == 0)
        return false;
    // The reference flagged fraction is what the operator calibrated
    // for; the proposal is the window quantile that would flag the same
    // fraction of current traffic. A drifted score distribution then
    // maps back to the calibrated operating point — pending an offline
    // refit and an RCU swapModel(), never an in-place mutation.
    const double refFrac =
        reference.score.fractionAtLeast(current_threshold);
    out.windowId = win.id;
    out.records = win.stats.records;
    out.currentThreshold = current_threshold;
    out.referenceFlaggedFrac = refFrac;
    out.windowFlaggedFrac =
        win.stats.score.fractionAtLeast(current_threshold);
    out.proposedThreshold = win.stats.score.quantile(1.0 - refFrac);
    return true;
}

namespace
{

inline void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xFF;
        h *= 1099511628211ull;
    }
}

} // namespace

std::uint64_t
TelemetryHub::windowHash(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(sealMu);
    if (id == 0 || id > sealedCount)
        return 0;
    const SealedWindow &win = ring[(id - 1) % ring.size()];
    if (win.id != id)
        return 0;
    std::uint64_t h = 1469598103934665603ull;
    fnv1a(h, win.id);
    fnv1a(h, win.stats.records);
    fnv1a(h, win.stats.adversarial);
    for (const auto c : win.stats.pathBits.rawCounters())
        fnv1a(h, c);
    fnv1a(h, win.stats.pathBits.itemsAdded());
    for (const auto c : win.stats.score.rawCounts())
        fnv1a(h, c);
    fnv1a(h, win.stats.score.poisoned());
    for (const auto c : win.stats.divergence.rawCounts())
        fnv1a(h, c);
    fnv1a(h, win.stats.divergence.poisoned());
    for (const auto c : win.stats.classCounts)
        fnv1a(h, c);
    return h;
}

std::uint64_t
TelemetryHub::pathBitEstimate(std::uint64_t bit) const
{
    std::lock_guard<std::mutex> lk(sealMu);
    if (sealedCount == 0)
        return 0;
    return ring[(sealedCount - 1) % ring.size()].stats.pathBits.estimate(bit);
}

void
TelemetryHub::evaluateDrift(const SealedWindow &win)
{
    // Caller holds sealMu.
    if (win.stats.score.poisoned() > 0) {
        pushEvent({win.id, DriftKind::kPoisonedScores,
                   static_cast<double>(win.stats.score.poisoned()), 0.0});
    }
    if (!referenceSet || win.stats.records < cfg.minRecords)
        return;
    const double scoreD = win.stats.score.l1Distance(reference.score);
    if (scoreD > cfg.scoreL1Threshold)
        pushEvent({win.id, DriftKind::kScoreDistribution, scoreD,
                   cfg.scoreL1Threshold});
    const double divD =
        win.stats.divergence.l1Distance(reference.divergence);
    if (divD > cfg.divergenceL1Threshold)
        pushEvent({win.id, DriftKind::kPathDivergence, divD,
                   cfg.divergenceL1Threshold});
}

void
TelemetryHub::pushEvent(const DriftEvent &ev)
{
    events[eventCount % events.size()] = ev;
    ++eventCount;
}

void
TelemetryHub::summarize(const SealedWindow &win, WindowSummary &out) const
{
    out.id = win.id;
    out.records = win.stats.records;
    out.adversarial = win.stats.adversarial;
    out.poisonedScores =
        win.stats.score.poisoned() + win.stats.divergence.poisoned();
    out.pathBitIncrements = win.stats.pathBits.itemsAdded();
    out.scoreP50 = win.stats.score.quantile(0.50);
    out.scoreP95 = win.stats.score.quantile(0.95);
    out.scoreP99 = win.stats.score.quantile(0.99);
    out.scoreL1VsReference =
        referenceSet ? win.stats.score.l1Distance(reference.score) : 0.0;
    out.divergenceL1VsReference =
        referenceSet
            ? win.stats.divergence.l1Distance(reference.divergence)
            : 0.0;
}

} // namespace ptolemy::telemetry
