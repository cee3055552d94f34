/**
 * @file
 * Telemetry subsystem tests: Count-Min point-query error within the
 * configured (ε, δ) bound on skewed streams, shard-merge bit-identity
 * across slot counts, windowed hub seal determinism, empty-window
 * no-op, NaN/Inf poison routing, drift-event semantics (fire on shift,
 * stay silent unshifted), threshold-recalibration proposal math, the
 * zero-allocation steady state, and end-to-end session integration
 * (attached telemetry never changes a Decision; sealed aggregates are
 * bit-identical at any thread count, including concurrent ingest
 * through a serving hot model swap — the TSan target).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/alloc_probe.hh"
#include "common/test_models.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "serve/server.hh"
#include "telemetry/hub.hh"
#include "telemetry/sketch.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::telemetry
{
namespace
{

TEST(Telemetry, SketchGeometryDerivesFromErrorBound)
{
    const ErrorBound bound{1.0 / 256.0, 0.01};
    const CountMinSketch cm(bound);
    // w = ⌈e/ε⌉ rounded up to a power of two, d = ⌈ln(1/δ)⌉.
    EXPECT_GE(cm.width(), static_cast<std::size_t>(
                              std::ceil(2.718281828 / bound.epsilon)));
    EXPECT_EQ(cm.width() & (cm.width() - 1), 0u) << "width must be pow2";
    EXPECT_EQ(cm.depth(), static_cast<std::size_t>(
                              std::ceil(std::log(1.0 / bound.delta))));
    EXPECT_EQ(cm.memoryBytes(),
              cm.width() * cm.depth() * sizeof(std::uint32_t));
    // Tighter ε → wider rows → more memory, monotonically.
    const CountMinSketch tight(ErrorBound{1.0 / 4096.0, 0.01});
    EXPECT_GT(tight.memoryBytes(), cm.memoryBytes());
}

TEST(Telemetry, SketchPointQueryWithinEpsilonNOnSkewedStream)
{
    // Attack-shaped stream: a few heavy hitters over a broad tail, the
    // worst case for per-key overcount concentration.
    const ErrorBound bound{1.0 / 256.0, 0.01};
    CountMinSketch cm(bound);
    std::vector<std::uint64_t> truth(4096, 0);
    for (std::uint64_t k = 0; k < 32; ++k) {
        for (int i = 0; i < 500; ++i)
            cm.add(k);
        truth[k] += 500;
    }
    Rng rng(0xC0FFEE);
    for (int i = 0; i < 20000; ++i) {
        const auto k = static_cast<std::uint64_t>(
            rng.uniform(0.0, 1.0) * 4096.0);
        cm.add(k % 4096);
        ++truth[k % 4096];
    }
    const double epsN =
        bound.epsilon * static_cast<double>(cm.itemsAdded());
    std::size_t violations = 0;
    for (std::uint64_t k = 0; k < truth.size(); ++k) {
        const std::uint64_t est = cm.estimate(k);
        ASSERT_GE(est, truth[k]) << "Count-Min must never undercount";
        if (static_cast<double>(est - truth[k]) > epsN)
            ++violations;
    }
    // The bound promises ≤ δ violation probability per key; the stream
    // and hashes are fixed, so this is a deterministic check.
    EXPECT_LE(static_cast<double>(violations),
              bound.delta * static_cast<double>(truth.size()));
}

TEST(Telemetry, SketchMergeBitIdenticalAcrossShardCounts)
{
    const ErrorBound bound{1.0 / 128.0, 0.05};
    // One fixed update stream, dealt round-robin across S shards, then
    // reduced in fixed slot order. Every S must produce byte-identical
    // counters — the property the hub's thread-count determinism rests
    // on.
    std::vector<std::uint64_t> stream;
    Rng rng(0x5EED);
    for (int i = 0; i < 30000; ++i)
        stream.push_back(static_cast<std::uint64_t>(
            rng.uniform(0.0, 1.0) * 100000.0));

    std::vector<std::uint32_t> baseline;
    for (const std::size_t S : {1u, 2u, 8u}) {
        std::vector<CountMinSketch> shards;
        for (std::size_t s = 0; s < S; ++s)
            shards.emplace_back(bound);
        for (std::size_t i = 0; i < stream.size(); ++i)
            shards[i % S].add(stream[i]);
        CountMinSketch merged(bound);
        for (std::size_t s = 0; s < S; ++s)
            merged.mergeFrom(shards[s]);
        if (baseline.empty()) {
            baseline = merged.rawCounters();
        } else {
            EXPECT_EQ(merged.rawCounters(), baseline)
                << "shard count " << S << " changed the aggregate";
        }
        EXPECT_EQ(merged.itemsAdded(), stream.size());
    }
}

TEST(Telemetry, HistogramPoisonRoutingAndQuantiles)
{
    ScoreHistogram h(64);
    EXPECT_EQ(h.quantile(0.5), 0.0) << "empty histogram quantile is 0";
    for (int i = 0; i < 100; ++i)
        h.add(0.25);
    const double q50 = h.quantile(0.5);
    const double l1Self = h.l1Distance(h);
    // Poison must land in the typed counter and nowhere else: same
    // totals, same quantiles, same distances afterwards.
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.add(std::numeric_limits<double>::infinity());
    h.add(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.poisoned(), 3u);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.quantile(0.5), q50);
    EXPECT_EQ(h.l1Distance(h), l1Self);
    // Clamping: out-of-range finite values are real observations in
    // the edge bins, not poison.
    h.add(-0.5);
    h.add(1.5);
    EXPECT_EQ(h.total(), 102u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(63), 1u);
    EXPECT_EQ(h.quantile(1.0), 1.0);
    // Disjoint distributions are maximally distant; identical ones at
    // different sample sizes are not distant at all.
    ScoreHistogram lo(8), hi(8), lo2(8);
    for (int i = 0; i < 50; ++i)
        lo.add(0.1);
    for (int i = 0; i < 70; ++i)
        hi.add(0.9);
    for (int i = 0; i < 500; ++i)
        lo2.add(0.1);
    EXPECT_DOUBLE_EQ(lo.l1Distance(hi), 2.0);
    EXPECT_DOUBLE_EQ(lo.l1Distance(lo2), 0.0);
    EXPECT_DOUBLE_EQ(lo.l1Distance(ScoreHistogram(8)), 2.0);
}

TelemetryConfig
smallConfig(std::size_t slots)
{
    TelemetryConfig cfg;
    cfg.numClasses = 10;
    cfg.slots = slots;
    cfg.windowRecords = 256;
    cfg.minRecords = 32;
    // Wide trip levels: the synthetic shifted window is fully disjoint
    // from the reference (L1 = 2.0), while honest sampling noise
    // between fresh draws of the same distribution stays well below.
    cfg.scoreL1Threshold = 0.5;
    cfg.divergenceL1Threshold = 0.5;
    return cfg;
}

/** Deterministic synthetic record stream: scores around @p center,
 *  paths with a few bits keyed off the index. */
void
ingestStream(TelemetryHub &hub, std::size_t n, double center,
             std::size_t slot_count, std::uint64_t seed)
{
    Rng rng(seed);
    // Static scratch: the allocation-free steady-state test wraps this
    // helper, so the path buffer must not be re-allocated per call.
    static BitVector path(512);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t b = 0; b < 512; ++b)
            path.clear(b);
        path.set((i * 7) % 512);
        path.set((i * 13 + 1) % 512);
        const double score = center + rng.uniform(-0.1, 0.1);
        hub.ingest(static_cast<unsigned>(i % slot_count), score, i % 10,
                   score >= 0.5, 0.2 + rng.uniform(-0.05, 0.05), &path);
    }
}

TEST(Telemetry, WindowSealBitIdenticalAcrossSlotCounts)
{
    // Same records, dealt across 1, 2 and 8 shards: the sealed window
    // must hash identically — the in-process version of the CI
    // telemetry-determinism leg.
    std::uint64_t baseline = 0;
    for (const std::size_t S : {1u, 2u, 8u}) {
        TelemetryHub hub(smallConfig(S));
        ingestStream(hub, 500, 0.3, S, 0xAB);
        ASSERT_TRUE(hub.sealWindow());
        const std::uint64_t h = hub.windowHash(1);
        ASSERT_NE(h, 0u);
        if (baseline == 0)
            baseline = h;
        else
            EXPECT_EQ(h, baseline)
                << "slot count " << S << " changed the sealed window";
    }
}

TEST(Telemetry, EmptyWindowSealIsNoOp)
{
    TelemetryHub hub(smallConfig(2));
    EXPECT_FALSE(hub.sealWindow());
    EXPECT_FALSE(hub.maybeSeal());
    EXPECT_EQ(hub.windowsSealed(), 0u);
    EXPECT_EQ(hub.driftEventCount(), 0u);
    WindowSummary ws;
    EXPECT_FALSE(hub.latestWindow(ws));
    // A real window after the no-ops still gets id 1: no id was burned.
    ingestStream(hub, 100, 0.3, 2, 0x1);
    ASSERT_TRUE(hub.sealWindow());
    ASSERT_TRUE(hub.latestWindow(ws));
    EXPECT_EQ(ws.id, 1u);
    EXPECT_EQ(ws.records, 100u);
}

TEST(Telemetry, DriftEventsFireOnShiftAndStaySilentUnshifted)
{
    TelemetryHub hub(smallConfig(4));
    // Reference: benign traffic profile.
    ingestStream(hub, 1000, 0.25, 4, 0x10);
    EXPECT_EQ(hub.captureReference(), 1000u);
    EXPECT_TRUE(hub.hasReference());

    // Unshifted window (fresh draw, same distribution): silent.
    ingestStream(hub, 400, 0.25, 4, 0x11);
    ASSERT_TRUE(hub.sealWindow());
    EXPECT_EQ(hub.driftEventCount(), 0u)
        << "an unshifted window must not raise drift";

    // Shifted window: scores moved far from the reference — fires.
    ingestStream(hub, 400, 0.75, 4, 0x12);
    ASSERT_TRUE(hub.sealWindow());
    ASSERT_GE(hub.driftEventCount(), 1u);
    std::vector<DriftEvent> evs;
    hub.driftEvents(evs);
    bool sawScore = false;
    for (const auto &e : evs)
        if (e.kind == DriftKind::kScoreDistribution) {
            sawScore = true;
            EXPECT_EQ(e.windowId, 2u);
            EXPECT_GT(e.statistic, e.threshold);
        }
    EXPECT_TRUE(sawScore);

    // A window below minRecords never evaluates distribution drift.
    const std::uint64_t before = hub.driftEventCount();
    ingestStream(hub, 8, 0.95, 4, 0x13);
    ASSERT_TRUE(hub.sealWindow());
    EXPECT_EQ(hub.driftEventCount(), before);
}

TEST(Telemetry, PoisonedScoresRaiseTypedEvent)
{
    TelemetryHub hub(smallConfig(1));
    ingestStream(hub, 64, 0.3, 1, 0x20);
    hub.ingest(0, std::numeric_limits<double>::quiet_NaN(), 0, true,
               std::numeric_limits<double>::quiet_NaN(), nullptr);
    ASSERT_TRUE(hub.sealWindow());
    std::vector<DriftEvent> evs;
    hub.driftEvents(evs);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, DriftKind::kPoisonedScores);
    EXPECT_EQ(evs[0].statistic, 1.0);
    WindowSummary ws;
    ASSERT_TRUE(hub.latestWindow(ws));
    EXPECT_EQ(ws.poisonedScores, 2u); // score + divergence both NaN
    EXPECT_EQ(ws.records, 65u);
}

TEST(Telemetry, ThresholdProposalRestoresReferenceFlaggedFraction)
{
    TelemetryHub hub(smallConfig(2));
    ThresholdProposal p;
    EXPECT_FALSE(hub.proposeThreshold(p)) << "nothing sealed yet";

    // Reference: ~10% of traffic at/above the 0.5 decision threshold.
    Rng rng(0x30);
    for (int i = 0; i < 2000; ++i) {
        const double s =
            (i % 10 == 0) ? 0.6 + rng.uniform(0.0, 0.3)
                          : 0.05 + rng.uniform(0.0, 0.3);
        hub.ingest(0, s, 0, s >= 0.5, 0.2, nullptr);
    }
    hub.captureReference();

    // Drifted window: everything shifted up by 0.25 — far more traffic
    // gets flagged at the old threshold.
    for (int i = 0; i < 2000; ++i) {
        const double s =
            ((i % 10 == 0) ? 0.6 + rng.uniform(0.0, 0.3)
                           : 0.05 + rng.uniform(0.0, 0.3)) +
            0.25;
        hub.ingest(0, s, 0, s >= 0.5, 0.2, nullptr);
    }
    ASSERT_TRUE(hub.sealWindow());
    ASSERT_TRUE(hub.proposeThreshold(p, 0.5));
    EXPECT_EQ(p.windowId, 1u);
    EXPECT_NEAR(p.referenceFlaggedFrac, 0.10, 0.02);
    EXPECT_GT(p.windowFlaggedFrac, 0.3)
        << "the shift should over-flag at the old threshold";
    EXPECT_GT(p.proposedThreshold, 0.5)
        << "restoring the flagged fraction means raising the threshold";
    // Applying the proposed threshold to the drifted window recovers
    // the reference flagged fraction to within histogram resolution
    // (replay the exact window draw: same seed, reference draw burned
    // first to advance the generator identically).
    Rng replay(0x30);
    for (int i = 0; i < 2000; ++i)
        (void)replay.uniform(0.0, 0.3);
    std::size_t flagged = 0;
    for (int i = 0; i < 2000; ++i) {
        const double s =
            ((i % 10 == 0) ? 0.6 + replay.uniform(0.0, 0.3)
                           : 0.05 + replay.uniform(0.0, 0.3)) +
            0.25;
        if (s >= p.proposedThreshold)
            ++flagged;
    }
    EXPECT_NEAR(static_cast<double>(flagged) / 2000.0,
                p.referenceFlaggedFrac, 0.05);
}

TEST(Telemetry, IngestAndSealSteadyStateAllocationFree)
{
    TelemetryConfig cfg = smallConfig(4);
    cfg.windowRecords = 128;
    TelemetryHub hub(cfg);
    // Warm-up: reference + two full window cycles + the reusable
    // event buffer.
    ingestStream(hub, 128, 0.3, 4, 0x40);
    hub.captureReference();
    std::vector<DriftEvent> evs;
    evs.reserve(cfg.eventRing);
    WindowSummary ws;
    ThresholdProposal prop;
    for (int w = 0; w < 2; ++w) {
        ingestStream(hub, 128, 0.3, 4, 0x41 + w);
        ASSERT_TRUE(hub.maybeSeal());
        hub.driftEvents(evs);
        ASSERT_TRUE(hub.latestWindow(ws));
        ASSERT_TRUE(hub.proposeThreshold(prop));
    }
    // Steady state: one full window of ingest + seal + the whole
    // monitoring read surface, with the heap counter pinned.
    const std::size_t before =
        g_test_allocs.load(std::memory_order_relaxed);
    ingestStream(hub, 128, 0.3, 4, 0x50);
    ASSERT_TRUE(hub.maybeSeal());
    hub.driftEvents(evs);
    ASSERT_TRUE(hub.latestWindow(ws));
    ASSERT_TRUE(hub.proposeThreshold(prop));
    (void)hub.windowHash(ws.id);
    (void)hub.pathBitEstimate(7);
    EXPECT_EQ(g_test_allocs.load(std::memory_order_relaxed), before)
        << "telemetry steady state must not allocate";
}

// ---------------------------------------------------------------------
// Session / serving integration.

int
numWeighted()
{
    return static_cast<int>(
        ptolemy::testing::world().net.weightedNodes().size());
}

/** Fitted model over the shared trained world (same recipe as the
 *  serve tests). */
const core::DetectorModel &
fittedModel()
{
    static const core::DetectorModel model = [] {
        auto &w = ptolemy::testing::world();
        core::DetectorBuilder bld(
            w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
        bld.profileClassPaths(w.dataset.train, 30);
        Rng rng(0x51AB);
        std::vector<nn::Tensor> clean, noisy;
        for (std::size_t i = 0; i < 24; ++i) {
            const auto &s = w.dataset.test[i];
            clean.push_back(s.input);
            nn::Tensor x = s.input;
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
            noisy.push_back(std::move(x));
        }
        classify::FeatureMatrix benign, adversarial;
        bld.featuresBatch(clean, benign);
        bld.featuresBatch(noisy, adversarial);
        bld.fitClassifier(benign, adversarial);
        return std::move(bld).build();
    }();
    return model;
}

std::vector<nn::Tensor>
mixedInputs(std::size_t n)
{
    auto &w = ptolemy::testing::world();
    Rng rng(0x7E1E);
    std::vector<nn::Tensor> xs;
    for (std::size_t i = 0; i < n; ++i) {
        nn::Tensor x = w.dataset.test[i % w.dataset.test.size()].input;
        if (i % 2 == 1)
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.08, 0.08));
        xs.push_back(std::move(x));
    }
    return xs;
}

TelemetryConfig
sessionConfig()
{
    TelemetryConfig cfg;
    cfg.numClasses = 10;
    cfg.slots = 8; // ≥ the widest pool below; extra shards merge empty
    cfg.windowRecords = 1u << 30; // seal manually
    return cfg;
}

TEST(Telemetry, SessionIngestBitIdenticalAcrossThreadCounts)
{
    const auto &model = fittedModel();
    const auto xs = mixedInputs(48);

    // Baseline: decisions without telemetry attached.
    core::DetectorSession plain(model);
    std::vector<core::Decision> want;
    plain.detectBatch(xs, want);

    std::uint64_t baseline = 0;
    for (const unsigned T : {1u, 2u, 8u}) {
        ThreadPool pool(T);
        TelemetryHub hub(sessionConfig());
        core::DetectorSession sess(model);
        sess.attachTelemetry(&hub);
        EXPECT_EQ(sess.telemetryHub(), &hub);
        std::vector<core::Decision> got;
        sess.detectBatch(xs, got, &pool);
        ASSERT_TRUE(hub.sealWindow());
        const std::uint64_t h = hub.windowHash(1);
        ASSERT_NE(h, 0u);
        if (baseline == 0)
            baseline = h;
        else
            EXPECT_EQ(h, baseline) << "sealed window differs at "
                                   << T << " threads";
        // Telemetry must be a pure observer: scores bit-identical to
        // the un-instrumented session.
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].score, want[i].score);
            EXPECT_EQ(got[i].adversarial, want[i].adversarial);
            EXPECT_EQ(got[i].predictedClass, want[i].predictedClass);
        }
        WindowSummary ws;
        ASSERT_TRUE(hub.latestWindow(ws));
        EXPECT_EQ(ws.records, xs.size());
    }
}

TEST(Telemetry, ConcurrentIngestDuringHotModelSwap)
{
    // TSan target: client threads drive the server (dispatcher ingests
    // into the hub and seals between batches) while the main thread
    // swaps models — the replacement session re-attaches the same hub
    // mid-traffic. Counters must conserve and every ingested record
    // must land in exactly one window.
    const auto &model = fittedModel();
    const std::string path = "telemetry_swap.model";
    ASSERT_TRUE(model.save(path));

    const auto xs = mixedInputs(16);
    TelemetryConfig tcfg = sessionConfig();
    tcfg.windowRecords = 64; // several seals over the run
    TelemetryHub hub(tcfg);

    serve::ServeConfig cfg;
    cfg.telemetry = &hub;
    serve::DetectorServer server(model, cfg);

    std::atomic<std::uint64_t> served{0};
    auto client = [&](unsigned id) {
        std::vector<serve::ServeRequest> slab(8);
        for (int round = 0; round < 12; ++round) {
            for (std::size_t i = 0; i < slab.size(); ++i) {
                slab[i].reset(xs[(id + round + i) % xs.size()]);
                server.submit(slab[i]);
            }
            for (auto &r : slab)
                if (server.wait(r) == serve::RequestStatus::kOk)
                    served.fetch_add(1, std::memory_order_relaxed);
        }
    };
    std::thread c1(client, 0), c2(client, 7);
    for (int s = 0; s < 4; ++s)
        EXPECT_TRUE(server.swapModel(path));
    c1.join();
    c2.join();
    server.stop();
    hub.sealWindow(); // flush the tail

    EXPECT_TRUE(server.stats().conserved());
    // Every kOk decision was ingested exactly once, across all swaps.
    std::uint64_t windowed = 0;
    WindowSummary ws;
    for (std::uint64_t id = 1; id <= hub.windowsSealed(); ++id)
        if (hub.windowSummary(id, ws))
            windowed += ws.records;
    EXPECT_EQ(windowed + hub.pendingRecords(),
              served.load(std::memory_order_relaxed));
    EXPECT_EQ(hub.pendingRecords(), 0u);
    std::remove(path.c_str());
}

TEST(Misuse, SketchRejectsErrorBoundOutOfRange)
{
    // epsilon in (0, 1] and delta in (0, 1), checked in Release too.
    // Unchecked, a zero or negative bound sizes the rows from an
    // infinite or negative count; the bounds that size them finitely
    // come first, so an unchecked build fails here rather than there.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double eps : {1.5, 0.0, -0.1, nan})
        ASSERT_THROW(CountMinSketch(ErrorBound{eps, 0.01}),
                     std::invalid_argument)
            << "epsilon " << eps;
    for (double delta : {1.0, 0.0, -0.5, nan})
        ASSERT_THROW(CountMinSketch(ErrorBound{0.01, delta}),
                     std::invalid_argument)
            << "delta " << delta;
    EXPECT_NO_THROW(CountMinSketch(ErrorBound{1.0, 0.5}));
}

TEST(Misuse, TelemetryHubRejectsConfigWithoutClasses)
{
    TelemetryConfig cfg;
    cfg.slots = 1;
    EXPECT_THROW(TelemetryHub{cfg}, std::invalid_argument);
    cfg.numClasses = 3;
    EXPECT_NO_THROW(TelemetryHub{cfg});
}

} // namespace
} // namespace ptolemy::telemetry
