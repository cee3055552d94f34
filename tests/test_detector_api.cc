/**
 * @file
 * Serving-API tests for the Engine/Session split: batched-vs-sequential
 * Decision bit-identity across thread counts, concurrent sessions over
 * one shared DetectorModel, allocation-free session steady state, the
 * fail-safe adversarial cut, and the DetectorModel save/load round trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "common/alloc_probe.hh"
#include "common/test_models.hh"
#include "core/detector.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

// Shared with other test files through common/alloc_probe.hh (the
// replacement below can exist only once per program).
std::atomic<std::size_t> g_test_allocs{0};

namespace
{
std::atomic<std::size_t> &g_allocs = g_test_allocs;
} // namespace

// Count every heap allocation in the test binary (pure counting, no
// behavior change) so the session steady state can be shown to perform
// none — the same probe perf_smoke uses.
void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ptolemy::core
{
namespace
{

int
numWeighted()
{
    return static_cast<int>(
        ptolemy::testing::world().net.weightedNodes().size());
}

/** Mixed clean/perturbed inputs the decisions are probed on. */
std::vector<nn::Tensor>
probeInputs(std::size_t n)
{
    auto &w = ptolemy::testing::world();
    Rng rng(0xD37EC7);
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

/** One fully-fitted model (class paths + forest) over the shared
 *  trained world, built once per test process. */
const DetectorModel &
fittedModel()
{
    static const DetectorModel model = [] {
        auto &w = ptolemy::testing::world();
        DetectorBuilder bld(
            w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
        bld.profileClassPaths(w.dataset.train, 30);

        // Fit on clean-vs-perturbed feature rows: cheap, deterministic,
        // and enough signal for the decisions to be non-degenerate.
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

void
expectDecisionsEqual(const Decision &a, const Decision &b,
                     const std::string &what)
{
    EXPECT_EQ(a.predictedClass, b.predictedClass) << what;
    EXPECT_EQ(a.adversarial, b.adversarial) << what;
    EXPECT_EQ(a.score, b.score) << what; // bitwise: doubles must match
    EXPECT_EQ(a.features.overall, b.features.overall) << what;
    ASSERT_EQ(a.features.perLayer.size(), b.features.perLayer.size())
        << what;
    for (std::size_t l = 0; l < a.features.perLayer.size(); ++l)
        EXPECT_EQ(a.features.perLayer[l], b.features.perLayer[l])
            << what << " layer " << l;
}

TEST(DetectorApi, DetectBatchMatchesSequentialAcrossThreadCounts)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(13);

    // Sequential reference: one warmed session, detect() per input.
    DetectorSession ref_sess(model);
    std::vector<Decision> ref;
    for (const auto &x : xs)
        ref.push_back(ref_sess.detect(x));

    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        DetectorSession sess(model);
        std::vector<Decision> out;
        // Round 2 reuses every warmed buffer: must be as clean as
        // round 1.
        for (int round = 0; round < 2; ++round) {
            sess.detectBatch(xs, out, &pool);
            ASSERT_EQ(out.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                expectDecisionsEqual(
                    out[i], ref[i],
                    "threads=" + std::to_string(threads) + " round=" +
                        std::to_string(round) + " sample " +
                        std::to_string(i));
        }
    }
}

TEST(DetectorApi, TwoConcurrentSessionsShareOneModel)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(16);

    DetectorSession ref_sess(model);
    std::vector<Decision> ref;
    for (const auto &x : xs)
        ref.push_back(ref_sess.detect(x));

    // Two client threads, each with its own session, hammering the one
    // shared (immutable) model concurrently. This is the test the CI
    // ThreadSanitizer leg runs.
    std::vector<Decision> got_a(xs.size()), got_b(xs.size());
    auto client = [&](std::vector<Decision> &got) {
        DetectorSession sess(model);
        for (int round = 0; round < 3; ++round)
            for (std::size_t i = 0; i < xs.size(); ++i)
                got[i] = sess.detect(xs[i]);
    };
    std::thread ta(client, std::ref(got_a));
    std::thread tb(client, std::ref(got_b));
    ta.join();
    tb.join();

    for (std::size_t i = 0; i < xs.size(); ++i) {
        expectDecisionsEqual(got_a[i], ref[i],
                             "session A sample " + std::to_string(i));
        expectDecisionsEqual(got_b[i], ref[i],
                             "session B sample " + std::to_string(i));
    }
}

TEST(DetectorApi, SessionReuseIsAllocationFreeAfterWarmup)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(8);
    std::vector<const nn::Tensor *> xptrs;
    for (const auto &x : xs)
        xptrs.push_back(&x);

    // A pinned 1-thread pool makes the warm-up deterministic: slot 0
    // sees every sample in the first batch, so its workspace high-water
    // marks are final after one round. (Multi-threaded 0-alloc steady
    // state is asserted by perf_smoke, whose warm-until-quiescent loop
    // matches the pool it measures under — with a dynamic slot↔sample
    // schedule, a slot can meet its costliest sample late, so a fixed
    // warm-up round count would be scheduling-dependent here.)
    ThreadPool pool(1);
    DetectorSession sess(model);
    std::vector<Decision> out(xs.size());
    const std::span<const nn::Tensor *const> xspan(xptrs.data(),
                                                   xptrs.size());
    const std::span<Decision> ospan(out.data(), out.size());

    // Two warm batches: the first grows every buffer, the second
    // settles copy-assign capacity effects.
    sess.detectBatch(xspan, ospan, &pool);
    sess.detectBatch(xspan, ospan, &pool);

    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i)
        sess.detectBatch(xspan, ospan, &pool);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
        << "steady-state detectBatch performed heap allocations";

    // Single-stream detect shares the warmed slot-0 scratch, but the
    // returned Decision owns vectors — route it through a warmed
    // destination instead.
    Decision d = sess.detect(xs[0]);
    const std::size_t before_single =
        g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i)
        sess.detectBatch(xspan.subspan(0, 1),
                         std::span<Decision>(&d, 1), &pool);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before_single)
        << "steady-state single-sample serving performed allocations";
}

TEST(DetectorApi, EmptyBatchIsANoOp)
{
    const auto &model = fittedModel();
    DetectorSession sess(model);

    // Span form: no pool touch, no scratch growth, no allocation.
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    sess.detectBatch(std::span<const nn::Tensor *const>(),
                     std::span<Decision>());
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
        << "empty detectBatch allocated";

    // Vector convenience form: out is cleared to match.
    std::vector<nn::Tensor> xs;
    std::vector<Decision> out(3);
    sess.detectBatch(xs, out);
    EXPECT_TRUE(out.empty());
}

TEST(DetectorApi, AdversarialCutIsFailSafeOnNonFiniteScores)
{
    // One cut for every Decision site (session, functional simulator,
    // fault campaign): non-finite scores are adversarial, finite ones
    // split exactly at 0.5.
    const auto &model = fittedModel();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(model.isAdversarial(nan));
    EXPECT_TRUE(model.isAdversarial(inf));
    EXPECT_TRUE(model.isAdversarial(-inf));
    EXPECT_TRUE(model.isAdversarial(0.5));
    EXPECT_FALSE(model.isAdversarial(std::nextafter(0.5, 0.0)));
    EXPECT_FALSE(model.isAdversarial(0.0));
    EXPECT_TRUE(model.isAdversarial(1.0));
}

TEST(DetectorApi, MismatchedSpanLengthsAreRejected)
{
    const auto &model = fittedModel();
    const auto xs = probeInputs(2);
    std::vector<const nn::Tensor *> xptrs{&xs[0], &xs[1]};
    std::vector<Decision> out(1); // one short: caller bug
    DetectorSession sess(model);

    const std::span<const nn::Tensor *const> xspan(xptrs.data(), 2);
    const std::span<Decision> ospan(out.data(), 1);
#ifdef NDEBUG
    EXPECT_THROW(sess.detectBatch(xspan, ospan), std::invalid_argument);
#else
    EXPECT_DEATH(sess.detectBatch(xspan, ospan), "span lengths differ");
#endif
}

TEST(DetectorApi, SaveLoadRoundTripDetectsBitIdentically)
{
    auto &w = ptolemy::testing::world();
    const auto &model = fittedModel();
    const auto xs = probeInputs(10);
    const std::string path = "detector_api_roundtrip.model";
    ASSERT_TRUE(model.save(path));

    // Load into a model constructed with a *different* config: load
    // must replace it wholesale (config travels with the artifacts).
    DetectorModel loaded(
        w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.3), 10);
    ASSERT_NO_THROW(loaded.load(path));
    EXPECT_EQ(loaded.variantName(), model.variantName());
    EXPECT_EQ(loaded.classPaths().numBits(), model.classPaths().numBits());

    DetectorSession s_orig(model), s_loaded(loaded);
    for (std::size_t i = 0; i < xs.size(); ++i)
        expectDecisionsEqual(s_orig.detect(xs[i]), s_loaded.detect(xs[i]),
                             "round-trip sample " + std::to_string(i));

    // A different architecture must be rejected by signature, with the
    // typed load error (and the bool convenience wrapper agreeing).
    nn::Network other = ptolemy::testing::makeTinyNet(4);
    DetectorModel wrong(
        other,
        path::ExtractionConfig::bwCu(
            static_cast<int>(other.weightedNodes().size()), 0.5),
        4);
    EXPECT_THROW(wrong.load(path), ModelLoadError);
    EXPECT_FALSE(wrong.tryLoad(path));

    // Truncated files must be rejected, not half-applied.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        ASSERT_EQ(std::fclose(f), 0);
        ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
        DetectorModel fresh(
            w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
        EXPECT_THROW(fresh.load(path), ModelLoadError);
    }
    std::remove(path.c_str());
}

TEST(DetectorApi, FacadeDelegatesToServingApi)
{
    auto &w = ptolemy::testing::world();
    const auto &model = fittedModel();
    const auto xs = probeInputs(4);

    // The deprecated façade over the same profiling/fitting sequence
    // must decide exactly like the split API it wraps.
    Detector det(w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5),
                 10);
    det.buildClassPaths(w.dataset.train, 30);
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
    det.featuresBatch(clean, benign);
    det.featuresBatch(noisy, adversarial);
    det.fitClassifier(benign, adversarial);

    DetectorSession sess(model);
    for (std::size_t i = 0; i < xs.size(); ++i)
        expectDecisionsEqual(det.detect(xs[i]), sess.detect(xs[i]),
                             "facade sample " + std::to_string(i));
}

} // namespace
} // namespace ptolemy::core
