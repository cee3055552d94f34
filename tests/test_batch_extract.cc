/**
 * @file
 * Batched forward + workspace-reuse equivalence: forwardBatch records
 * must match per-sample forward() records bitwise, extraction from
 * either must produce identical paths, a reused ExtractionWorkspace
 * must behave exactly like a fresh one, and ranked-prefix cumulative
 * selection must pick the same sets as the full-sort reference.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/test_models.hh"
#include "nn/network.hh"
#include "path/extractor.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::path
{
namespace
{

std::vector<nn::Tensor>
randomBatch(std::size_t n, nn::Shape shape, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Tensor> xs;
    xs.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        nn::Tensor x(shape);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform());
        xs.push_back(std::move(x));
    }
    return xs;
}

TEST(ForwardBatch, RecordsMatchPerSampleForwardBitwise)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 3);
    const auto xs = randomBatch(6, net.inputShape(), 11);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);
    ASSERT_EQ(recs.size(), xs.size());

    for (std::size_t s = 0; s < xs.size(); ++s) {
        auto ref = net.forward(xs[s]);
        ASSERT_EQ(recs[s].outputs.size(), ref.outputs.size());
        for (std::size_t n = 0; n < ref.outputs.size(); ++n) {
            ASSERT_EQ(recs[s].outputs[n].shape(), ref.outputs[n].shape());
            for (std::size_t i = 0; i < ref.outputs[n].size(); ++i)
                ASSERT_EQ(recs[s].outputs[n][i], ref.outputs[n][i])
                    << "sample " << s << " node " << n << " elem " << i;
        }
    }
}

TEST(ForwardBatch, ThreadPoolProducesIdenticalRecords)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 4);
    const auto xs = randomBatch(9, net.inputShape(), 12);

    std::vector<nn::Network::Record> serial, pooled;
    net.forwardBatch(xs, serial);
    ThreadPool pool(3);
    net.forwardBatch(xs, pooled, &pool);

    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t s = 0; s < serial.size(); ++s)
        for (std::size_t n = 0; n < serial[s].outputs.size(); ++n)
            for (std::size_t i = 0; i < serial[s].outputs[n].size(); ++i)
                ASSERT_EQ(serial[s].outputs[n][i], pooled[s].outputs[n][i]);
}

TEST(ForwardBatch, ReusedRecordVectorIsRefilledCorrectly)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 5);
    const auto xs_a = randomBatch(4, net.inputShape(), 13);
    const auto xs_b = randomBatch(4, net.inputShape(), 14);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs_a, recs);
    net.forwardBatch(xs_b, recs); // reuse the same records
    for (std::size_t s = 0; s < xs_b.size(); ++s) {
        auto ref = net.forward(xs_b[s]);
        for (std::size_t i = 0; i < ref.logits().size(); ++i)
            ASSERT_EQ(recs[s].logits()[i], ref.logits()[i]);
    }
}

TEST(ExtractionWorkspace, BatchAndPerSampleExtractionBitwiseEqual)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 6);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    PathExtractor ex(net, ExtractionConfig::bwCu(n_w, 0.5));
    const auto xs = randomBatch(5, net.inputShape(), 15);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    ExtractionWorkspace ws;
    for (std::size_t s = 0; s < xs.size(); ++s) {
        auto per_sample = net.forward(xs[s]);
        const BitVector a = ex.extract(per_sample);     // fresh workspace
        const BitVector b = ex.extract(recs[s], ws);    // batch rec, reused ws
        EXPECT_EQ(a, b) << "sample " << s;
    }
}

TEST(ExtractionWorkspace, ReuseProducesIdenticalBitVectorsAcrossCalls)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 7);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(4, net.inputShape(), 16);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    for (auto cfg : {ExtractionConfig::bwCu(n_w, 0.5),
                     ExtractionConfig::bwAb(n_w, 0.01),
                     ExtractionConfig::fwAb(n_w, 0.1)}) {
        PathExtractor ex(net, cfg);
        // Reference paths, each from a pristine workspace.
        std::vector<BitVector> fresh;
        for (const auto &rec : recs)
            fresh.push_back(ex.extract(rec));
        // One workspace + one output vector reused across interleaved,
        // repeated extractions must reproduce them exactly.
        ExtractionWorkspace ws;
        BitVector bits;
        for (int round = 0; round < 3; ++round) {
            for (std::size_t s = 0; s < recs.size(); ++s) {
                ex.extractInto(recs[s], ws, bits);
                EXPECT_EQ(bits, fresh[s])
                    << "round " << round << " sample " << s << " variant "
                    << cfg.variantName();
            }
        }
    }
}

TEST(ExtractionWorkspace, PrefixSelectionMatchesReferenceSort)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 8);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(6, net.inputShape(), 17);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    // Backward cumulative plus a forward-cumulative config (prefixSelect
    // also serves the forward direction's activation-mass ranking).
    ExtractionConfig fw_cu;
    fw_cu.direction = Direction::Forward;
    fw_cu.layers.assign(
        static_cast<std::size_t>(n_w),
        LayerPolicy{true, ThresholdKind::Cumulative, 0.7, 0.0});

    for (auto cfg : {ExtractionConfig::bwCu(n_w, 0.5),
                     ExtractionConfig::bwCu(n_w, 0.9), fw_cu}) {
        PathExtractor ex(net, cfg);
        ExtractionWorkspace prefix_ws, sort_ws;
        sort_ws.referenceSort = true;
        for (std::size_t s = 0; s < recs.size(); ++s) {
            const BitVector a = ex.extract(recs[s], prefix_ws);
            const BitVector b = ex.extract(recs[s], sort_ws);
            EXPECT_EQ(a, b) << "sample " << s;
        }
    }
}

TEST(ExtractionWorkspace, TracesUnaffectedByWorkspaceReuse)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 9);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    PathExtractor ex(net, ExtractionConfig::bwCu(n_w, 0.5));
    const auto xs = randomBatch(2, net.inputShape(), 18);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    ExtractionWorkspace ws;
    ExtractionTrace reused_trace;
    ex.extract(recs[1], ws);                // dirty the workspace
    ex.extract(recs[0], ws, &reused_trace); // then trace with reuse
    ExtractionTrace ref;
    ex.extract(recs[0], &ref);
    ASSERT_EQ(reused_trace.layers.size(), ref.layers.size());
    for (std::size_t l = 0; l < ref.layers.size(); ++l) {
        EXPECT_EQ(reused_trace.layers[l].importantOut,
                  ref.layers[l].importantOut);
        EXPECT_EQ(reused_trace.layers[l].importantIn,
                  ref.layers[l].importantIn);
        EXPECT_EQ(reused_trace.layers[l].psumsConsidered,
                  ref.layers[l].psumsConsidered);
    }
    EXPECT_EQ(reused_trace.pathBits, ref.pathBits);
}

TEST(ExtractionWorkspace, SurvivesReuseAcrossDifferentNetworks)
{
    // A workspace dirtied by a larger network must reset cleanly when
    // reused with a smaller one (stale touched ids would otherwise
    // index out of bounds).
    auto big = ptolemy::testing::makeTinyNet(10);
    nn::heInit(big, 21);
    nn::Network small("small", nn::flatShape(8));
    small.add(std::make_unique<nn::Linear>("fc", 8, 4));
    nn::heInit(small, 22);

    PathExtractor ex_big(
        big, ExtractionConfig::bwCu(
                 static_cast<int>(big.weightedNodes().size()), 0.5));
    PathExtractor ex_small(
        small, ExtractionConfig::bwCu(
                   static_cast<int>(small.weightedNodes().size()), 0.5));

    const auto xs = randomBatch(1, big.inputShape(), 23);
    auto rec_big = big.forward(xs[0]);
    Rng rng(24);
    nn::Tensor x_small(nn::flatShape(8));
    for (std::size_t i = 0; i < x_small.size(); ++i)
        x_small[i] = static_cast<float>(rng.uniform());
    auto rec_small = small.forward(x_small);

    ExtractionWorkspace ws;
    ex_big.extract(rec_big, ws); // dirties high node ids
    const BitVector got = ex_small.extract(rec_small, ws);
    const BitVector ref = ex_small.extract(rec_small);
    EXPECT_EQ(got, ref);
    // And back again to the big network.
    EXPECT_EQ(ex_big.extract(rec_big, ws), ex_big.extract(rec_big));
}

TEST(ExtractBatch, MatchesSequentialExtractAcrossThreadCounts)
{
    auto net = ptolemy::testing::makeTinyNet(10);
    nn::heInit(net, 31);
    const int n_w = static_cast<int>(net.weightedNodes().size());
    const auto xs = randomBatch(13, net.inputShape(), 32);
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    for (auto cfg : {ExtractionConfig::bwCu(n_w, 0.5),
                     ExtractionConfig::bwAb(n_w, 0.01),
                     ExtractionConfig::fwAb(n_w, 0.1)}) {
        PathExtractor ex(net, cfg);
        std::vector<BitVector> ref;
        for (const auto &rec : recs)
            ref.push_back(ex.extract(rec));

        // No pool at all (serial overload).
        const auto serial = ex.extractBatch(recs);
        ASSERT_EQ(serial.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(serial[i], ref[i])
                << "serial sample " << i << " " << cfg.variantName();

        for (unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            BatchExtractionWorkspace bws;
            std::vector<BitVector> out;
            // Repeat with a reused workspace: the second round must be
            // as clean as the first.
            for (int round = 0; round < 2; ++round) {
                ex.extractBatch(recs, out, bws, &pool);
                ASSERT_EQ(out.size(), ref.size());
                for (std::size_t i = 0; i < ref.size(); ++i)
                    EXPECT_EQ(out[i], ref[i])
                        << "threads=" << threads << " round=" << round
                        << " sample " << i << " " << cfg.variantName();
            }
        }
    }
}

TEST(RecordBackward, BatchRecordsAreDifferentiable)
{
    // Layers keep no per-pass state, so any record — including one from
    // forwardBatch — carries everything backward needs, and the result
    // matches a fresh single-stream forward+backward bitwise.
    auto net = ptolemy::testing::makeTinyNet(4);
    nn::heInit(net, 33);
    const auto xs = randomBatch(2, net.inputShape(), 34);

    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);
    nn::Tensor seed(nn::flatShape(4));
    seed[0] = 1.0f;
    const nn::Tensor from_batch = net.backward(recs[1], seed);

    auto rec = net.forward(xs[1]);
    net.zeroGrads(); // param grads accumulated above are irrelevant here
    const nn::Tensor &fresh = net.backward(rec, seed);
    ASSERT_EQ(from_batch.size(), fresh.size());
    for (std::size_t i = 0; i < from_batch.size(); ++i)
        ASSERT_EQ(from_batch[i], fresh[i]) << "i=" << i;
}

TEST(RecordBackward, MismatchedRecordThrows)
{
    auto net = ptolemy::testing::makeTinyNet(4);
    nn::heInit(net, 37);
    nn::Tensor seed(nn::flatShape(4));
    seed[0] = 1.0f;
    nn::Network::Record empty;
    EXPECT_THROW(net.backward(empty, seed), std::logic_error);
}

TEST(GradArena, RepeatedBackwardReturnsIdenticalGradients)
{
    auto net = ptolemy::testing::makeTinyNet(4);
    nn::heInit(net, 35);
    const auto xs = randomBatch(2, net.inputShape(), 36);
    nn::Tensor seed(nn::flatShape(4));
    seed[1] = 1.0f;
    seed[3] = -0.5f;

    auto rec = net.forward(xs[0]);
    const nn::Tensor first = net.backward(rec, seed); // copy off the arena
    // Interleave another sample, then repeat the first: the arena must
    // not leak state between passes.
    rec = net.forward(xs[1]);
    net.backward(rec, seed);
    rec = net.forward(xs[0]);
    const nn::Tensor &second = net.backward(rec, seed);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i], second[i]) << "i=" << i;
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    // Outer loop on the pool; each body issues another parallelFor on
    // the same pool. Nested sections must run inline (no deadlock on
    // the single job slot, no thread explosion) and still cover every
    // index exactly once.
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    // Reuse: a second loop on the same pool must also run cleanly.
    std::atomic<int> sum{0};
    pool.parallelFor(100, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 4950);
}

} // namespace
} // namespace ptolemy::path
