/**
 * @file
 * Path-extraction tests: the paper's Fig. 3 worked example, direction and
 * thresholding semantics, selective extraction, class-path aggregation
 * and similarity features.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/alloc_probe.hh"
#include "common/test_models.hh"
#include "nn/linear.hh"
#include "path/class_path.hh"
#include "path/extractor.hh"

namespace ptolemy::path
{
namespace
{

/** One-linear-layer network with the paper's Fig. 3 FC weights. */
nn::Network
fig3Net()
{
    nn::Network net("fig3", nn::flatShape(5));
    auto lin = std::make_unique<nn::Linear>("fc", 5, 1);
    lin->weights() = {2.1f, 0.09f, 0.2f, 0.2f, 0.1f};
    lin->biases() = {0.0f};
    net.add(std::move(lin));
    return net;
}

TEST(BackwardCumulative, Fig3FcExampleSelectsTwoLargestPsums)
{
    auto net = fig3Net();
    nn::Tensor x(nn::flatShape(5), {0.1f, 1.0f, 0.4f, 0.3f, 0.2f});
    auto rec = net.forward(x);
    EXPECT_NEAR(rec.logits()[0], 0.46f, 1e-5);

    // theta = 0.6: the two largest partial sums (0.21, 0.09) reach
    // 0.30 >= 0.6 * 0.46 = 0.276; the minimal important set is inputs
    // {0, 1} (values 0.1 and 1.0), exactly the paper's example.
    PathExtractor ex(net, ExtractionConfig::bwCu(1, 0.6));
    const BitVector p = ex.extract(rec);
    EXPECT_EQ(p.size(), 5u);
    EXPECT_TRUE(p.test(0));
    EXPECT_TRUE(p.test(1));
    EXPECT_FALSE(p.test(2));
    EXPECT_FALSE(p.test(3));
    EXPECT_FALSE(p.test(4));
}

TEST(BackwardCumulative, ThetaOneSelectsUntilFullCoverage)
{
    auto net = fig3Net();
    nn::Tensor x(nn::flatShape(5), {0.1f, 1.0f, 0.4f, 0.3f, 0.2f});
    auto rec = net.forward(x);
    PathExtractor ex(net, ExtractionConfig::bwCu(1, 1.0));
    EXPECT_EQ(ex.extract(rec).popcount(), 5u);
}

TEST(BackwardCumulative, HigherThetaNeverSelectsFewerNeurons)
{
    auto &w = testing::world();
    const auto &sample = w.dataset.test[3];
    auto rec = w.net.forward(sample.input);
    const int n = static_cast<int>(w.net.weightedNodes().size());

    std::size_t prev = 0;
    for (double theta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        PathExtractor ex(w.net, ExtractionConfig::bwCu(n, theta));
        const std::size_t bits = ex.extract(rec).popcount();
        EXPECT_GE(bits, prev) << "theta " << theta;
        prev = bits;
    }
}

TEST(BackwardCumulative, ImportantNeuronsAreSparse)
{
    // Paper Sec. III-B: even at theta=0.9 under 5% of neurons matter.
    // Our tiny models are less sparse than ImageNet-scale ones, but the
    // path must still be a small fraction of all neurons at theta=0.5.
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    PathExtractor ex(w.net, ExtractionConfig::bwCu(n, 0.5));
    auto rec = w.net.forward(w.dataset.test[0].input);
    const BitVector p = ex.extract(rec);
    EXPECT_LT(static_cast<double>(p.popcount()) / p.size(), 0.25);
    EXPECT_GT(p.popcount(), 0u);
}

TEST(BackwardCumulative, WorkspaceAllocatesNothingAfterItsFirstExtraction)
{
    // A serving pool hands each workspace whatever inputs it happens to
    // get, so a workspace warmed on its sparsest path must still take
    // every denser one without growing.
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    PathExtractor ex(w.net, ExtractionConfig::bwCu(n, 0.9));
    std::vector<nn::Network::Record> recs;
    std::size_t sparsest = 0, fewest = SIZE_MAX;
    for (std::size_t i = 0; i < 40; ++i) {
        recs.push_back(w.net.forward(w.dataset.test[i].input));
        const std::size_t bits = ex.extract(recs.back()).popcount();
        if (bits < fewest) {
            fewest = bits;
            sparsest = i;
        }
    }
    ExtractionWorkspace ws;
    BitVector bits;
    ex.extractInto(recs[sparsest], ws, bits);
    const std::size_t before = g_test_allocs.load(std::memory_order_relaxed);
    for (const auto &rec : recs)
        ex.extractInto(rec, ws, bits);
    EXPECT_EQ(g_test_allocs.load(std::memory_order_relaxed), before);
}

TEST(BackwardAbsolute, ThresholdZeroTakesPositivePsumsOnly)
{
    auto net = fig3Net();
    nn::Tensor x(nn::flatShape(5), {0.1f, 1.0f, -0.4f, 0.3f, 0.2f});
    auto rec = net.forward(x);
    auto cfg = ExtractionConfig::bwAb(1, 0.0);
    PathExtractor ex(net, cfg);
    const BitVector p = ex.extract(rec);
    // psums: 0.21, 0.09, -0.08, 0.06, 0.02 -> index 2 excluded.
    EXPECT_TRUE(p.test(0));
    EXPECT_TRUE(p.test(1));
    EXPECT_FALSE(p.test(2));
    EXPECT_TRUE(p.test(3));
    EXPECT_TRUE(p.test(4));
}

TEST(ForwardAbsolute, MarksActivationsAboveThreshold)
{
    auto net = fig3Net();
    nn::Tensor x(nn::flatShape(5), {0.1f, 1.0f, 0.4f, 0.3f, 0.2f});
    auto rec = net.forward(x);
    auto cfg = ExtractionConfig::fwAb(1, 0.35);
    PathExtractor ex(net, cfg);
    const BitVector p = ex.extract(rec);
    EXPECT_FALSE(p.test(0));
    EXPECT_TRUE(p.test(1));  // 1.0
    EXPECT_TRUE(p.test(2));  // 0.4
    EXPECT_FALSE(p.test(3));
    EXPECT_FALSE(p.test(4));
}

TEST(SelectiveExtraction, SuffixLayoutShrinks)
{
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    auto full = ExtractionConfig::bwCu(n, 0.5);
    auto last2 = ExtractionConfig::bwCu(n, 0.5);
    last2.selectFrom(n - 2);
    PathExtractor ex_full(w.net, full), ex_last2(w.net, last2);
    EXPECT_LT(ex_last2.layout().totalBits(), ex_full.layout().totalBits());
    EXPECT_EQ(static_cast<int>(ex_last2.layout().segments().size()), 2);
}

TEST(SelectiveExtraction, FirstExtractedLayerTracksSelectFrom)
{
    auto cfg = ExtractionConfig::bwCu(8, 0.5);
    EXPECT_EQ(cfg.firstExtractedLayer(), 0);
    cfg.selectFrom(5);
    EXPECT_EQ(cfg.firstExtractedLayer(), 5);
    EXPECT_EQ(cfg.numExtracted(), 3);
}

TEST(VariantNames, MatchPaperTags)
{
    EXPECT_EQ(ExtractionConfig::bwCu(4).variantName(), "BwCu");
    EXPECT_EQ(ExtractionConfig::bwAb(4).variantName(), "BwAb");
    EXPECT_EQ(ExtractionConfig::fwAb(4).variantName(), "FwAb");
    EXPECT_EQ(ExtractionConfig::hybrid(4).variantName(), "Hybrid");
}

TEST(HybridConfig, AbsoluteFirstHalfCumulativeRest)
{
    const auto cfg = ExtractionConfig::hybrid(8, 0.5, 0.1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(cfg.layers[i].kind, ThresholdKind::Absolute) << i;
    for (int i = 4; i < 8; ++i)
        EXPECT_EQ(cfg.layers[i].kind, ThresholdKind::Cumulative) << i;
}

TEST(ExtractionTraceTest, CountsAreConsistent)
{
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    PathExtractor ex(w.net, ExtractionConfig::bwCu(n, 0.5));
    auto rec = w.net.forward(w.dataset.test[1].input);
    ExtractionTrace trace;
    const BitVector p = ex.extract(rec, &trace);

    EXPECT_EQ(trace.pathBits, p.popcount());
    EXPECT_EQ(trace.layers.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(trace.totalMacs, networkMacs(w.net));
    std::size_t bits_sum = 0;
    for (const auto &lt : trace.layers) {
        EXPECT_GT(lt.importantOut, 0u);
        EXPECT_GE(lt.psumsConsidered, lt.importantOut);
        EXPECT_EQ(lt.sortedElems, lt.psumsConsidered); // cumulative sorts
        bits_sum += lt.importantIn;
    }
    EXPECT_EQ(bits_sum, p.popcount());
    // The last layer has exactly one important output: the predicted
    // class (paper Sec. III-A).
    EXPECT_EQ(trace.layers.back().importantOut, 1u);
}

TEST(ExtractionTraceTest, AverageTracesDividesCounts)
{
    ExtractionTrace a, b;
    a.direction = b.direction = Direction::Backward;
    a.pathBits = 10;
    b.pathBits = 20;
    LayerTrace la;
    la.importantOut = 4;
    la.importantIn = 8;
    LayerTrace lb = la;
    lb.importantOut = 6;
    lb.importantIn = 12;
    a.layers = {la};
    b.layers = {lb};
    const auto avg = averageTraces({a, b});
    EXPECT_EQ(avg.pathBits, 15u);
    EXPECT_EQ(avg.layers[0].importantOut, 5u);
    EXPECT_EQ(avg.layers[0].importantIn, 10u);
}

TEST(ExtractionTraceTest, AverageTracesMergesDifferingLayerSetsByIndex)
{
    // On a DAG net a backward extraction reaches a different set of
    // weighted layers per sample. The average merges by weightedIndex:
    // the union in layer order, a skipped layer counting as zero.
    auto layer = [](int w, std::size_t out, std::size_t in) {
        LayerTrace lt;
        lt.weightedIndex = w;
        lt.nodeId = 10 + w;
        lt.rfSize = 9 + w;
        lt.importantOut = out;
        lt.importantIn = in;
        lt.heapPops = out + in;
        return lt;
    };
    ExtractionTrace a, b;
    a.pathBits = 40;
    b.pathBits = 20;
    a.totalMacs = b.totalMacs = 1000;
    a.layers = {layer(0, 2, 4), layer(2, 6, 8), layer(3, 10, 12),
                layer(6, 14, 16)};
    b.layers = {layer(0, 4, 6), layer(3, 20, 30), layer(6, 2, 2)};
    const auto avg = averageTraces({b, a});

    EXPECT_EQ(avg.pathBits, 30u);
    EXPECT_EQ(avg.totalMacs, 1000u);
    ASSERT_EQ(avg.layers.size(), 4u);
    const int want_w[] = {0, 2, 3, 6};
    const std::size_t want_out[] = {3, 3, 15, 8};
    const std::size_t want_in[] = {5, 4, 21, 9};
    for (std::size_t l = 0; l < 4; ++l) {
        const LayerTrace &lt = avg.layers[l];
        EXPECT_EQ(lt.weightedIndex, want_w[l]) << l;
        EXPECT_EQ(lt.nodeId, 10 + want_w[l]) << l;
        EXPECT_EQ(lt.rfSize, static_cast<std::size_t>(9 + want_w[l])) << l;
        EXPECT_EQ(lt.importantOut, want_out[l]) << l;
        EXPECT_EQ(lt.importantIn, want_in[l]) << l;
        EXPECT_EQ(lt.heapPops, want_out[l] + want_in[l]) << l;
    }
}

TEST(Calibration, AbsoluteThresholdsHitTargetFraction)
{
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    auto cfg = ExtractionConfig::fwAb(n, 0.0);
    std::vector<nn::Tensor> samples;
    for (int i = 0; i < 8; ++i)
        samples.push_back(w.dataset.train[i * 11].input);
    calibrateAbsoluteThresholds(w.net, cfg, samples, 0.10);

    // Extract with the calibrated thresholds: the marked fraction should
    // be loosely near 10% (it is a quantile over pooled activations).
    PathExtractor ex(w.net, cfg);
    auto rec = w.net.forward(w.dataset.test[2].input);
    const BitVector p = ex.extract(rec);
    const double frac = static_cast<double>(p.popcount()) / p.size();
    EXPECT_GT(frac, 0.01);
    EXPECT_LT(frac, 0.40);
}

// ------------------------------------------------------------ class paths

TEST(ClassPaths, AggregationIsMonotonicAndSaturates)
{
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    PathExtractor ex(w.net, ExtractionConfig::bwCu(n, 0.5));
    ClassPathStore store(10, ex.layout().totalBits());

    std::size_t prev_pop = 0;
    std::size_t new_bits_late = 1;
    int aggregated = 0;
    for (const auto &s : w.dataset.train) {
        if (s.label != 0)
            continue;
        auto rec = w.net.forward(s.input);
        if (rec.predictedClass() != 0)
            continue;
        const std::size_t fresh = store.aggregate(0, ex.extract(rec));
        const std::size_t pop = store.classPath(0).popcount();
        EXPECT_GE(pop, prev_pop);
        prev_pop = pop;
        ++aggregated;
        if (aggregated > 30)
            new_bits_late = fresh;
    }
    ASSERT_GT(aggregated, 20);
    // Later samples contribute far fewer new bits than the path holds:
    // the paper's saturation behaviour.
    EXPECT_LT(new_bits_late, prev_pop / 5 + 10);
    // The class path never saturates to all-ones.
    EXPECT_LT(prev_pop, store.classPath(0).size());
}

TEST(ClassPaths, SaveLoadRoundtrip)
{
    ClassPathStore store(3, 100);
    BitVector p(100);
    p.set(7);
    p.set(42);
    store.aggregate(1, p);
    const std::string path = ::testing::TempDir() + "/cps.bin";
    ASSERT_TRUE(store.save(path));
    ClassPathStore loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.numClasses(), 3u);
    EXPECT_EQ(loaded.samplesSeen(1), 1u);
    EXPECT_TRUE(loaded.classPath(1).test(42));
    std::remove(path.c_str());
}

TEST(SimilarityFeatures, SelfSimilarityIsOne)
{
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    PathExtractor ex(w.net, ExtractionConfig::bwCu(n, 0.5));
    auto rec = w.net.forward(w.dataset.test[0].input);
    const BitVector p = ex.extract(rec);
    const auto f = computeSimilarity(p, p, ex.layout());
    EXPECT_DOUBLE_EQ(f.overall, 1.0);
    for (double s : f.perLayer)
        EXPECT_DOUBLE_EQ(s, 1.0);
    EXPECT_EQ(f.toVector().size(), f.perLayer.size() + 1);
}

TEST(SimilarityFeatures, DisjointPathsScoreZero)
{
    PathLayout layout;
    BitVector a(128), b(128);
    a.set(1);
    b.set(2);
    const auto f = computeSimilarity(a, b, layout);
    EXPECT_DOUBLE_EQ(f.overall, 0.0);
}

TEST(SimilarityFeatures, FeaturesAreInUnitInterval)
{
    auto &w = testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    PathExtractor ex(w.net, ExtractionConfig::bwCu(n, 0.5));
    ClassPathStore store(10, ex.layout().totalBits());
    for (int i = 0; i < 40; ++i) {
        auto rec = w.net.forward(w.dataset.train[i].input);
        store.aggregate(rec.predictedClass(), ex.extract(rec));
    }
    auto rec = w.net.forward(w.dataset.test[5].input);
    const BitVector p = ex.extract(rec);
    const auto f =
        computeSimilarity(p, store.classPath(rec.predictedClass()),
                          ex.layout());
    for (double s : f.toVector()) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
    }
}

} // namespace
} // namespace ptolemy::path
