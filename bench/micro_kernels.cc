/**
 * @file
 * Google-benchmark microbenchmarks of the hot kernels: path bit-vector
 * ops (the online similarity computation), important-neuron extraction
 * and its per-row ranked-prefix selection, random-forest classification
 * and the cycle-level simulator itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "classify/random_forest.hh"
#include "compiler/compiler.hh"
#include "hw/simulator.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/gemm.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "path/extractor.hh"
#include "path/prefix_select.hh"
#include "util/bitvector.hh"
#include "util/rng.hh"
#include "util/simd.hh"

using namespace ptolemy;

namespace
{

BitVector
randomBits(std::size_t n, double density, std::uint64_t seed)
{
    Rng rng(seed);
    BitVector v(n);
    for (std::size_t i = 0; i < static_cast<std::size_t>(n * density); ++i)
        v.set(rng.below(n));
    return v;
}

void
BM_BitVectorAndPopcount(benchmark::State &state)
{
    const std::size_t n = state.range(0);
    const auto a = randomBits(n, 0.05, 1);
    const auto b = randomBits(n, 0.3, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.andPopcount(b));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitVectorAndPopcount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void
BM_ClassPathAggregate(benchmark::State &state)
{
    const std::size_t n = state.range(0);
    auto cls = randomBits(n, 0.3, 3);
    const auto p = randomBits(n, 0.05, 4);
    for (auto _ : state) {
        cls |= p;
        benchmark::DoNotOptimize(cls.rawWords().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ClassPathAggregate)->Arg(1 << 16)->Arg(1 << 20);

/** Small trained-shape CNN for extraction benchmarks. */
nn::Network &
benchNet()
{
    static nn::Network net = [] {
        nn::Network n("bench", nn::mapShape(3, 16, 16));
        n.add(std::make_unique<nn::Conv2d>("c1", 3, 8, 3, 1, 1));
        n.add(std::make_unique<nn::ReLU>("r1"));
        n.add(std::make_unique<nn::MaxPool2d>("p1", 2));
        n.add(std::make_unique<nn::Conv2d>("c2", 8, 16, 3, 1, 1));
        n.add(std::make_unique<nn::ReLU>("r2"));
        n.add(std::make_unique<nn::MaxPool2d>("p2", 2));
        n.add(std::make_unique<nn::Flatten>("f"));
        n.add(std::make_unique<nn::Linear>("fc", 256, 10));
        nn::heInit(n, 3);
        return n;
    }();
    return net;
}

void
BM_ForwardPass(benchmark::State &state)
{
    auto &net = benchNet();
    nn::Tensor x(nn::mapShape(3, 16, 16));
    Rng rng(5);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform());
    for (auto _ : state) {
        auto rec = net.forward(x);
        benchmark::DoNotOptimize(rec.logits().data());
    }
}
BENCHMARK(BM_ForwardPass);

/**
 * Fused packed conv forward (the serving path's conv kernel) on one
 * thread, per 3x3 / stride 1 / pad 1 layer shape: the nine conv layers
 * of the end-to-end benchmark's worlds (detect_full 3->16@32,
 * 16->32@16, 32->32@8; detect_early 3->32@32, 32->32@16, 32->64@8,
 * 64->64@8; serve 3->8@16, 8->12@8) plus a larger 64->64@32 layer.
 * Reports MAC/s; skipped unless the AVX2 path is active.
 */
void
BM_ConvForward(benchmark::State &state)
{
    // {in_c, out_c, h (= w)}
    static constexpr int kShapes[][3] = {
        {3, 16, 32}, {16, 32, 16}, {32, 32, 8}, {3, 32, 32}, {32, 32, 16},
        {32, 64, 8}, {64, 64, 8},  {3, 8, 16},  {8, 12, 8},  {64, 64, 32}};
    const auto &sh = kShapes[state.range(0)];
    const int in_c = sh[0], out_c = sh[1], hw = sh[2];
    state.SetLabel(std::to_string(in_c) + "->" + std::to_string(out_c) +
                   "@" + std::to_string(hw));
    const int K = in_c * 9;
    Rng rng(10);
    std::vector<float> w(static_cast<std::size_t>(out_c) * K);
    std::vector<float> b(out_c);
    std::vector<float> x(static_cast<std::size_t>(in_c) * hw * hw);
    std::vector<float> y(static_cast<std::size_t>(out_c) * hw * hw);
    for (auto *v : {&w, &b, &x})
        for (auto &e : *v)
            e = static_cast<float>(rng.uniform()) - 0.5f;
    nn::PackedB wt;
    nn::packBMatrixStrided(w.data(), 1, K, K, out_c, wt);
    ThreadPool *saved = nn::gemmPool();
    nn::gemmPool() = nullptr;
    for (auto _ : state) {
        nn::convForwardPacked(x.data(), in_c, hw, hw, 3, 1, 1, hw, hw, wt,
                              b.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    nn::gemmPool() = saved;
    state.counters["MAC/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * out_c * K * hw * hw,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvForward)->DenseRange(0, 9);

/** The e2e benchmark's detect_full network shape: 3conv + 2fc at
 *  16/32/32 channels on a 3x32x32 input (He-initialized, not trained). */
nn::Network &
detectFullNet()
{
    static nn::Network net = [] {
        nn::Network n("detect_full", nn::mapShape(3, 32, 32));
        n.add(std::make_unique<nn::Conv2d>("conv1", 3, 16, 3, 1, 1));
        n.add(std::make_unique<nn::ReLU>("relu1"));
        n.add(std::make_unique<nn::MaxPool2d>("pool1", 2));
        n.add(std::make_unique<nn::Conv2d>("conv2", 16, 32, 3, 1, 1));
        n.add(std::make_unique<nn::ReLU>("relu2"));
        n.add(std::make_unique<nn::MaxPool2d>("pool2", 2));
        n.add(std::make_unique<nn::Conv2d>("conv3", 32, 32, 3, 1, 1));
        n.add(std::make_unique<nn::ReLU>("relu3"));
        n.add(std::make_unique<nn::Flatten>("flat"));
        n.add(std::make_unique<nn::Linear>("fc1", 32 * 8 * 8, 64));
        n.add(std::make_unique<nn::ReLU>("relu4"));
        n.add(std::make_unique<nn::Linear>("fc2", 64, 10));
        nn::heInit(n, 3);
        return n;
    }();
    return net;
}

/**
 * Backward cumulative extraction of one recorded inference through a
 * reused workspace and output (the serving loop's allocation-free
 * form): args {theta x 10, net}, net 0 the toy CNN above and net 1 the
 * detect_full-shaped network.
 */
void
BM_BackwardCumulativeExtraction(benchmark::State &state)
{
    const double theta = state.range(0) / 10.0;
    auto &net = state.range(1) ? detectFullNet() : benchNet();
    state.SetLabel(state.range(1) ? "detect_full" : "toy");
    path::PathExtractor ex(
        net, path::ExtractionConfig::bwCu(
                 static_cast<int>(net.weightedNodes().size()), theta));
    nn::Tensor x(net.inputShape());
    Rng rng(6);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform());
    auto rec = net.forward(x);
    path::ExtractionWorkspace ws;
    BitVector bits;
    for (auto _ : state) {
        ex.extractInto(rec, ws, bits);
        benchmark::DoNotOptimize(bits.rawWords().data());
    }
}
BENCHMARK(BM_BackwardCumulativeExtraction)
    ->Args({1, 0})
    ->Args({5, 0})
    ->Args({9, 0})
    ->Args({5, 1});

/**
 * Ranked-prefix selection of one partial-sum row: row length n (27, 144
 * and 288 are 3x3 conv receptive fields at 3, 16 and 32 input channels;
 * 1024 and 2048 the fc1 rows of the e2e detect_early and detect_full
 * nets) x prefix length k (capped at n). The target is the
 * exact sum of the k largest values, so the selection stops at the k-th
 * pick; on rows up to path::kPivotFirstRow k = 32 is the last all-pass
 * prefix and k = 64 runs into the pivot blocks, and longer rows start
 * in the pivot blocks. Each iteration also restores the row the
 * selection clobbers.
 */
void
BM_PrefixSelect(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto k = std::min(n, static_cast<std::size_t>(state.range(1)));
    Rng rng(11 + n);
    nn::PsumRow pristine;
    for (std::size_t i = 0; i < n; ++i)
        pristine.push(static_cast<std::uint32_t>(i),
                      static_cast<float>(rng.uniform()));
    std::vector<float> ranked = pristine.value;
    std::sort(ranked.begin(), ranked.end(), std::greater<float>());
    double target = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        target += ranked[i];

    nn::PsumRow row = pristine;
    path::PrefixScratch scratch;
    std::vector<std::size_t> selected;
    for (auto _ : state) {
        std::copy(pristine.value.begin(), pristine.value.end(),
                  row.value.begin());
        selected.clear();
        path::prefixSelect(row, target, path::PrefixMass::Signed, scratch,
                           selected);
        benchmark::DoNotOptimize(selected.data());
        benchmark::ClobberMemory();
    }
    state.counters["k"] = static_cast<double>(selected.size());
    state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_PrefixSelect)->ArgsProduct(
    {{27, 144, 288, 1024, 2048}, {1, 4, 32, 64}});

/**
 * Cumulative selection (theta = 0.5) for 256 important neurons of one
 * conv layer, picked at random among the positive outputs: 27, 144 and
 * 288 taps are the e2e detect_full net's conv1 (32x32), conv2 (16x16)
 * and conv3 (8x8), border neurons included. Lanes 0 is the per-row
 * path (partialSums + prefixSelect per neuron); 1, 2, 4, 8 and 16 run
 * selectConvLanes on groups of that many neurons, with the lanes it
 * hands back taking the per-row path. Items are neurons. The lane
 * forms skip where SimdMode::Avx512 is not available.
 */
void
BM_ConvLaneSelect(benchmark::State &state)
{
    const int taps = static_cast<int>(state.range(0));
    const auto lanes = static_cast<std::size_t>(state.range(1));
    if (lanes > 0 && !avx512Available()) {
        state.SkipWithError("SimdMode::Avx512 not available");
        return;
    }
    const SimdMode saved = simdMode();
    if (lanes > 0)
        simdMode() = SimdMode::Avx512;
    const int in_c = taps / 9;
    const int hw = taps == 27 ? 32 : taps == 144 ? 16 : 8;
    nn::Conv2d conv("c", in_c, 32, 3, 1, 1);
    Rng rng(13 + taps);
    std::vector<float> w(conv.weights().size());
    for (float &v : w)
        v = static_cast<float>(rng.gaussian(0.0, 0.3));
    conv.setWeights(w);
    nn::Tensor x(nn::mapShape(in_c, hw, hw)), y;
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(std::max(0.0, rng.gaussian(0.0, 1.0)));
    conv.forwardInto({&x}, y, false);
    const auto offsets = conv.receptiveFieldOffsets(x.shape());
    std::vector<std::size_t> outs;
    while (outs.size() < 256) {
        const std::size_t o = rng.below(y.size());
        if (y[o] > 0.0f)
            outs.push_back(o);
    }

    nn::PsumRow row;
    path::PrefixScratch scratch;
    path::ConvLaneScratch lane_scratch;
    std::vector<std::size_t> selected;
    selected.reserve(static_cast<std::size_t>(taps));
    auto per_row = [&](std::size_t o) {
        conv.partialSums(x, o, row, offsets.data());
        selected.clear();
        path::prefixSelect(row, 0.5 * y[o], path::PrefixMass::Signed,
                           scratch, selected);
        benchmark::DoNotOptimize(selected.data());
    };
    std::size_t handed_back = 0;
    for (auto _ : state) {
        if (lanes == 0) {
            for (std::size_t o : outs)
                per_row(o);
            continue;
        }
        for (std::size_t i = 0; i < outs.size(); i += lanes) {
            const std::size_t n = std::min(lanes, outs.size() - i);
            const std::uint32_t done = path::selectConvLanes(
                conv, x, offsets.data(), &outs[i], n, y, 0.5, lane_scratch);
            benchmark::DoNotOptimize(lane_scratch.group.index);
            for (std::size_t l = 0; l < n; ++l)
                if (!(done >> l & 1u)) {
                    per_row(outs[i + l]);
                    ++handed_back;
                }
        }
    }
    simdMode() = saved;
    state.SetLabel(lanes == 0 ? "per-row" : "lanes");
    state.counters["handed_back"] = benchmark::Counter(
        static_cast<double>(handed_back) / 256.0,
        benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(outs.size()));
}
BENCHMARK(BM_ConvLaneSelect)
    ->ArgsProduct({{27, 144, 288}, {0, 1, 2, 4, 8, 16}});

void
BM_ForwardAbsoluteExtraction(benchmark::State &state)
{
    auto &net = benchNet();
    path::PathExtractor ex(
        net, path::ExtractionConfig::fwAb(
                 static_cast<int>(net.weightedNodes().size()), 0.2));
    nn::Tensor x(nn::mapShape(3, 16, 16));
    Rng rng(7);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform());
    auto rec = net.forward(x);
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.extract(rec));
}
BENCHMARK(BM_ForwardAbsoluteExtraction);

void
BM_RandomForestPredict(benchmark::State &state)
{
    Rng rng(8);
    classify::FeatureMatrix xs;
    std::vector<int> ys;
    for (int i = 0; i < 400; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                      rng.uniform(), rng.uniform()});
        ys.push_back(rng.bernoulli(0.5) ? 1 : 0);
    }
    classify::RandomForest rf;
    rf.fit(xs, ys);
    for (auto _ : state)
        benchmark::DoNotOptimize(rf.predictProb(xs[0]));
}
BENCHMARK(BM_RandomForestPredict);

void
BM_CycleSimulatorBwCu(benchmark::State &state)
{
    auto &net = benchNet();
    const auto cfg = path::ExtractionConfig::bwCu(
        static_cast<int>(net.weightedNodes().size()), 0.5);
    path::PathExtractor ex(net, cfg);
    nn::Tensor x(nn::mapShape(3, 16, 16));
    Rng rng(9);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform());
    auto rec = net.forward(x);
    path::ExtractionTrace trace;
    ex.extract(rec, &trace);
    compiler::Compiler comp(net, cfg);
    const auto prog = comp.compile(trace);
    hw::Simulator sim;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run(prog).cycles);
}
BENCHMARK(BM_CycleSimulatorBwCu);

} // namespace

BENCHMARK_MAIN();
