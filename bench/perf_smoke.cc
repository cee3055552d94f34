/**
 * @file
 * Hot-path perf smoke: conv GFLOP/s (implicit GEMM vs the naive
 * reference, plus the AVX-512 conv tile vs AVX2 on hosts that have
 * it), path extractions/sec (single-stream and pool-parallel
 * extractBatch vs the legacy allocate-and-sort strategy),
 * forward+backward passes/sec (full and input-only, plus the conv input
 * gradient's speedup over the naive reference backward),
 * data-parallel SGD samples/sec (pooled
 * and 1-thread), and bit-vector similarity ops/sec. Emits
 * BENCH_micro.json — including the thread count, SIMD mode and core
 * count the numbers were taken under — so every PR records a
 * comparable perf trajectory, and counts heap allocations inside the
 * steady-state extract, backward and training loops to prove all three
 * are allocation-free.
 *
 * Runtime is bounded by PTOLEMY_BENCH_MIN_TIME seconds per measurement
 * (default 0.3), so the harness stays CI-friendly.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "attack/gradient_attacks.hh"
#include "compiler/compiler.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "data/synthetic.hh"
#include "hw/area.hh"
#include "hw/simulator.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/gemm.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "path/class_path.hh"
#include "path/extraction_config.hh"
#include "path/extractor.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

std::atomic<std::size_t> g_allocs{0};

} // namespace

// Count every heap allocation in the process so the steady-state
// extract loop can be shown to perform none.
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

namespace
{

using namespace ptolemy;
using Clock = std::chrono::steady_clock;

double
minMeasureTime()
{
    if (const char *s = std::getenv("PTOLEMY_BENCH_MIN_TIME"))
        return std::atof(s);
    return 0.3;
}

/** Run @p fn repeatedly until @p min_seconds elapsed; returns seconds
 *  per call. */
template <typename Fn>
double
secsPerCall(Fn &&fn, double min_seconds)
{
    std::size_t reps = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_seconds);
    return elapsed / static_cast<double>(reps);
}

/** {min, median, max} seconds-per-call over repeated timing trials. */
struct TimingStat
{
    double min = 0.0;
    double median = 0.0;
    double max = 0.0;
};

/**
 * Noise-resistant timing: one untimed warm-up call, then @p trials
 * independent secsPerCall measurements whose budgets split
 * @p min_seconds between them, reported as {min, median, max}. The
 * gated headline value is the median — on a shared CI core a single
 * secsPerCall window can land on a scheduling hiccup and swing +-20%,
 * which the median of five absorbs — while min/max record the spread
 * so a wide run is visible in the artifact.
 */
template <typename Fn>
TimingStat
medianSecsPerCall(Fn &&fn, double min_seconds, int trials = 5)
{
    fn(); // warm-up: fault in scratch and caches outside the timing
    std::vector<double> t(static_cast<std::size_t>(trials));
    for (auto &x : t)
        x = secsPerCall(fn, min_seconds / trials);
    std::sort(t.begin(), t.end());
    TimingStat s;
    s.min = t.front();
    s.median = t[t.size() / 2];
    s.max = t.back();
    return s;
}

TimingStat
statOf(std::vector<double> t)
{
    std::sort(t.begin(), t.end());
    TimingStat s;
    s.min = t.front();
    s.median = t[t.size() / 2];
    s.max = t.back();
    return s;
}

/**
 * A/B timing with the trials INTERLEAVED (a, b, a, b, ...) rather than
 * run as two back-to-back blocks: the two arms of a same-host ratio
 * (implicit-GEMM forward vs the naive loop) then see the same slow
 * drift — frequency steps, a neighbor landing on the core — instead of
 * one arm eating a whole bad window, so the gated ratio of the medians
 * is far steadier than two independent measurements minutes apart.
 */
template <typename FnA, typename FnB>
std::pair<TimingStat, TimingStat>
interleavedABSecsPerCall(FnA &&fa, FnB &&fb, double min_seconds,
                         int trials = 5)
{
    fa(); // warm arm A
    fb(); // warm arm B
    std::vector<double> ta(static_cast<std::size_t>(trials));
    std::vector<double> tb(static_cast<std::size_t>(trials));
    const double budget = min_seconds / (2 * trials);
    for (int i = 0; i < trials; ++i) {
        ta[static_cast<std::size_t>(i)] = secsPerCall(fa, budget);
        tb[static_cast<std::size_t>(i)] = secsPerCall(fb, budget);
    }
    return {statOf(std::move(ta)), statOf(std::move(tb))};
}

void
randomFill(std::span<float> v, Rng &rng, float scale)
{
    for (auto &x : v)
        x = (static_cast<float>(rng.uniform()) - 0.5f) * scale;
}

/** VGG-style conv layer: 64 -> 64 channels, 32x32, k=3, s=1, p=1. */
struct ConvBenchResult
{
    double gemmGflops = 0.0;    ///< median, persistent packed weights
    double gemmGflopsMin = 0.0; ///< spread (slowest trial)
    double gemmGflopsMax = 0.0; ///< spread (fastest trial)
    double naiveGflops = 0.0;   ///< median, Conv2d::forwardNaive
};

ConvBenchResult
benchConv(double min_time)
{
    nn::Conv2d conv("bench_conv", 64, 64, 3, 1, 1);
    Rng rng(0xC0FFEE);
    std::vector<float> w(conv.weights().size());
    randomFill(w, rng, 0.2f);
    conv.setWeights(w);
    randomFill(conv.biases(), rng, 0.2f);
    nn::Tensor in(nn::mapShape(64, 32, 32));
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(rng.uniform());
    nn::Tensor out;
    out.resize(nn::mapShape(64, 32, 32));

    const double flops = 2.0 * 64 * 32 * 32 * 64 * 3 * 3;
    ConvBenchResult r;
    // Interleaved against Conv2d::forwardNaive on the same layer, so the
    // gated speedup is a ratio of medians taken over the same windows.
    const auto [gemm, naive] = interleavedABSecsPerCall(
        [&] { conv.forwardInto({&in}, out, false); },
        [&] { conv.forwardNaive(in, out); }, 2.0 * min_time);
    r.gemmGflops = flops / gemm.median / 1e9;
    r.gemmGflopsMin = flops / gemm.max / 1e9;
    r.gemmGflopsMax = flops / gemm.min / 1e9;
    r.naiveGflops = flops / naive.median / 1e9;
    return r;
}

/**
 * The AVX-512 conv tile against the AVX2 one it widens, as an
 * interleaved in-process A/B on one thread: one call runs
 * convForwardPacked over the end-to-end benchmark's conv shapes, and
 * the arms differ only in simdMode() (Avx512 vs Avx2, bit-identical
 * outputs). Per trial pair the speedup is avx2 / avx512 seconds;
 * reported as their median and spread. Informational, and measured
 * only where the tile can run (avx512Available()).
 */
struct Avx512ConvResult
{
    bool measured = false;
    double speedup = 0.0;    ///< median of the per-pair ratios
    double speedupMin = 0.0; ///< spread (smallest pair ratio)
    double speedupMax = 0.0; ///< spread (largest pair ratio)
};

Avx512ConvResult
benchConvAvx512(double min_time)
{
    Avx512ConvResult r;
    if (!nn::avx512Available())
        return r;
    // {in_c, out_c, h = w}: detect_full, detect_early and serving nets.
    static constexpr int kShapes[][3] = {
        {3, 16, 32}, {16, 32, 16}, {32, 32, 8}, {3, 32, 32}, {32, 32, 16},
        {32, 64, 8}, {64, 64, 8},  {3, 8, 16},  {8, 12, 8}};
    struct Shape
    {
        int inC, outC, hw;
        std::vector<float> x, y, b;
        nn::PackedB wt;
    };
    std::vector<Shape> shapes;
    Rng rng(0xA512);
    for (const auto &sh : kShapes) {
        Shape s{sh[0], sh[1], sh[2], {}, {}, {}, {}};
        const int K = s.inC * 9;
        std::vector<float> w(static_cast<std::size_t>(s.outC) * K);
        s.x.resize(static_cast<std::size_t>(s.inC) * s.hw * s.hw);
        s.y.resize(static_cast<std::size_t>(s.outC) * s.hw * s.hw);
        s.b.resize(static_cast<std::size_t>(s.outC));
        randomFill(w, rng, 0.2f);
        randomFill(s.x, rng, 1.0f);
        randomFill(s.b, rng, 0.2f);
        nn::packBMatrixStrided(w.data(), 1, K, K, s.outC, s.wt);
        shapes.push_back(std::move(s));
    }
    auto forwardAll = [&] {
        for (auto &s : shapes)
            nn::convForwardPacked(s.x.data(), s.inC, s.hw, s.hw, 3, 1, 1,
                                  s.hw, s.hw, s.wt, s.b.data(), s.y.data());
    };
    const SimdMode saved_mode = ptolemy::simdMode();
    ThreadPool *saved_pool = nn::gemmPool();
    nn::gemmPool() = nullptr;
    for (SimdMode m : {SimdMode::Avx2, SimdMode::Avx512}) {
        ptolemy::simdMode() = m;
        forwardAll(); // warm both arms outside the timing
    }
    constexpr int kTrials = 7;
    const double budget = 2.0 * min_time / (2 * kTrials);
    std::vector<double> ratio;
    for (int i = 0; i < kTrials; ++i) {
        ptolemy::simdMode() = SimdMode::Avx2;
        const double t_avx2 = secsPerCall(forwardAll, budget);
        ptolemy::simdMode() = SimdMode::Avx512;
        const double t_avx512 = secsPerCall(forwardAll, budget);
        ratio.push_back(t_avx2 / t_avx512);
    }
    ptolemy::simdMode() = saved_mode;
    nn::gemmPool() = saved_pool;
    const TimingStat st = statOf(std::move(ratio));
    r.measured = true;
    r.speedup = st.median;
    r.speedupMin = st.min;
    r.speedupMax = st.max;
    return r;
}

/** Small VGG-ish CNN whose extraction cost is conv-dominated. */
nn::Network
extractionNet()
{
    nn::Network net("perf_smoke", nn::mapShape(3, 32, 32));
    net.add(std::make_unique<nn::Conv2d>("c1", 3, 16, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("r1"));
    net.add(std::make_unique<nn::MaxPool2d>("p1", 2)); // 16x16
    net.add(std::make_unique<nn::Conv2d>("c2", 16, 32, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("r2"));
    net.add(std::make_unique<nn::MaxPool2d>("p2", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("c3", 32, 32, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("r3"));
    net.add(std::make_unique<nn::Flatten>("f"));
    net.add(std::make_unique<nn::Linear>("fc1", 32 * 8 * 8, 64));
    net.add(std::make_unique<nn::ReLU>("r4"));
    net.add(std::make_unique<nn::Linear>("fc2", 64, 10));
    nn::heInit(net, 11);
    return net;
}

struct ExtractBenchResult
{
    double newPerSec = 0.0;
    double batchPerSec = 0.0;
    double legacyPerSec = 0.0;
    std::size_t allocsPerExtract = 0;
    std::size_t pathBits = 0;
    std::size_t numSamples = 0;
};

ExtractBenchResult
benchExtraction(double min_time)
{
    nn::Network net = extractionNet();
    const auto cfg = path::ExtractionConfig::bwCu(
        static_cast<int>(net.weightedNodes().size()), 0.5);
    path::PathExtractor ex(net, cfg);

    // 100 recorded inferences (the acceptance workload).
    constexpr std::size_t kSamples = 100;
    Rng rng(0xBEEF);
    std::vector<nn::Tensor> xs;
    xs.reserve(kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) {
        nn::Tensor x(nn::mapShape(3, 32, 32));
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform());
        xs.push_back(std::move(x));
    }
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);

    ExtractBenchResult r;
    r.numSamples = kSamples;

    // New strategy: persistent workspace + reused BitVector + ranked-
    // prefix selection.
    path::ExtractionWorkspace ws;
    BitVector bits;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < kSamples; ++i) // warm every buffer
        ex.extractInto(recs[i], ws, bits);
    r.pathBits = bits.popcount();

    const std::size_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    std::size_t calls = 0;
    const double new_spc = secsPerCall(
        [&] {
            ex.extractInto(recs[cursor], ws, bits);
            cursor = (cursor + 1) % kSamples;
            ++calls;
        },
        min_time);
    const std::size_t allocs_after = g_allocs.load(std::memory_order_relaxed);
    r.newPerSec = 1.0 / new_spc;
    r.allocsPerExtract = calls ? (allocs_after - allocs_before) / calls : 0;

    // Pool-parallel batched extraction (the detector-evaluation path):
    // whole batches per call, one workspace per pool slot.
    {
        ptolemy::ThreadPool &pool = ptolemy::globalPool();
        path::BatchExtractionWorkspace bws;
        std::vector<BitVector> out;
        ex.extractBatch(recs, out, bws, &pool); // warm per-slot buffers
        const double batch_spc = secsPerCall(
            [&] { ex.extractBatch(recs, out, bws, &pool); }, min_time);
        r.batchPerSec = static_cast<double>(kSamples) / batch_spc;
    }

    // Legacy strategy (pre-refactor behavior): fresh workspace per call
    // (per-node importance lists and dedup flags reallocated every time)
    // and a full std::sort of every partial-sum list.
    cursor = 0;
    const double legacy_spc = secsPerCall(
        [&] {
            path::ExtractionWorkspace fresh;
            fresh.referenceSort = true;
            BitVector out = ex.extract(recs[cursor], fresh);
            cursor = (cursor + 1) % kSamples;
        },
        min_time);
    r.legacyPerSec = 1.0 / legacy_spc;
    return r;
}

struct BackwardBenchResult
{
    double passesPerSec = 0.0;
    double inputOnlyPassesPerSec = 0.0; ///< the attack step's gradient
    double inputGradSpeedup = 0.0;      ///< implicit GEMM vs backwardNaive
    std::size_t allocsPerPass = 0;      ///< worst of both pass loops
};

/**
 * Conv input gradient on the 64->64 32x32 probe, interleaved A/B:
 * Conv2d's input-only backward (convBackwardInput, the implicit GEMM)
 * against Conv2d::backwardNaive on the same layer, input gradient only
 * (no weight or bias gradient). Returns naive / implicit seconds.
 */
double
benchInputGradSpeedup(double min_time)
{
    constexpr int C = 64, HW = 32, K = 3;
    nn::Conv2d conv("bench_conv", C, C, K, 1, 1);
    Rng rng(0xC0FFEE);
    std::vector<float> w(conv.weights().size());
    randomFill(w, rng, 0.2f);
    conv.setWeights(w);
    nn::Tensor in(nn::mapShape(C, HW, HW)), gout(nn::mapShape(C, HW, HW));
    for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = static_cast<float>(rng.uniform());
        gout[i] = static_cast<float>(rng.uniform()) - 0.5f;
    }
    nn::Tensor gin, gin_naive;
    const std::vector<const nn::Tensor *> ins{&in};
    const std::vector<nn::GradSink> sinks{{&gin, false}};
    const auto [a, b] = interleavedABSecsPerCall(
        [&] { conv.backwardInto(ins, gout, sinks, nn::skipParamGrads()); },
        [&] { conv.backwardNaive(in, gout, gin_naive, nullptr, nullptr); },
        2.0 * min_time);
    return b.median / a.median;
}

BackwardBenchResult
benchBackward(double min_time)
{
    nn::Network net = extractionNet();
    Rng rng(0xD00D);
    nn::Tensor x(nn::mapShape(3, 32, 32));
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform());

    nn::Network::Record rec;
    nn::LossGrad lg;
    nn::Network::GradArena slot;
    // Full passes (parameter and input gradients) and input-only passes
    // (an attack step's gradient); both arena-backed, results borrowed.
    auto pass = [&] {
        net.forwardInto(x, rec, /*train=*/false);
        nn::softmaxCrossEntropyInto(rec.logits(), 0, lg);
        net.backward(rec, lg.grad);
    };
    auto input_only_pass = [&] {
        net.forwardInto(x, rec, /*train=*/false);
        nn::softmaxCrossEntropyInto(rec.logits(), 0, lg);
        net.backwardInputOnly(rec, lg.grad, slot);
    };

    // Warm until quiescent, then time; returns {seconds per pass,
    // allocations per pass}. The record, loss grad, gradient arena and
    // every pool worker's thread-local gemm scratch must all reach
    // steady state. Worker warm-up is scheduling-dependent (a worker
    // only grows its conv scratch when it first draws a conv block), so
    // require several consecutive allocation-free passes.
    auto measure = [&](auto &&fn) {
        int quiet = 0;
        for (int i = 0; i < 200 && quiet < 3; ++i) {
            const std::size_t before =
                g_allocs.load(std::memory_order_relaxed);
            fn();
            quiet = g_allocs.load(std::memory_order_relaxed) == before
                        ? quiet + 1
                        : 0;
        }
        const std::size_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        std::size_t calls = 0;
        const double spc = secsPerCall(
            [&] {
                fn();
                ++calls;
            },
            min_time);
        const std::size_t allocs =
            g_allocs.load(std::memory_order_relaxed) - allocs_before;
        return std::pair{spc, calls ? allocs / calls : 0};
    };

    BackwardBenchResult r;
    const auto [spc, allocs] = measure(pass);
    const auto [spc_in, allocs_in] = measure(input_only_pass);
    r.passesPerSec = 1.0 / spc;
    r.inputOnlyPassesPerSec = 1.0 / spc_in;
    r.allocsPerPass = std::max(allocs, allocs_in);
    r.inputGradSpeedup = benchInputGradSpeedup(min_time);
    return r;
}

struct TrainBenchResult
{
    double samplesPerSecPooled = 0.0;
    double samplesPerSecSerial = 0.0;
    std::size_t allocsPerEpoch = 0;
    std::size_t numSamples = 0;
    std::size_t gradLanes = 0;
};

/**
 * Data-parallel SGD throughput on the 3conv+2fc net: whole epochs per
 * call through Trainer::trainInto, measured once on the process-wide
 * pool and once pinned to a 1-thread pool (the per-thread baseline the
 * scaling multiplier is read against). The pooled steady state must be
 * allocation-free: all per-slot records, arenas and per-lane gradient
 * clones are warmed by the first call and reused.
 */
TrainBenchResult
benchTrain(double min_time)
{
    nn::Network net = extractionNet();
    data::DatasetSpec spec;
    spec.numClasses = 10;
    spec.imageSize = 32;
    spec.trainPerClass = 8;
    spec.testPerClass = 1;
    spec.seed = 77;
    const auto ds = data::makeSyntheticDataset(spec);

    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.learningRate = 1e-3; // keep weights sane over many timed epochs
    tc.verbose = false;

    TrainBenchResult r;
    r.numSamples = ds.train.size();
    r.gradLanes = std::min<std::size_t>(
        static_cast<std::size_t>(tc.batchSize),
        nn::Trainer::kMaxGradLanes);

    {
        nn::Trainer trainer(tc); // pool = nullptr -> globalPool()
        std::vector<nn::EpochStats> hist;
        // Warm until quiescent (worker thread-locals settle on their
        // own schedule, like the backward bench).
        int quiet = 0;
        for (int i = 0; i < 50 && quiet < 3; ++i) {
            const std::size_t before =
                g_allocs.load(std::memory_order_relaxed);
            trainer.trainInto(net, ds.train, hist);
            quiet = g_allocs.load(std::memory_order_relaxed) == before
                        ? quiet + 1
                        : 0;
        }
        const std::size_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        std::size_t calls = 0;
        const double spc = secsPerCall(
            [&] {
                trainer.trainInto(net, ds.train, hist);
                ++calls;
            },
            min_time);
        const std::size_t allocs_after =
            g_allocs.load(std::memory_order_relaxed);
        r.samplesPerSecPooled = static_cast<double>(ds.train.size()) / spc;
        r.allocsPerEpoch =
            calls ? (allocs_after - allocs_before) / calls : 0;
    }

    {
        // Per-thread baseline: a 1-thread trainer pool, with the SGEMM
        // tile fan-out pinned to it as well so nothing rides the global
        // workers.
        ptolemy::ThreadPool serial(1);
        ptolemy::ThreadPool *saved = nn::gemmPool();
        nn::gemmPool() = &serial;
        nn::TrainConfig tc1 = tc;
        tc1.pool = &serial;
        nn::Trainer trainer(tc1);
        std::vector<nn::EpochStats> hist;
        trainer.trainInto(net, ds.train, hist); // warm
        const double spc = secsPerCall(
            [&] { trainer.trainInto(net, ds.train, hist); }, min_time);
        nn::gemmPool() = saved;
        r.samplesPerSecSerial = static_cast<double>(ds.train.size()) / spc;
    }
    return r;
}

struct AttackBenchResult
{
    double bimSerialPerSec = 0.0;
    double bimBatchPerSec = 0.0;
    double pgdSerialPerSec = 0.0;
    double pgdBatchPerSec = 0.0;
    std::size_t allocsPerBatchBim = 0;
    std::size_t allocsPerBatchPgd = 0;
    std::size_t chunk = 0;
    int maxIters = 0;
};

/** One ascent step on the CE loss (the legacy serial loop's step). */
void
signStepRef(nn::Tensor &x, const nn::Tensor &grad, double step)
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (grad[i] > 0.0f)
            x[i] += static_cast<float>(step);
        else if (grad[i] < 0.0f)
            x[i] -= static_cast<float>(step);
    }
}

/**
 * The pre-refactor sample-serial BIM loop, kept here as the perf
 * reference the batched engine is compared against: one prediction
 * forward (allocating a fresh Record, as Network::predict does) plus
 * one gradient forward+backward per iteration, then a final
 * prediction forward. The batched engine fuses the prediction check
 * into the gradient pass's record, halving the forwards and running
 * allocation-free.
 */
void
serialLinfRef(nn::Network &net, const nn::Tensor &x, std::size_t label,
              const attack::AttackBudget &budget, nn::Tensor &adv,
              nn::Tensor &grad)
{
    adv = x;
    for (int it = 0; it < budget.maxIters; ++it) {
        if (net.predict(adv) != label)
            break;
        attack::lossInputGradientInto(net, adv, label, grad);
        signStepRef(adv, grad, budget.stepSize);
        attack::clipToEpsBall(adv, x, budget.epsilon);
    }
    volatile bool success = net.predict(adv) != label;
    (void)success;
}

/**
 * Attack-generation throughput on the 3conv+2fc net: a 64-sample
 * candidate chunk (the buildAttackPairs chunk size) driven through the
 * batched engine vs the legacy sample-serial loop, for BIM and PGD.
 * The budget is small enough that most candidates use every iteration,
 * so the measurement tracks iteration throughput rather than
 * early-exit luck. The batched steady state must be allocation-free.
 */
AttackBenchResult
benchAttack(double min_time)
{
    nn::Network net = extractionNet();
    constexpr std::size_t kChunk = 64;
    attack::AttackBudget budget;
    budget.epsilon = 0.03;
    budget.stepSize = 0.003;
    budget.maxIters = 12;

    Rng rng(0xA77AC);
    std::vector<nn::Tensor> inputs;
    std::vector<const nn::Tensor *> xs;
    std::vector<std::size_t> labels;
    inputs.reserve(kChunk);
    for (std::size_t s = 0; s < kChunk; ++s) {
        nn::Tensor x(nn::mapShape(3, 32, 32));
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
    }
    // Label every candidate with its current prediction so the attacks
    // have to do real work to flip it.
    for (auto &x : inputs) {
        xs.push_back(&x);
        labels.push_back(net.predict(x));
    }

    AttackBenchResult r;
    r.chunk = kChunk;
    r.maxIters = budget.maxIters;

    auto measureSerial = [&](auto &&attack_one) {
        return static_cast<double>(kChunk) /
               secsPerCall(
                   [&] {
                       for (std::size_t i = 0; i < kChunk; ++i)
                           attack_one(i);
                   },
                   min_time);
    };
    auto measureBatch = [&](attack::Attack &atk, std::size_t &allocs_out) {
        std::vector<attack::AttackResult> results(kChunk);
        // Warm until quiescent (pool-worker thread-locals settle on
        // their own schedule, like the backward bench).
        int quiet = 0;
        for (int i = 0; i < 50 && quiet < 3; ++i) {
            const std::size_t before =
                g_allocs.load(std::memory_order_relaxed);
            atk.runBatch(net, xs, labels, results, 0);
            quiet = g_allocs.load(std::memory_order_relaxed) == before
                        ? quiet + 1
                        : 0;
        }
        const std::size_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        std::size_t calls = 0;
        const double spc = secsPerCall(
            [&] {
                atk.runBatch(net, xs, labels, results, 0);
                ++calls;
            },
            min_time);
        const std::size_t allocs_after =
            g_allocs.load(std::memory_order_relaxed);
        allocs_out = calls ? (allocs_after - allocs_before) / calls : 0;
        return static_cast<double>(kChunk) / spc;
    };

    {
        nn::Tensor adv, grad;
        serialLinfRef(net, inputs[0], labels[0], budget, adv, grad); // warm
        r.bimSerialPerSec = measureSerial([&](std::size_t i) {
            serialLinfRef(net, inputs[i], labels[i], budget, adv, grad);
        });
        attack::Bim bim(budget);
        r.bimBatchPerSec = measureBatch(bim, r.allocsPerBatchBim);
    }
    {
        nn::Tensor adv, grad;
        auto pgd_one = [&](std::size_t i) {
            // Legacy loop from the new engine's random start (keyed by
            // sample index), so both paths do identical work.
            Rng start(attack::sampleKey(0xB0B, i));
            adv = inputs[i];
            for (std::size_t e = 0; e < adv.size(); ++e)
                adv[e] += static_cast<float>(
                    start.uniform(-budget.epsilon, budget.epsilon));
            attack::clipToEpsBall(adv, inputs[i], budget.epsilon);
            for (int it = 0; it < budget.maxIters; ++it) {
                if (net.predict(adv) != labels[i])
                    break;
                attack::lossInputGradientInto(net, adv, labels[i], grad);
                signStepRef(adv, grad, budget.stepSize);
                attack::clipToEpsBall(adv, inputs[i], budget.epsilon);
            }
            volatile bool success = net.predict(adv) != labels[i];
            (void)success;
        };
        pgd_one(0); // warm
        r.pgdSerialPerSec = measureSerial(pgd_one);
        attack::Pgd pgd(budget);
        r.pgdBatchPerSec = measureBatch(pgd, r.allocsPerBatchPgd);
    }
    return r;
}

struct DetectBenchResult
{
    double singleStreamPerSec = 0.0;
    double batchPerSec = 0.0;      ///< serving path (fused per-sample)
    double legacyPerSec = 0.0;
    double forwardUsPerDetect = 0.0; ///< cost split: forward (median)
    double forwardUsPerDetectMin = 0.0; ///< spread (fastest trial)
    double forwardUsPerDetectMax = 0.0; ///< spread (slowest trial)
    double extractUsPerDetect = 0.0; ///< cost split: path extraction
    double scoreUsPerDetect = 0.0;   ///< cost split: similarity + forest
    std::size_t allocsPerBatch = 0;
    std::size_t chunk = 0;
};

/**
 * End-to-end detection serving throughput on the 3conv+2fc net with a
 * fitted BwCu detector: a 64-request chunk through the fused
 * DetectorSession::detectBatch vs (a) the sequential warmed
 * session.detect loop ("single-stream": what one client serially
 * achieves — on a one-core host the fused batch does the same
 * per-sample math, so the interesting batch multiplier is pool
 * scaling, measured on multi-core hosts) and (b) the legacy per-sample
 * score() serving pipeline the evaluation harness used before the
 * Engine/Session split: a fresh allocating Record per request
 * (Network::forward), a fresh extraction workspace with the
 * reference full-sort selection, and an allocating
 * features->vector->predictProb chain. The batched steady state must
 * be allocation-free.
 */
DetectBenchResult
benchDetect(double min_time)
{
    nn::Network net = extractionNet();
    constexpr std::size_t kChunk = 64;
    constexpr std::size_t kClasses = 10;

    Rng rng(0xDE7EC7);
    std::vector<nn::Tensor> inputs;
    std::vector<const nn::Tensor *> xs;
    inputs.reserve(kChunk);
    for (std::size_t s = 0; s < kChunk; ++s) {
        nn::Tensor x(nn::mapShape(3, 32, 32));
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
    }
    for (auto &x : inputs)
        xs.push_back(&x);

    // Offline phase: profile class paths on the request inputs (labels
    // = current predictions so every sample aggregates) and fit the
    // forest on clean-vs-noisy feature rows.
    core::DetectorBuilder bld(
        net,
        path::ExtractionConfig::bwCu(
            static_cast<int>(net.weightedNodes().size()), 0.5),
        kClasses);
    {
        nn::Dataset profile;
        nn::Network::Record rec;
        for (const auto &x : inputs)
            profile.push_back({x, net.inferPredict(x, rec)});
        bld.profileClassPaths(profile, /*max_per_class=*/16);
        std::vector<nn::Tensor> noisy;
        for (const auto &x : inputs) {
            nn::Tensor p = x;
            for (std::size_t e = 0; e < p.size(); ++e)
                p[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
            noisy.push_back(std::move(p));
        }
        classify::FeatureMatrix benign, adversarial;
        bld.featuresBatch(inputs, benign);
        bld.featuresBatch(noisy, adversarial);
        bld.fitClassifier(benign, adversarial);
    }
    const core::DetectorModel model = std::move(bld).build();

    DetectBenchResult r;
    r.chunk = kChunk;

    core::DetectorSession sess(model);
    std::vector<core::Decision> out(kChunk);
    const std::span<const nn::Tensor *const> xspan(xs.data(), xs.size());
    const std::span<core::Decision> ospan(out.data(), out.size());

    // Warm until quiescent (pool-worker thread-locals settle on their
    // own schedule, like the other benches), then measure the serving
    // path.
    {
        int quiet = 0;
        for (int i = 0; i < 50 && quiet < 3; ++i) {
            const std::size_t before =
                g_allocs.load(std::memory_order_relaxed);
            sess.detectBatch(xspan, ospan);
            quiet = g_allocs.load(std::memory_order_relaxed) == before
                        ? quiet + 1
                        : 0;
        }
        const std::size_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        std::size_t calls = 0;
        const double spc = secsPerCall(
            [&] {
                sess.detectBatch(xspan, ospan);
                ++calls;
            },
            min_time);
        const std::size_t allocs_after =
            g_allocs.load(std::memory_order_relaxed);
        r.allocsPerBatch = calls ? (allocs_after - allocs_before) / calls : 0;
        r.batchPerSec = static_cast<double>(kChunk) / spc;
    }
    {
        // First-class cost split of one detection: the per-sample
        // forward (the schedule detectBatch serves with), the path
        // extraction, and the similarity + forest scoring tail, each
        // measured through the same public seams the serving path uses.
        std::vector<nn::Network::Record> recs;
        model.network().forwardBatch(xspan, recs); // records for extract
        const TimingStat fwd_spc = medianSecsPerCall(
            [&] { model.network().forwardBatch(xspan, recs); }, min_time);
        r.forwardUsPerDetect = fwd_spc.median / kChunk * 1e6;
        r.forwardUsPerDetectMin = fwd_spc.min / kChunk * 1e6;
        r.forwardUsPerDetectMax = fwd_spc.max / kChunk * 1e6;

        path::ExtractionWorkspace ws;
        BitVector pathBits;
        std::size_t cursor = 0;
        model.extractor().extractInto(recs[0], ws, pathBits); // warm
        const double ext_spc =
            medianSecsPerCall(
                [&] {
                    model.extractor().extractInto(recs[cursor], ws, pathBits);
                    cursor = (cursor + 1) % kChunk;
                },
                min_time)
                .median;
        r.extractUsPerDetect = ext_spc * 1e6;

        core::Decision d;
        std::vector<double> feat;
        volatile double sink = 0.0;
        cursor = 0;
        const double score_spc =
            medianSecsPerCall(
                [&] {
                    const std::size_t pred = recs[cursor].predictedClass();
                    path::computeSimilarityInto(
                        pathBits, model.classPaths().classPath(pred),
                        model.extractor().layout(), d.features);
                    d.features.toVectorInto(feat);
                    sink = model.forest().predictProb(feat);
                    cursor = (cursor + 1) % kChunk;
                },
                min_time)
                .median;
        r.scoreUsPerDetect = score_spc * 1e6;
    }
    {
        std::size_t cursor = 0;
        core::Decision d = sess.detect(inputs[0]); // warm
        const double spc = secsPerCall(
            [&] {
                d = sess.detect(inputs[cursor]);
                cursor = (cursor + 1) % kChunk;
            },
            min_time);
        r.singleStreamPerSec = 1.0 / spc;
    }
    {
        // Legacy per-sample score() serving: every request pays a
        // freshly-allocated Record, a fresh reference-sort workspace
        // and the allocating feature chain.
        std::size_t cursor = 0;
        volatile double sink = 0.0;
        const double spc = secsPerCall(
            [&] {
                auto rec = net.forward(inputs[cursor]);
                path::ExtractionWorkspace fresh;
                fresh.referenceSort = true;
                const BitVector path =
                    model.extractor().extract(rec, fresh);
                const auto f = path::computeSimilarity(
                    path,
                    model.classPaths().classPath(rec.predictedClass()),
                    model.extractor().layout());
                sink = model.forest().predictProb(f.toVector());
                cursor = (cursor + 1) % kChunk;
            },
            min_time);
        r.legacyPerSec = 1.0 / spc;
    }
    return r;
}

struct SimWidthResult
{
    std::size_t bits = 0;
    double opsPerSec = 0.0;       ///< active SIMD mode
    double scalarOpsPerSec = 0.0; ///< forced-scalar reference
    double jaccardPerSec = 0.0;   ///< active mode, fused inter+union
};

struct SimilarityBenchResult
{
    SimWidthResult narrow; ///< 4k bits (per-layer segment scale)
    SimWidthResult wide;   ///< 64k bits (full-path scale)
};

SimWidthResult
benchSimilarityWidth(std::size_t bits, double min_time)
{
    // Path-sized bit vectors at realistic densities: activation path
    // ~5% dense, class path ~30% dense.
    Rng rng(0xFACE);
    BitVector p(bits), pc(bits);
    for (std::size_t i = 0; i < bits / 20; ++i)
        p.set(rng.below(bits));
    for (std::size_t i = 0; i < bits * 3 / 10; ++i)
        pc.set(rng.below(bits));

    volatile std::size_t sink = 0;
    volatile double dsink = 0.0;
    SimWidthResult r;
    r.bits = bits;
    r.opsPerSec =
        1.0 /
        secsPerCall([&] { sink = sink + p.andPopcount(pc); }, min_time);
    r.jaccardPerSec =
        1.0 / secsPerCall([&] { dsink = p.jaccard(pc); }, min_time);
    // Forced-scalar reference: same exact counts (popcounts are exact
    // integers), so the ratio is a pure throughput number.
    const SimdMode saved = ptolemy::simdMode();
    ptolemy::simdMode() = SimdMode::Scalar;
    r.scalarOpsPerSec =
        1.0 /
        secsPerCall([&] { sink = sink + p.andPopcount(pc); }, min_time);
    ptolemy::simdMode() = saved;
    return r;
}

SimilarityBenchResult
benchSimilarity(double min_time)
{
    SimilarityBenchResult r;
    r.narrow = benchSimilarityWidth(4096, min_time);
    r.wide = benchSimilarityWidth(std::size_t{1} << 16, min_time);
    return r;
}

/** One compiled program's deterministic co-design metrics. */
struct HwProgramStats
{
    std::size_t instrs = 0;    ///< static program size
    std::size_t codeBytes = 0;
    std::size_t cycles = 0;
    std::size_t executed = 0;  ///< dynamic instruction count
    std::size_t dramBytes = 0;
};

struct HwBenchResult
{
    std::size_t inferenceCycles = 0;
    HwProgramStats all, noNeuron, noLayer, noRecompute, none, batch8;
    std::size_t psumCountStore = 0;
    std::size_t maskBits = 0;
    std::size_t recomputePsums = 0;
    std::size_t extraDramStore = 0;
    std::size_t extraDramRecompute = 0;
    std::size_t mixInference = 0;
    std::size_t mixPath = 0;
    std::size_t mixCls = 0;
    std::size_t mixOther = 0;
};

/**
 * Hardware co-design probe: the extraction net's BwCu workload through
 * the compiler (every optimization-pass combination plus the batch-8
 * program) and the cycle-level simulator on baseline hardware. Unlike
 * every other section this measures no wall clock — cycle counts,
 * instruction counts and DRAM footprints are pure functions of the
 * deterministic profiled trace, so the gate compares them EXACTLY (any
 * drift is a real change in compiler output or the timing model, not
 * noise).
 */
HwBenchResult
benchHw()
{
    nn::Network net = extractionNet();
    const auto cfg = path::ExtractionConfig::bwCu(
        static_cast<int>(net.weightedNodes().size()), 0.5);
    path::PathExtractor ex(net, cfg);

    // Profiled workload: the batched profiling entry point (bit-identical
    // to sequential tracing at any pool size).
    Rng rng(0x51CA7);
    std::vector<nn::Tensor> xs;
    xs.reserve(8);
    for (int s = 0; s < 8; ++s) {
        nn::Tensor x(nn::mapShape(3, 32, 32));
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform());
        xs.push_back(std::move(x));
    }
    std::vector<nn::Network::Record> recs;
    net.forwardBatch(xs, recs);
    const auto trace = ex.profileBatch(recs, &ptolemy::globalPool());

    const hw::HwConfig hc = hw::HwConfig::baseline();
    hw::Simulator sim(hc);

    auto stats = [&](const compiler::CompileOptions &opts) {
        const auto prog = compiler::Compiler(net, cfg, opts).compile(trace);
        const auto rep = sim.run(prog);
        HwProgramStats s;
        s.instrs = prog.size();
        s.codeBytes = prog.codeBytes();
        s.cycles = static_cast<std::size_t>(rep.cycles);
        s.executed = static_cast<std::size_t>(rep.instructionsExecuted);
        s.dramBytes = static_cast<std::size_t>(rep.dramBytes);
        return s;
    };

    HwBenchResult r;
    r.inferenceCycles = static_cast<std::size_t>(
        sim.run(compiler::Compiler::inferenceOnly(net)).cycles);

    compiler::CompileOptions all;
    r.all = stats(all);
    compiler::CompileOptions no_neuron = all;
    no_neuron.neuronPipelining = false;
    r.noNeuron = stats(no_neuron);
    compiler::CompileOptions no_layer = all;
    no_layer.layerPipelining = false;
    r.noLayer = stats(no_layer);
    compiler::CompileOptions no_recompute = all;
    no_recompute.recomputePsums = false;
    r.noRecompute = stats(no_recompute);
    compiler::CompileOptions none;
    none.neuronPipelining = false;
    none.layerPipelining = false;
    none.recomputePsums = false;
    r.none = stats(none);
    compiler::CompileOptions batch8 = all;
    batch8.batchSize = 8;
    r.batch8 = stats(batch8);

    const auto fp_store =
        compiler::Compiler(net, cfg, no_recompute).dramFootprint(trace);
    const auto fp_rec =
        compiler::Compiler(net, cfg, all).dramFootprint(trace);
    r.psumCountStore = fp_store.psumCount;
    r.maskBits = fp_store.maskBits;
    r.recomputePsums = fp_rec.recomputePsums;
    r.extraDramStore = hw::extraDramBytes(hc, fp_store.psumCount,
                                          fp_store.maskBits,
                                          fp_store.recomputePsums);
    r.extraDramRecompute = hw::extraDramBytes(hc, fp_rec.psumCount,
                                              fp_rec.maskBits,
                                              fp_rec.recomputePsums);

    const auto prog = compiler::Compiler(net, cfg, all).compile(trace);
    for (std::size_t i = 0; i < prog.size(); ++i) {
        switch (isa::opcodeClass(prog.instruction(i).op)) {
          case isa::InstrClass::Inference: ++r.mixInference; break;
          case isa::InstrClass::PathConstruction: ++r.mixPath; break;
          case isa::InstrClass::Classification: ++r.mixCls; break;
          default: ++r.mixOther; break;
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_micro.json";
    const double min_time = minMeasureTime();

    const auto conv = benchConv(min_time);
    const auto conv512 = benchConvAvx512(min_time);
    const auto ext = benchExtraction(min_time);
    const auto bwd = benchBackward(min_time);
    const auto trn = benchTrain(min_time);
    const auto atk = benchAttack(min_time);
    const auto det = benchDetect(min_time);
    const auto sim = benchSimilarity(min_time);
    const auto hwb = benchHw();

    const unsigned threads = ptolemy::globalPool().size();
    const unsigned cores = ptolemy::availableCpus();

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "FAIL: cannot open " << out_path << " for writing\n";
        return 1;
    }
    ptolemy::JsonWriter j(os);
    j.beginObject();
    j.kv("bench", "perf_smoke");
    j.key("env").beginObject();
    j.kv("threads", static_cast<std::size_t>(threads));
    j.kv("cores", static_cast<std::size_t>(cores));
    j.kv("simd", nn::simdModeName());
    j.endObject();
    j.key("conv_fwd").beginObject();
    j.kv("shape", "64->64ch 32x32 k3 s1 p1");
    j.kv("gemm_gflops", conv.gemmGflops);
    j.kv("gemm_gflops_trial_min", conv.gemmGflopsMin);
    j.kv("gemm_gflops_trial_max", conv.gemmGflopsMax);
    j.kv("naive_gflops", conv.naiveGflops);
    j.kv("speedup", conv.gemmGflops / conv.naiveGflops);
    if (conv512.measured) {
        j.kv("avx512_speedup", conv512.speedup);
        j.kv("avx512_speedup_trial_min", conv512.speedupMin);
        j.kv("avx512_speedup_trial_max", conv512.speedupMax);
    }
    j.endObject();
    j.key("extraction_bwcu").beginObject();
    j.kv("model", "3conv+2fc on 3x32x32, theta=0.5");
    j.kv("samples", ext.numSamples);
    j.kv("extractions_per_sec", ext.newPerSec);
    j.kv("batch_extractions_per_sec", ext.batchPerSec);
    j.kv("legacy_extractions_per_sec", ext.legacyPerSec);
    j.kv("speedup", ext.newPerSec / ext.legacyPerSec);
    j.kv("allocs_per_extract", ext.allocsPerExtract);
    j.kv("path_bits_last", ext.pathBits);
    j.endObject();
    j.key("backward").beginObject();
    j.kv("model", "3conv+2fc on 3x32x32, fwd+softmaxCE+bwd");
    j.kv("passes_per_sec", bwd.passesPerSec);
    j.kv("input_only_passes_per_sec", bwd.inputOnlyPassesPerSec);
    j.kv("input_grad_speedup", bwd.inputGradSpeedup);
    j.kv("allocs_per_pass", bwd.allocsPerPass);
    j.endObject();
    j.key("train").beginObject();
    j.kv("model", "3conv+2fc on 3x32x32, SGD batch 16");
    j.kv("samples", trn.numSamples);
    j.kv("samples_per_sec", trn.samplesPerSecPooled);
    j.kv("samples_per_sec_1thread", trn.samplesPerSecSerial);
    j.kv("speedup_vs_1thread",
         trn.samplesPerSecPooled / trn.samplesPerSecSerial);
    j.kv("grad_lanes", trn.gradLanes);
    j.kv("allocs_per_epoch", trn.allocsPerEpoch);
    j.endObject();
    j.key("attack").beginObject();
    j.kv("model", "3conv+2fc on 3x32x32, 64-sample chunk");
    j.kv("chunk", atk.chunk);
    j.kv("max_iters", static_cast<std::size_t>(atk.maxIters));
    j.kv("bim_serial_per_sec", atk.bimSerialPerSec);
    j.kv("bim_batch_per_sec", atk.bimBatchPerSec);
    j.kv("bim_speedup", atk.bimBatchPerSec / atk.bimSerialPerSec);
    j.kv("pgd_serial_per_sec", atk.pgdSerialPerSec);
    j.kv("pgd_batch_per_sec", atk.pgdBatchPerSec);
    j.kv("pgd_speedup", atk.pgdBatchPerSec / atk.pgdSerialPerSec);
    j.kv("allocs_per_batch_bim", atk.allocsPerBatchBim);
    j.kv("allocs_per_batch_pgd", atk.allocsPerBatchPgd);
    j.endObject();
    j.key("detect").beginObject();
    j.kv("model", "3conv+2fc on 3x32x32, BwCu theta=0.5, 64-request chunk");
    j.kv("chunk", det.chunk);
    j.kv("single_stream_per_sec", det.singleStreamPerSec);
    j.kv("batch_per_sec", det.batchPerSec);
    j.kv("legacy_per_sec", det.legacyPerSec);
    j.kv("batch_speedup_vs_single_stream",
         det.batchPerSec / det.singleStreamPerSec);
    j.kv("batch_speedup_vs_legacy", det.batchPerSec / det.legacyPerSec);
    {
        const double total = det.forwardUsPerDetect + det.extractUsPerDetect +
                             det.scoreUsPerDetect;
        j.kv("forward_us_per_detect", det.forwardUsPerDetect);
        j.kv("forward_us_per_detect_trial_min", det.forwardUsPerDetectMin);
        j.kv("forward_us_per_detect_trial_max", det.forwardUsPerDetectMax);
        j.kv("extract_us_per_detect", det.extractUsPerDetect);
        j.kv("score_us_per_detect", det.scoreUsPerDetect);
        j.kv("forward_frac", det.forwardUsPerDetect / total);
        j.kv("extract_frac", det.extractUsPerDetect / total);
        j.kv("score_frac", det.scoreUsPerDetect / total);
    }
    j.kv("allocs_per_batch", det.allocsPerBatch);
    j.endObject();
    j.key("similarity").beginObject();
    j.kv("densities", "path ~5% vs class path ~30%");
    for (const auto *w : {&sim.narrow, &sim.wide}) {
        j.key(w->bits == 4096 ? "w4096" : "w65536").beginObject();
        j.kv("bits", w->bits);
        j.kv("and_popcount_ops_per_sec", w->opsPerSec);
        j.kv("scalar_ops_per_sec", w->scalarOpsPerSec);
        j.kv("avx2_vs_scalar", w->opsPerSec / w->scalarOpsPerSec);
        j.kv("jaccard_ops_per_sec", w->jaccardPerSec);
        j.endObject();
    }
    j.endObject();
    // Deterministic co-design block: every value is an exact integer
    // (cycles, instruction counts, bytes) gated with zero noise band by
    // tools/bench_compare.py — see benchHw().
    j.key("hw").beginObject();
    j.kv("model", "3conv+2fc on 3x32x32, BwCu theta=0.5, baseline hw");
    j.kv("inference_cycles", hwb.inferenceCycles);
    {
        const struct
        {
            const char *name;
            const HwProgramStats *s;
        } progs[] = {{"opt_all", &hwb.all},
                     {"opt_no_neuron", &hwb.noNeuron},
                     {"opt_no_layer", &hwb.noLayer},
                     {"opt_no_recompute", &hwb.noRecompute},
                     {"opt_none", &hwb.none},
                     {"batch8", &hwb.batch8}};
        for (const auto &p : progs) {
            j.key(p.name).beginObject();
            j.kv("instrs", p.s->instrs);
            j.kv("code_bytes", p.s->codeBytes);
            j.kv("cycles", p.s->cycles);
            j.kv("instructions_executed", p.s->executed);
            j.kv("dram_bytes", p.s->dramBytes);
            j.endObject();
        }
    }
    j.key("dram").beginObject();
    j.kv("psum_count_store", hwb.psumCountStore);
    j.kv("mask_bits", hwb.maskBits);
    j.kv("recompute_psums", hwb.recomputePsums);
    j.kv("extra_bytes_store", hwb.extraDramStore);
    j.kv("extra_bytes_recompute", hwb.extraDramRecompute);
    j.endObject();
    j.key("instr_mix").beginObject();
    j.kv("inference", hwb.mixInference);
    j.kv("path_construction", hwb.mixPath);
    j.kv("classification", hwb.mixCls);
    j.kv("other", hwb.mixOther);
    j.endObject();
    j.endObject();
    j.endObject();
    os << "\n";
    os.close();
    if (!os) {
        std::cerr << "FAIL: error writing " << out_path << "\n";
        return 1;
    }

    std::cout << "env: " << threads << " threads on " << cores
              << " cores, simd " << nn::simdModeName() << "\n"
              << "conv fwd (64->64ch 32x32 k3): gemm " << conv.gemmGflops
              << " GFLOP/s implicit (trial spread " << conv.gemmGflopsMin
              << ".." << conv.gemmGflopsMax << "), naive " << conv.naiveGflops
              << " GFLOP/s (" << conv.gemmGflops / conv.naiveGflops
              << "x)\n";
    if (conv512.measured)
        std::cout << "conv fwd e2e shapes, 1 thread: avx512 tile "
                  << conv512.speedup << "x avx2 (pair spread "
                  << conv512.speedupMin << ".." << conv512.speedupMax
                  << ")\n";
    std::cout
              << "extraction BwCu: " << ext.newPerSec
              << " extractions/s single-stream, " << ext.batchPerSec
              << "/s batched (legacy " << ext.legacyPerSec << "/s, "
              << ext.newPerSec / ext.legacyPerSec << "x), "
              << ext.allocsPerExtract << " allocs per extract\n"
              << "backward: " << bwd.passesPerSec
              << " fwd+bwd passes/s, " << bwd.inputOnlyPassesPerSec
              << "/s input-only, conv input gradient "
              << bwd.inputGradSpeedup << "x the naive backward, "
              << bwd.allocsPerPass << " allocs per pass\n"
              << "train: " << trn.samplesPerSecPooled
              << " samples/s pooled, " << trn.samplesPerSecSerial
              << "/s on 1 thread ("
              << trn.samplesPerSecPooled / trn.samplesPerSecSerial
              << "x, " << trn.gradLanes << " grad lanes), "
              << trn.allocsPerEpoch << " allocs per epoch\n"
              << "attack (chunk " << atk.chunk << ", " << atk.maxIters
              << " iters): BIM " << atk.bimBatchPerSec
              << " attacks/s batched vs " << atk.bimSerialPerSec
              << "/s serial (" << atk.bimBatchPerSec / atk.bimSerialPerSec
              << "x), PGD " << atk.pgdBatchPerSec << " vs "
              << atk.pgdSerialPerSec << " ("
              << atk.pgdBatchPerSec / atk.pgdSerialPerSec << "x), "
              << atk.allocsPerBatchBim << "/" << atk.allocsPerBatchPgd
              << " allocs per batch\n"
              << "detect (chunk " << det.chunk << "): "
              << det.batchPerSec << " detections/s fused, "
              << det.singleStreamPerSec << "/s single-stream, "
              << det.legacyPerSec << "/s legacy per-sample score ("
              << det.batchPerSec / det.legacyPerSec << "x), "
              << det.allocsPerBatch << " allocs per batch\n"
              << "detect cost split: forward " << det.forwardUsPerDetect
              << " us, extract " << det.extractUsPerDetect << " us, score "
              << det.scoreUsPerDetect << " us per detection\n"
              << "similarity and+popcount: 4096 bits "
              << sim.narrow.opsPerSec << " ops/s (scalar "
              << sim.narrow.scalarOpsPerSec << ", "
              << sim.narrow.opsPerSec / sim.narrow.scalarOpsPerSec
              << "x), 65536 bits " << sim.wide.opsPerSec << " ops/s (scalar "
              << sim.wide.scalarOpsPerSec << ", "
              << sim.wide.opsPerSec / sim.wide.scalarOpsPerSec << "x)\n"
              << "hw co-design: inference " << hwb.inferenceCycles
              << " cycles, BwCu all-passes " << hwb.all.cycles
              << " cycles (" << hwb.all.instrs << " instrs), batch-8 "
              << hwb.batch8.cycles << " cycles ("
              << hwb.batch8.cycles / 8 << "/detection), no-passes "
              << hwb.none.cycles << " cycles\n"
              << "wrote " << out_path << "\n";
    if (ext.allocsPerExtract != 0) {
        std::cerr << "FAIL: steady-state extract loop performed "
                  << ext.allocsPerExtract << " heap allocations per call "
                  << "(expected 0)\n";
        return 1;
    }
    if (bwd.allocsPerPass != 0) {
        std::cerr << "FAIL: steady-state backward loop performed "
                  << bwd.allocsPerPass << " heap allocations per pass "
                  << "(expected 0)\n";
        return 1;
    }
    if (trn.allocsPerEpoch != 0) {
        std::cerr << "FAIL: steady-state parallel training loop performed "
                  << trn.allocsPerEpoch << " heap allocations per epoch "
                  << "(expected 0)\n";
        return 1;
    }
    if (atk.allocsPerBatchBim != 0 || atk.allocsPerBatchPgd != 0) {
        std::cerr << "FAIL: steady-state batched attack loop performed "
                  << atk.allocsPerBatchBim << " (BIM) / "
                  << atk.allocsPerBatchPgd << " (PGD) heap allocations "
                  << "per batch (expected 0)\n";
        return 1;
    }
    if (det.allocsPerBatch != 0) {
        std::cerr << "FAIL: steady-state detectBatch serving loop "
                  << "performed " << det.allocsPerBatch
                  << " heap allocations per batch (expected 0)\n";
        return 1;
    }
    return 0;
}
