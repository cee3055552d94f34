/**
 * @file
 * Serving-tier load generator and soak harness.
 *
 * Default mode sweeps offered QPS across {0.5x, 1x, 2x} of the
 * measured closed-loop capacity and records per-point p50/p95/p99
 * latency, the mean queued and in-batch time of a request, delivered
 * throughput and shed rate into a "serve" block of BENCH_micro.json
 * (spliced into the perf_smoke artifact when it already exists, so one
 * file carries the whole perf trajectory). The measured window is
 * asserted allocation-free: a warmed server + request slab must serve
 * an open-loop flood with zero heap allocations, the same steady-state
 * discipline perf_smoke enforces on the kernels below it. With
 * --shed-gate the 0.5x point must also shed at most 1% of its
 * requests. That gate needs CPU to spare: on an oversubscribed host a
 * descheduled dispatcher fills the queue well below capacity, so it
 * is opt-in.
 *
 * --soak mode is the CI robustness leg (run under ThreadSanitizer):
 * phase 1 offers comfortable load with no faults and requires ZERO
 * sheds, deadline misses and errors; phase 2 turns on the full
 * ServeFaultPlan campaign (stalled batches, poisoned requests, hot
 * swaps with injected load failures) under concurrent retrying clients
 * and requires conservation — every submitted request resolved to
 * exactly one typed status — plus bit-identical kOk decisions across
 * model swaps. An internal watchdog hard-exits if the tier deadlocks.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "core/fault_injection.hh"
#include "data/synthetic.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "telemetry/hub.hh"
#include "telemetry/sketch.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{
std::atomic<std::size_t> g_allocs{0};
} // namespace

// Count every heap allocation in the process so the measured serving
// window can be shown to perform none.
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
using serve::Clock;

nn::Network
makeServeNet()
{
    nn::Network net("serve_probe", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 12, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc", 12 * 4 * 4, 10));
    return net;
}

/** Trained net + fitted model + serving inputs for the generator. */
struct ServeWorld
{
    nn::Network net;
    core::DetectorModel model;
    std::vector<nn::Tensor> inputs;

    ServeWorld() : net(makeServeNet()), model(buildModel(net))
    {
        Rng rng(0xD37EC7);
        data::DatasetSpec spec;
        spec.numClasses = 10;
        spec.trainPerClass = 2;
        spec.testPerClass = 4;
        spec.seed = 43;
        const auto probe = data::makeSyntheticDataset(spec);
        for (const auto &s : probe.test) {
            inputs.push_back(s.input);
            nn::Tensor x = s.input;
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.08, 0.08));
            inputs.push_back(std::move(x));
        }
    }

    static core::DetectorModel
    buildModel(nn::Network &net)
    {
        data::DatasetSpec spec;
        spec.numClasses = 10;
        spec.trainPerClass = 20;
        spec.testPerClass = 4;
        spec.seed = 42;
        const auto ds = data::makeSyntheticDataset(spec);
        nn::heInit(net, 7);
        nn::TrainConfig tc;
        tc.epochs = 3;
        tc.learningRate = 0.02;
        nn::Trainer trainer(tc);
        trainer.train(net, ds.train);

        core::DetectorBuilder bld(
            net,
            path::ExtractionConfig::bwCu(
                static_cast<int>(net.weightedNodes().size()), 0.5),
            spec.numClasses);
        bld.profileClassPaths(ds.train, 12);
        Rng rng(0x51AB);
        std::vector<nn::Tensor> clean, noisy;
        for (const auto &s : ds.test) {
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
    }
};

/** Closed-loop fused-batch capacity: the ceiling the sweep is scaled
 *  against. */
double
measureCapacity(ServeWorld &w)
{
    core::DetectorSession sess(w.model);
    std::vector<const nn::Tensor *> xptrs;
    for (const auto &x : w.inputs)
        xptrs.push_back(&x);
    std::vector<core::Decision> out(xptrs.size());
    const std::span<const nn::Tensor *const> xs(xptrs.data(),
                                                xptrs.size());
    const std::span<core::Decision> os(out.data(), out.size());
    sess.detectBatch(xs, os); // warm
    sess.detectBatch(xs, os);
    const auto start = Clock::now();
    std::size_t served = 0;
    double elapsed = 0.0;
    do {
        sess.detectBatch(xs, os);
        served += xptrs.size();
        elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < 0.3);
    return static_cast<double>(served) / elapsed;
}

/** Largest shed fraction the sweep accepts at 0.5x capacity. */
constexpr double kHalfLoadShedBudget = 0.01;

struct SweepPoint
{
    double offeredQps = 0.0;
    std::size_t submitted = 0;
    std::size_t ok = 0;
    std::size_t shedCount = 0;
    double throughputPerSec = 0.0;
    double shedRate = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0; ///< µs, kOk only
    /** Mean µs of a kOk request's two stages: submittedAt ->
     *  dispatchedAt (queued) and dispatchedAt -> completedAt (in its
     *  batch). They sum to the mean latency. */
    double queueUsMean = 0.0, batchUsMean = 0.0;
    std::size_t allocs = 0; ///< heap allocations in the measured window
};

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    const auto k = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(),
                     v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

/**
 * One open-loop point: pace @p total submissions at @p qps through a
 * reused request slab (a slot is re-armed only after its previous
 * flight resolved, so in-flight never exceeds the slab). The generator
 * sleeps to each send time rather than spinning, so on a shared core
 * it never starves the dispatcher. The measured window must be
 * allocation-free.
 */
SweepPoint
runPoint(serve::DetectorServer &server, ServeWorld &w, double qps,
         std::size_t total, std::vector<serve::ServeRequest> &slab,
         std::vector<double> &latencies)
{
    SweepPoint pt;
    pt.offeredQps = qps;
    latencies.clear();

    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / qps));
    double queue_us = 0.0, batch_us = 0.0;
    auto harvest = [&](serve::ServeRequest &r) {
        if (server.wait(r) != serve::RequestStatus::kOk)
            return;
        latencies.push_back(r.latencyMicros());
        queue_us += micros(r.dispatchedAt - r.submittedAt);
        batch_us += micros(r.completedAt - r.dispatchedAt);
    };
    const auto t0 = Clock::now();
    auto next = t0;
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < total; ++k) {
        std::this_thread::sleep_until(next); // returns at once if overdue
        next += interval;

        serve::ServeRequest &r = slab[k % slab.size()];
        // Harvest the slot's previous flight before re-arming it.
        if (k >= slab.size())
            harvest(r);
        r.reset(w.inputs[k % w.inputs.size()]);
        ++pt.submitted;
        server.submit(r); // shed resolves synchronously; harvested above
    }
    // Drain the tail.
    const std::size_t tail = std::min(slab.size(), total);
    for (std::size_t i = 0; i < tail; ++i)
        harvest(slab[(total - tail + i) % slab.size()]);
    pt.allocs = g_allocs.load(std::memory_order_relaxed) - before;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();

    pt.ok = latencies.size();
    pt.shedCount = pt.submitted - pt.ok; // no deadlines/faults in sweep
    pt.throughputPerSec = static_cast<double>(pt.ok) / elapsed;
    pt.shedRate = static_cast<double>(pt.shedCount) /
                  static_cast<double>(pt.submitted);
    pt.p50 = percentile(latencies, 0.50);
    pt.p95 = percentile(latencies, 0.95);
    pt.p99 = percentile(latencies, 0.99);
    if (pt.ok != 0) {
        pt.queueUsMean = queue_us / static_cast<double>(pt.ok);
        pt.batchUsMean = batch_us / static_cast<double>(pt.ok);
    }
    return pt;
}

/** Hub sized for the serve probe (the configuration the README's
 *  sizing example describes). */
telemetry::TelemetryConfig
probeTelemetryConfig()
{
    telemetry::TelemetryConfig tcfg;
    tcfg.numClasses = 10;
    tcfg.slots = 8; // ≥ any pool width used here
    tcfg.windowRecords = 1u << 30; // manual seal
    return tcfg;
}

/** Closed-loop detectBatch capacity over @p secs (the A/B primitive
 *  for the telemetry overhead ratio). */
double
capacityFor(core::DetectorSession &sess,
            std::span<const nn::Tensor *const> xs,
            std::span<core::Decision> os, double secs)
{
    const auto start = Clock::now();
    std::size_t served = 0;
    double elapsed = 0.0;
    do {
        sess.detectBatch(xs, os);
        served += xs.size();
        elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < secs);
    return static_cast<double>(served) / elapsed;
}

/**
 * Telemetry micro-bench: end-to-end ingest overhead on the serve probe
 * (interleaved attached/plain A/B so both sides share cache and
 * frequency state), direct ingest + window-seal cost, and the
 * error-bound-derived memory footprint. The measured steady state is
 * asserted allocation-free, and the attached/plain ratio is asserted
 * within the ≤2% ingest budget. Appends the "telemetry" block to
 * @p blocks; returns non-zero on any assertion failure.
 */
int
runTelemetryBench(ServeWorld &w, std::ostringstream &blocks)
{
    telemetry::TelemetryConfig tcfg = probeTelemetryConfig();
    telemetry::TelemetryHub hub(tcfg);
    core::DetectorSession sess(w.model);
    std::vector<const nn::Tensor *> xptrs;
    for (const auto &x : w.inputs)
        xptrs.push_back(&x);
    std::vector<core::Decision> out(xptrs.size());
    const std::span<const nn::Tensor *const> xs(xptrs.data(),
                                                xptrs.size());
    const std::span<core::Decision> os(out.data(), out.size());

    // Warm both configurations.
    sess.attachTelemetry(&hub);
    sess.detectBatch(xs, os);
    sess.attachTelemetry(nullptr);
    sess.detectBatch(xs, os);

    // Interleaved A/B, best-of-5 pairs: noise only ever lowers a
    // measured capacity, so the max per-pair ratio is the cleanest
    // estimate of the true attached/plain throughput ratio.
    double ratio = 0.0;
    double attached_best = 0.0, plain_best = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
        sess.attachTelemetry(&hub);
        const double attached = capacityFor(sess, xs, os, 0.12);
        sess.attachTelemetry(nullptr);
        const double plain = capacityFor(sess, xs, os, 0.12);
        ratio = std::max(ratio, attached / plain);
        attached_best = std::max(attached_best, attached);
        plain_best = std::max(plain_best, plain);
    }
    hub.sealWindow();

    // Direct ingest cost: one shard, a path at realistic density (the
    // extraction layout's bit space, every 4th bit set).
    const std::size_t pathBits =
        w.model.extractor().layout().totalBits();
    BitVector path(pathBits);
    for (std::size_t b = 0; b < pathBits; b += 4)
        path.set(b);
    std::size_t ingested = 0;
    double ingest_secs = 0.0;
    {
        const auto start = Clock::now();
        do {
            for (int i = 0; i < 1000; ++i)
                hub.ingest(0, 0.25 + 0.0001 * (i % 100),
                           static_cast<std::size_t>(i % 10), false, 0.2,
                           &path);
            ingested += 1000;
            ingest_secs = std::chrono::duration<double>(Clock::now() -
                                                        start)
                              .count();
        } while (ingest_secs < 0.2);
    }
    const double ingest_ns =
        1e9 * ingest_secs / static_cast<double>(ingested);
    hub.sealWindow();

    // Window seal cost + the zero-allocation contract over full
    // ingest->seal->read cycles (warmed above; reference captured so
    // the proposal path runs too).
    hub.captureReference();
    std::vector<telemetry::DriftEvent> evs;
    evs.reserve(tcfg.eventRing);
    telemetry::WindowSummary ws;
    telemetry::ThresholdProposal prop;
    const std::size_t kWindow = 1024;
    double seal_secs = 0.0;
    std::size_t sealed = 0;
    const std::size_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < kWindow; ++i)
            hub.ingest(static_cast<unsigned>(i % 8),
                       0.25 + 0.0001 * (i % 100),
                       static_cast<std::size_t>(i % 10), false, 0.2,
                       &path);
        const auto s0 = Clock::now();
        hub.sealWindow();
        seal_secs +=
            std::chrono::duration<double>(Clock::now() - s0).count();
        ++sealed;
        hub.driftEvents(evs);
        hub.latestWindow(ws);
        hub.proposeThreshold(prop);
    }
    const std::size_t alloc_count =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    const double seal_us =
        1e6 * seal_secs / static_cast<double>(sealed);

    const telemetry::CountMinSketch probe(tcfg.bound, tcfg.seed);
    std::printf(
        "telemetry: attached_vs_plain %.4f (attached %.0f/s, plain "
        "%.0f/s), ingest %.0f ns/record, seal %.1f us/window, sketch "
        "%zux%zu = %zu bytes, hub %zu bytes, allocs %zu\n",
        ratio, attached_best, plain_best, ingest_ns, seal_us,
        probe.depth(), probe.width(), probe.memoryBytes(),
        hub.memoryBytes(), alloc_count);

    blocks << "  \"telemetry\": {\n"
           << "    \"epsilon\": " << tcfg.bound.epsilon << ",\n"
           << "    \"delta\": " << tcfg.bound.delta << ",\n"
           << "    \"attached_vs_plain_speedup\": " << ratio << ",\n"
           << "    \"ingest_per_sec\": "
           << (1e9 / (ingest_ns > 0.0 ? ingest_ns : 1.0)) << ",\n"
           << "    \"ingest_ns_per_record\": " << ingest_ns << ",\n"
           << "    \"seal_us_per_window\": " << seal_us << ",\n"
           << "    \"allocs_per_window\": "
           << (alloc_count / (sealed ? sealed : 1)) << ",\n"
           << "    \"mem\": { \"sketch_width\": " << probe.width()
           << ", \"sketch_depth\": " << probe.depth()
           << ", \"sketch_bytes\": " << probe.memoryBytes()
           << ", \"hub_bytes\": " << hub.memoryBytes() << " }\n"
           << "  }";

    int rc = 0;
    if (alloc_count != 0) {
        std::cerr << "FAIL: telemetry steady state performed "
                  << alloc_count << " heap allocations (expected 0)\n";
        rc = 1;
    }
    if (ratio < 0.98) {
        std::cerr << "FAIL: telemetry ingest costs "
                  << 100.0 * (1.0 - ratio)
                  << "% of serve-probe throughput (budget 2%)\n";
        rc = 1;
    }
    return rc;
}

/**
 * Splice a "serve" JSON block into @p out_path: appended as a last
 * member when the perf_smoke artifact already exists, else written as
 * a fresh document.
 */
bool
writeServeBlock(const std::string &out_path, const std::string &block)
{
    std::string existing;
    {
        std::ifstream is(out_path);
        if (is)
            existing.assign(std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>());
    }
    std::string prefix;
    const std::size_t close = existing.rfind('}');
    if (close != std::string::npos && existing.find('{') < close) {
        prefix = existing.substr(0, close);
        while (!prefix.empty() &&
               (prefix.back() == '\n' || prefix.back() == ' '))
            prefix.pop_back();
        prefix += ",\n";
    } else {
        prefix = "{\n"; // fresh document (sweep ran before perf_smoke)
    }
    std::ofstream os(out_path, std::ios::trunc);
    if (!os)
        return false;
    os << prefix << block << "\n}\n";
    return os.good();
}

int
runSweep(ServeWorld &w, const std::string &out_path, bool shed_gate)
{
#ifdef __linux__
    // The generator paces by sleeping; a 1 ns timer slack (default
    // 50 us) keeps those sleeps from ending late.
    prctl(PR_SET_TIMERSLACK, 1UL);
#endif
    const double capacity = measureCapacity(w);
    std::printf("closed-loop capacity: %.0f detections/s\n", capacity);

    serve::ServeConfig cfg;
    cfg.queueDepth = 64;
    cfg.maxBatch = 16;
    serve::DetectorServer server(w.model, cfg);

    // Request slab, reused across every point. The warm-up pass below
    // routes every slot through a served decision once so its Decision
    // buffers reach steady-state capacity before anything is measured.
    std::vector<serve::ServeRequest> slab(2 * cfg.queueDepth);
    std::vector<double> latencies;
    latencies.reserve(1 << 16);
    for (std::size_t i = 0; i < slab.size(); ++i) {
        slab[i].reset(w.inputs[i % w.inputs.size()]);
        server.submit(slab[i]);
        if (server.wait(slab[i]) != serve::RequestStatus::kOk) {
            std::cerr << "FAIL: warm-up request " << i << " ended "
                      << requestStatusName(slab[i].status.load()) << "\n";
            return 1;
        }
    }
    // Closed-loop warm-up only ever formed single-request batches;
    // flood a few full bursts so every batch-width-dependent buffer
    // (the dispatcher's maxBatch result slots included) reaches its
    // high-water mark too.
    for (int round = 0; round < 3; ++round) {
        for (auto &r : slab) {
            r.reset(w.inputs[r.seq % w.inputs.size()]);
            server.submit(r);
        }
        for (auto &r : slab)
            server.wait(r);
    }

    const double fractions[] = {0.5, 1.0, 2.0};
    std::vector<SweepPoint> points;
    for (const double f : fractions) {
        const double qps = f * capacity;
        const auto total = static_cast<std::size_t>(
            std::clamp(qps * 0.4, 200.0, 6000.0));
        points.push_back(runPoint(server, w, qps, total, slab, latencies));
        const auto &pt = points.back();
        std::printf("offered %.0f/s (%.1fx): served %.0f/s, shed %.1f%%, "
                    "p50 %.0fus p95 %.0fus p99 %.0fus (mean queue "
                    "%.1fus + batch %.1fus), allocs %zu\n",
                    pt.offeredQps, f, pt.throughputPerSec,
                    100.0 * pt.shedRate, pt.p50, pt.p95, pt.p99,
                    pt.queueUsMean, pt.batchUsMean, pt.allocs);
    }
    server.stop();
    const auto st = server.stats();
    if (!st.conserved()) {
        std::cerr << "FAIL: request conservation broken (submitted="
                  << st.submitted << " resolved=" << st.resolved()
                  << ")\n";
        return 1;
    }

    std::size_t alloc_total = 0;
    for (const auto &pt : points)
        alloc_total += pt.allocs;

    std::ostringstream block;
    block << "  \"serve\": {\n"
          << "    \"model\": \"2conv+1fc on 3x16x16, BwCu theta=0.5\",\n"
          << "    \"queue_depth\": " << cfg.queueDepth << ",\n"
          << "    \"max_batch\": " << cfg.maxBatch << ",\n"
          << "    \"capacity_per_sec\": " << capacity << ",\n"
          << "    \"steady_state_allocs\": " << alloc_total << ",\n"
          << "    \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &pt = points[i];
        block << "      { \"offered_qps\": " << pt.offeredQps
              << ", \"submitted\": " << pt.submitted
              << ", \"throughput_per_sec\": " << pt.throughputPerSec
              << ", \"shed_rate\": " << pt.shedRate
              << ", \"p50_us\": " << pt.p50
              << ", \"p95_us\": " << pt.p95
              << ", \"p99_us\": " << pt.p99
              << ", \"queue_us_mean\": " << pt.queueUsMean
              << ", \"batch_us_mean\": " << pt.batchUsMean << " }"
              << (i + 1 < points.size() ? "," : "") << "\n";
    }
    block << "    ]\n  },\n";

    const int telemetry_rc = runTelemetryBench(w, block);

    if (!writeServeBlock(out_path, block.str())) {
        std::cerr << "FAIL: cannot write " << out_path << "\n";
        return 1;
    }
    std::printf("wrote serve + telemetry blocks to %s\n",
                out_path.c_str());

    if (alloc_total != 0) {
        std::cerr << "FAIL: measured serving windows performed "
                  << alloc_total << " heap allocations (expected 0)\n";
        return 1;
    }
    // Half of capacity is comfortable load: the tier must serve it,
    // not shed it.
    if (shed_gate && points.front().shedRate > kHalfLoadShedBudget) {
        std::cerr << "FAIL: the 0.5x point shed "
                  << 100.0 * points.front().shedRate << "% (budget "
                  << 100.0 * kHalfLoadShedBudget << "%)\n";
        return 1;
    }
    return telemetry_rc;
}

/**
 * Soak: shed-free tier under comfortable load, then the full fault
 * campaign under concurrent retrying clients. Run under TSan in CI.
 */
int
runSoak(ServeWorld &w)
{
    // Watchdog: the whole point of the soak is that nothing ever
    // hangs; if it does, fail loudly instead of eating the CI timeout.
    std::atomic<bool> done{false};
    std::thread watchdog([&] {
        const auto deadline =
            Clock::now() + std::chrono::seconds(240);
        while (!done.load(std::memory_order_acquire)) {
            if (Clock::now() > deadline) {
                std::fprintf(stderr,
                             "FAIL: soak watchdog fired (serving tier "
                             "hung)\n");
                std::_Exit(7);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });

    // Reference decisions: every kOk must match these bitwise, before,
    // during and after hot swaps (the swap artifact is this same
    // model).
    std::vector<core::Decision> ref;
    {
        core::DetectorSession sess(w.model);
        for (const auto &x : w.inputs)
            ref.push_back(sess.detect(x));
    }
    const std::string swap_path = "serve_soak_swap.model";
    if (!w.model.save(swap_path)) {
        std::cerr << "FAIL: cannot save swap artifact\n";
        return 1;
    }
    int failures = 0;
    auto check_ok_decision = [&](const serve::ServeRequest &r,
                                 std::size_t input_idx) {
        const auto &a = r.decision;
        const auto &b = ref[input_idx];
        if (a.score != b.score || a.predictedClass != b.predictedClass ||
            a.adversarial != b.adversarial) {
            ++failures;
            std::cerr << "FAIL: kOk decision diverged on input "
                      << input_idx << "\n";
        }
    };

    // ---- Phase 1: comfortable load, no faults: zero sheds, zero
    // deadline misses, zero errors.
    {
        serve::ServeConfig cfg;
        cfg.queueDepth = 64;
        cfg.maxBatch = 8;
        serve::DetectorServer server(w.model, cfg);
        serve::ServeRequest req;
        for (int k = 0; k < 300; ++k) {
            const std::size_t idx = k % w.inputs.size();
            req.reset(w.inputs[idx]);
            server.submit(req);
            if (server.wait(req) != serve::RequestStatus::kOk) {
                ++failures;
                std::cerr << "FAIL: shed-free phase request " << k
                          << " ended "
                          << requestStatusName(req.status.load()) << "\n";
            } else {
                check_ok_decision(req, idx);
            }
        }
        server.stop();
        const auto st = server.stats();
        if (st.shed != 0 || st.deadlineExceeded != 0 || st.errors != 0 ||
            !st.conserved()) {
            ++failures;
            std::cerr << "FAIL: shed-free phase counters: shed="
                      << st.shed << " ddl=" << st.deadlineExceeded
                      << " err=" << st.errors << " conserved="
                      << st.conserved() << "\n";
        }
        std::printf("soak phase 1: 300/300 ok, shed-free\n");
    }

    // ---- Phase 2: full fault campaign under concurrent clients.
    {
        core::ServeFaultPlan plan;
        plan.delayEveryNthBatch = 4;
        plan.batchDelayMicros = 2000;
        plan.poisonEveryNthRequest = 9;
        serve::ServeConfig cfg;
        cfg.queueDepth = 8;
        cfg.maxBatch = 4;
        cfg.defaultDeadlineMicros = 100000;
        serve::DetectorServer server(w.model, cfg, &plan);

        constexpr int kClients = 2;
        constexpr int kPerClient = 200;
        std::atomic<std::size_t> resolved{0}, ok{0};
        auto client = [&](int tid) {
            serve::RetryClient::Options ropt;
            ropt.maxAttempts = 3;
            ropt.initialBackoffMicros = 200;
            serve::RetryClient rc(server, ropt);
            serve::ServeRequest req;
            for (int i = 0; i < kPerClient; ++i) {
                const std::size_t idx =
                    static_cast<std::size_t>(tid + i) % w.inputs.size();
                const serve::RequestStatus s =
                    rc.detect(req, w.inputs[idx]);
                if (!serve::isResolved(s)) {
                    ++failures;
                    std::cerr << "FAIL: campaign request not resolved\n";
                    continue;
                }
                resolved.fetch_add(1);
                if (s == serve::RequestStatus::kOk) {
                    ok.fetch_add(1);
                    check_ok_decision(req, idx);
                }
            }
        };
        std::vector<std::thread> clients;
        for (int t = 0; t < kClients; ++t)
            clients.emplace_back(client, t);
        for (int s = 0; s < 6; ++s) {
            if (s % 3 == 2)
                plan.failNextSwaps.store(1);
            server.swapModel(swap_path);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        for (auto &t : clients)
            t.join();
        server.stop();

        const auto st = server.stats();
        if (!st.conserved()) {
            ++failures;
            std::cerr << "FAIL: campaign conservation broken (submitted="
                      << st.submitted << " resolved=" << st.resolved()
                      << ")\n";
        }
        if (resolved.load() !=
            static_cast<std::size_t>(kClients) * kPerClient) {
            ++failures;
            std::cerr << "FAIL: lost client requests\n";
        }
        if (ok.load() == 0) {
            ++failures;
            std::cerr << "FAIL: campaign served nothing\n";
        }
        std::printf(
            "soak phase 2: %zu/%d resolved (%zu ok), server: ok=%llu "
            "shed=%llu ddl=%llu err=%llu swaps=%llu failed_swaps=%llu "
            "batches=%llu | injected: delays=%zu poisons=%zu "
            "swap_faults=%zu\n",
            resolved.load(), kClients * kPerClient, ok.load(),
            static_cast<unsigned long long>(st.ok),
            static_cast<unsigned long long>(st.shed),
            static_cast<unsigned long long>(st.deadlineExceeded),
            static_cast<unsigned long long>(st.errors),
            static_cast<unsigned long long>(st.swaps),
            static_cast<unsigned long long>(st.failedSwaps),
            static_cast<unsigned long long>(st.batches),
            plan.delaysInjected.load(), plan.poisonsInjected.load(),
            plan.swapFaultsInjected.load());
    }
    std::remove(swap_path.c_str());

    // ---- Phase 3: telemetry drift semantics against live traffic. An
    // unshifted soak (the same clean/lightly-perturbed mix the model
    // was profiled on) must raise NO drift event; an injected
    // score-distribution shift (heavy perturbation, which lands in the
    // adversarial score mode the forest was fitted on) must raise one.
    {
        telemetry::TelemetryConfig tcfg;
        tcfg.numClasses = 10;
        tcfg.slots = 8;
        tcfg.windowRecords = 1u << 30; // sealed manually per phase
        telemetry::TelemetryHub hub(tcfg);

        serve::ServeConfig cfg;
        cfg.queueDepth = 64;
        cfg.maxBatch = 8;
        cfg.telemetry = &hub;

        // One server per phase: sealing and reference capture belong
        // to the thread that drives the session between batches, and
        // the dispatcher calls maybeSeal() after it resolves a batch,
        // so this thread may seal only once stop() has joined it.
        auto offer = [&](const std::vector<nn::Tensor> &traffic,
                         int rounds) {
            serve::DetectorServer server(w.model, cfg);
            serve::ServeRequest req;
            std::size_t served = 0;
            for (int k = 0; k < rounds; ++k) {
                req.reset(traffic[static_cast<std::size_t>(k) %
                                  traffic.size()]);
                server.submit(req);
                if (server.wait(req) == serve::RequestStatus::kOk)
                    ++served;
            }
            server.stop();
            return served;
        };

        // Shifted traffic: the same probe inputs under ±0.5 noise.
        std::vector<nn::Tensor> shifted;
        {
            Rng rng(0xD51F7);
            for (const auto &x0 : w.inputs) {
                nn::Tensor x = x0;
                for (std::size_t e = 0; e < x.size(); ++e)
                    x[e] += static_cast<float>(rng.uniform(-0.5, 0.5));
                shifted.push_back(std::move(x));
            }
        }

        offer(w.inputs, 200); // reference profile from benign traffic
        hub.captureReference();

        offer(w.inputs, 200); // unshifted window
        hub.sealWindow();
        const std::uint64_t quiet = hub.driftEventCount();
        if (quiet != 0) {
            ++failures;
            std::cerr << "FAIL: unshifted soak raised " << quiet
                      << " drift event(s)\n";
        }

        offer(shifted, 200); // injected distribution shift
        hub.sealWindow();
        const std::uint64_t after = hub.driftEventCount();
        if (after == quiet) {
            ++failures;
            std::cerr << "FAIL: injected score-distribution shift "
                         "raised no drift event\n";
        }

        telemetry::WindowSummary ws;
        hub.latestWindow(ws);
        std::printf("soak phase 3: drift quiet on %llu unshifted, "
                    "fired on shift (events=%llu, score_l1=%.3f, "
                    "divergence_l1=%.3f)\n",
                    static_cast<unsigned long long>(
                        hub.windowsSealed() >= 2 ? 200 : 0),
                    static_cast<unsigned long long>(after),
                    ws.scoreL1VsReference, ws.divergenceL1VsReference);
    }

    done.store(true, std::memory_order_release);
    watchdog.join();
    if (failures) {
        std::cerr << "FAIL: soak found " << failures << " violations\n";
        return 1;
    }
    std::printf("soak passed\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_micro.json";
    bool soak = false, shed_gate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--soak") == 0)
            soak = true;
        else if (std::strcmp(argv[i], "--shed-gate") == 0)
            shed_gate = true;
        else
            out_path = argv[i];
    }

    ServeWorld w;
    return soak ? runSoak(w) : runSweep(w, out_path, shed_gate);
}
