/**
 * @file
 * End-to-end benchmark program for one workload.
 *
 * Builds the workload's world several times (set-up time is a metric,
 * reported as the median of the builds), checks that detectBatch
 * reproduces sequential detect() on the whole request pool, simulates
 * the compiled detection program, drives the workload and prints every
 * metric sample as one JSON object on the last line of stdout.
 * bench/e2e/run.py builds this program and turns its samples into
 * medians and quartiles.
 *
 * Usage: ptolemy_e2e --workload NAME [--seed N] [--seconds S] [--reps R]
 *                    [--setups K] [--trace 0|1] [--trace-file PATH]
 *                    [--smoke]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/detector_session.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

using namespace ptolemy;
using namespace e2e;

namespace
{

const Clock::time_point g_processStart = Clock::now();

int
usage()
{
    std::fprintf(stderr,
                 "usage: ptolemy_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--reps R] [--setups K] [--trace 0|1] "
                 "[--trace-file PATH] [--smoke]\nworkloads:");
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

void
printJson(const RunResult &r, const std::string &workload,
          std::uint64_t seed, const World &w)
{
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
                "\"attempted\":%zu,\"failed\":%zu,\"failures\":[",
                workload.c_str(), static_cast<unsigned long long>(seed),
                r.failures.empty() ? "true" : "false", r.attempted,
                r.failed);
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "", r.failures[i].c_str());
    std::printf("],\"env\":{\"pool_width\":%u,\"simd\":\"%s\","
                "\"nproc\":%u,\"requests\":%zu,\"clean_accuracy\":%.6g},"
                "\"metrics\":{",
                globalPool().size(), simdModeName(),
                std::thread::hardware_concurrency(), w.inputs.size(),
                w.cleanAccuracy);
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        std::printf("%s\"%s\":{\"unit\":\"%s\",\"samples\":[", i ? "," : "",
                    m.name.c_str(), m.unit.c_str());
        for (std::size_t k = 0; k < m.samples.size(); ++k)
            std::printf("%s%.17g", k ? "," : "", m.samples[k]);
        std::printf("]}");
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    int setups = 3;
    bool smoke = false;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--smoke") {
            smoke = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (a == "--workload")
            name = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v);
        else if (a == "--reps")
            opt.reps = std::atoi(v);
        else if (a == "--setups")
            setups = std::atoi(v);
        else if (a == "--trace")
            opt.trace = std::strcmp(v, "0") != 0;
        else if (a == "--trace-file")
            opt.traceFile = v;
        else
            return usage();
    }
    const WorkloadSpec *spec = findWorkload(name);
    if (!spec || opt.seconds <= 0.0 || opt.reps < 1 || setups < 1)
        return usage();

    RunResult res;
    std::unique_ptr<World> w;
    for (int i = 0; i < setups; ++i) {
        w.reset();
        const auto t0 = i == 0 ? g_processStart : Clock::now();
        w = buildWorld(*spec, seed, smoke);
        res.add("setup_s", "s", secondsBetween(t0, Clock::now()));
        res.add("setup.data_s", "s", w->times.data);
        res.add("setup.train_s", "s", w->times.train);
        res.add("setup.attack_s", "s", w->times.attack);
        res.add("setup.profile_s", "s", w->times.profile);
        res.add("setup.fit_s", "s", w->times.fit);
    }
    std::fprintf(stderr,
                 "%s: %zu requests (benign/BIM pairs), clean accuracy %.3f, "
                 "set-up %.2f s\n",
                 spec->name.c_str(), w->inputs.size(), w->cleanAccuracy,
                 w->times.total());
    if (w->inputs.empty()) {
        std::fprintf(stderr, "no successful BIM pairs; nothing to send\n");
        return 1;
    }

    // The reference every workload checks against: sequential detect().
    core::DetectorSession sess(*w->model);
    std::vector<core::Decision> ref;
    for (const auto &x : w->inputs)
        ref.push_back(sess.detect(x));
    std::vector<core::Decision> batch;
    sess.detectBatch(w->inputs, batch);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
        bad += !sameDecision(batch[i], ref[i]);
    if (bad)
        res.fail("detectBatch differs from sequential detect() on " +
                 std::to_string(bad) + " of " + std::to_string(ref.size()) +
                 " pool inputs");
    res.add("auc", "ratio", aucOf(batch, w->labels));

    const HwCost hw = simulateHw(*w);
    const auto &d = hw.detection;
    res.add("hw_detect_cycles", "cycles", static_cast<double>(d.cycles));
    res.add("hw.inference_cycles", "cycles",
            static_cast<double>(hw.inference.cycles));
    res.add("hw.dram_bytes", "bytes", static_cast<double>(d.dramBytes));
    for (int u = 0; u < hw::kNumFuncUnits; ++u)
        res.add(std::string("hw.busy.") +
                    hw::funcUnitName(static_cast<hw::FuncUnit>(u)),
                "cycles", static_cast<double>(d.unitBusyCycles[u]));
    res.add("hw.energy_pj", "pJ", d.energyPj);

    if (spec->serve())
        runServe(*w, ref, opt, seed, res);
    else
        runDetect(*w, ref, opt, res);

    printJson(res, spec->name, seed, *w);
    return 0;
}
