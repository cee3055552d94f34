/**
 * @file
 * Compiler tests: code generation for each variant, program sizes, the
 * three optimization passes, and end-to-end latency ordering on the
 * simulator (the qualitative content of the paper's Fig. 11).
 */

#include <gtest/gtest.h>

#include "common/test_models.hh"
#include "compiler/compiler.hh"
#include "hw/simulator.hh"
#include "path/extractor.hh"

namespace ptolemy::compiler
{
namespace
{

using path::ExtractionConfig;

/** Calibrate absolute thresholds like the offline profiling phase does:
 *  roughly 5% of compared values pass. */
ExtractionConfig
calibrated(ExtractionConfig cfg)
{
    auto &w = ptolemy::testing::world();
    std::vector<nn::Tensor> samples;
    for (int i = 0; i < 6; ++i)
        samples.push_back(w.dataset.train[i * 13].input);
    path::calibrateAbsoluteThresholds(w.net, cfg, samples, 0.05);
    return cfg;
}

/** Profiled average trace for a config on the shared trained model. */
path::ExtractionTrace
profiledTrace(const ExtractionConfig &cfg, int samples = 4)
{
    auto &w = ptolemy::testing::world();
    path::PathExtractor ex(w.net, cfg);
    std::vector<path::ExtractionTrace> traces;
    for (int i = 0; i < samples; ++i) {
        auto rec = w.net.forward(w.dataset.test[i * 7].input);
        path::ExtractionTrace t;
        ex.extract(rec, &t);
        traces.push_back(std::move(t));
    }
    return path::averageTraces(traces);
}

int
numWeighted()
{
    return static_cast<int>(
        ptolemy::testing::world().net.weightedNodes().size());
}

TEST(CompilerTest, InferenceOnlyProgramHasOneInfPerLayer)
{
    auto &w = ptolemy::testing::world();
    const auto prog = Compiler::inferenceOnly(w.net);
    EXPECT_EQ(prog.size(), w.net.weightedNodes().size() + 1); // + halt
    for (std::size_t i = 0; i + 1 < prog.size(); ++i)
        EXPECT_EQ(prog.instruction(i).op, isa::Opcode::Inf);
}

TEST(CompilerTest, ProgramsStaySmall)
{
    // Paper Sec. V-D: the largest program (BwCu) is ~30 static
    // instructions, under 100 bytes.
    auto &w = ptolemy::testing::world();
    const auto cfg = ExtractionConfig::bwCu(numWeighted(), 0.5);
    Compiler comp(w.net, cfg);
    const auto prog = comp.compile(profiledTrace(cfg));
    // The paper quotes ~30 static instructions for its 8-layer BwCu
    // program; ours adds a software-pipelined prologue/epilogue per
    // layer, staying within the same order of magnitude.
    EXPECT_LT(prog.size(), 30u * numWeighted());
    EXPECT_LT(prog.codeBytes(), 400u);
}

TEST(CompilerTest, BwCuUsesInfSpWithoutRecompute)
{
    auto &w = ptolemy::testing::world();
    const auto cfg = ExtractionConfig::bwCu(numWeighted(), 0.5);
    CompileOptions opts;
    opts.recomputePsums = false;
    Compiler comp(w.net, cfg, opts);
    const auto prog = comp.compile(profiledTrace(cfg));
    int infsp = 0, csps = 0;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        infsp += prog.instruction(i).op == isa::Opcode::InfSp;
        csps += prog.instruction(i).op == isa::Opcode::Csps;
    }
    EXPECT_EQ(infsp, numWeighted());
    EXPECT_EQ(csps, 0);
}

TEST(CompilerTest, RecomputeReplacesInfSpWithCsps)
{
    auto &w = ptolemy::testing::world();
    const auto cfg = ExtractionConfig::bwCu(numWeighted(), 0.5);
    CompileOptions opts;
    opts.recomputePsums = true;
    Compiler comp(w.net, cfg, opts);
    const auto prog = comp.compile(profiledTrace(cfg));
    int infsp = 0, csps = 0;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        infsp += prog.instruction(i).op == isa::Opcode::InfSp;
        csps += prog.instruction(i).op == isa::Opcode::Csps;
    }
    EXPECT_EQ(infsp, 0);
    EXPECT_GT(csps, 0);
}

TEST(CompilerTest, RecomputeShrinksDramFootprint)
{
    auto &w = ptolemy::testing::world();
    const auto cfg = ExtractionConfig::bwCu(numWeighted(), 0.5);
    const auto trace = profiledTrace(cfg);
    CompileOptions store_all;
    store_all.recomputePsums = false;
    CompileOptions recompute;
    recompute.recomputePsums = true;
    const auto fp_store = Compiler(w.net, cfg, store_all)
                              .dramFootprint(trace);
    const auto fp_rec = Compiler(w.net, cfg, recompute)
                            .dramFootprint(trace);
    EXPECT_GT(fp_store.psumCount, 0u);
    EXPECT_EQ(fp_rec.psumCount, 0u);
    EXPECT_LT(fp_rec.recomputePsums, fp_store.psumCount);
}

TEST(CompilerTest, AbsoluteVariantsStoreMasksNotPsums)
{
    auto &w = ptolemy::testing::world();
    const auto cfg = ExtractionConfig::bwAb(numWeighted(), 0.0);
    Compiler comp(w.net, cfg);
    const auto fp = comp.dramFootprint(profiledTrace(cfg));
    EXPECT_EQ(fp.psumCount, 0u);
    EXPECT_EQ(fp.recomputePsums, 0u);
    EXPECT_GT(fp.maskBits, 0u);
}

// ------------------------------------------------- latency orderings ----

std::uint64_t
cyclesFor(const ExtractionConfig &raw_cfg, CompileOptions opts = {})
{
    auto &w = ptolemy::testing::world();
    const auto cfg = calibrated(raw_cfg);
    Compiler comp(w.net, cfg, opts);
    const auto prog = comp.compile(profiledTrace(cfg));
    return hw::Simulator().run(prog).cycles;
}

std::uint64_t
inferenceCycles()
{
    auto &w = ptolemy::testing::world();
    return hw::Simulator().run(Compiler::inferenceOnly(w.net)).cycles;
}

TEST(CompilerTest, VariantLatencyOrderingMatchesPaper)
{
    // Fig. 11: BwCu >> Hybrid > BwAb > FwAb, all >= inference. The final
    // random-forest classification is a constant MCU tail that is <0.1%
    // at paper scale but comparable to our mini models' entire
    // inference, so the extraction-overhead claims are checked with the
    // classifier excluded (classifierOps = 0).
    const int n = numWeighted();
    CompileOptions no_cls;
    no_cls.classifierOps = 0;
    const auto inf = inferenceCycles();
    const auto bwcu = cyclesFor(ExtractionConfig::bwCu(n, 0.5), no_cls);
    const auto bwab = cyclesFor(ExtractionConfig::bwAb(n, 0.0), no_cls);
    const auto fwab = cyclesFor(ExtractionConfig::fwAb(n, 0.0), no_cls);
    const auto hybrid =
        cyclesFor(ExtractionConfig::hybrid(n, 0.5, 0.0), no_cls);

    EXPECT_GT(bwcu, hybrid);
    EXPECT_GT(hybrid, bwab);
    EXPECT_GE(bwab, fwab);
    EXPECT_GE(fwab, inf);
    // FwAb hides extraction behind inference: low single-digit overhead.
    EXPECT_LT(static_cast<double>(fwab) / inf, 1.3);
    // BwCu pays for serialized sorting: much larger overhead.
    EXPECT_GT(static_cast<double>(bwcu) / inf, 3.0);
}

TEST(CompilerTest, NeuronPipeliningReducesBwCuLatency)
{
    // The tiny test model extracts only a handful of important neurons
    // per layer, so exercise the scheduler with a profiled trace scaled
    // to realistic trip counts (hundreds of important outputs per layer,
    // as on AlexNet-class models).
    auto &w = ptolemy::testing::world();
    const int n = numWeighted();
    const auto cfg = ExtractionConfig::bwCu(n, 0.5);
    auto trace = profiledTrace(cfg);
    for (auto &lt : trace.layers) {
        lt.importantOut *= 50;
        lt.psumsConsidered *= 50;
        lt.sortedElems *= 50;
        lt.importantIn *= 50;
    }
    CompileOptions on, off;
    on.neuronPipelining = true;
    off.neuronPipelining = false;
    const auto c_on =
        hw::Simulator().run(Compiler(w.net, cfg, on).compile(trace)).cycles;
    const auto c_off =
        hw::Simulator().run(Compiler(w.net, cfg, off).compile(trace))
            .cycles;
    EXPECT_LT(c_on, c_off);
}

TEST(CompilerTest, LayerPipeliningNeverHurtsForward)
{
    const int n = numWeighted();
    auto cfg = ExtractionConfig::fwAb(n, 0.0);
    // Make the last layer cumulative (the Fig. 6 shape) so extraction has
    // real sorting work to hide.
    cfg.layers[n - 1].kind = path::ThresholdKind::Cumulative;
    CompileOptions on, off;
    on.layerPipelining = true;
    off.layerPipelining = false;
    EXPECT_LE(cyclesFor(cfg, on), cyclesFor(cfg, off));
}

TEST(CompilerTest, EarlyTerminationReducesCost)
{
    const int n = numWeighted();
    auto full = ExtractionConfig::bwCu(n, 0.5);
    auto last2 = ExtractionConfig::bwCu(n, 0.5);
    last2.selectFrom(n - 2);
    EXPECT_LT(cyclesFor(last2), cyclesFor(full));
}

TEST(CompilerTest, ThetaSweepIncreasesCost)
{
    // Table II: latency grows with theta.
    const int n = numWeighted();
    const auto lo = cyclesFor(ExtractionConfig::bwCu(n, 0.1));
    const auto mid = cyclesFor(ExtractionConfig::bwCu(n, 0.5));
    const auto hi = cyclesFor(ExtractionConfig::bwCu(n, 0.9));
    EXPECT_LT(lo, mid);
    EXPECT_LT(mid, hi);
}

TEST(Misuse, CompilerRejectsConfigOfOtherLayerCount)
{
    // compile() indexes the config by weighted-layer index, so a config
    // sized for another network is refused at construction, in every
    // build.
    auto net = ptolemy::testing::makeTinyNet(10);
    const int n = static_cast<int>(net.weightedNodes().size());
    for (int layers : {1, n - 1, n + 1})
        EXPECT_THROW(Compiler(net, ExtractionConfig::bwCu(layers)),
                     std::invalid_argument)
            << layers;
    EXPECT_NO_THROW(Compiler(net, ExtractionConfig::bwCu(n)));
}

} // namespace
} // namespace ptolemy::compiler
