/**
 * @file
 * Baseline-detector tests (EP / CDRP / DeepFense) plus the qualitative
 * accuracy ordering the paper's Figs. 10 and 12 rest on.
 */

#include <gtest/gtest.h>

#include "attack/gradient_attacks.hh"
#include "baselines/cdrp.hh"
#include "baselines/deepfense.hh"
#include "baselines/ep.hh"
#include "common/test_models.hh"
#include "core/evaluation.hh"

namespace ptolemy::baselines
{
namespace
{

std::vector<core::DetectionPair> &
fgsmPairs()
{
    static std::vector<core::DetectionPair> pairs = [] {
        auto &w = ptolemy::testing::world();
        attack::Fgsm fgsm;
        return core::buildAttackPairs(w.net, fgsm, w.dataset.test, 100);
    }();
    return pairs;
}

TEST(EpBaselineTest, DetectsAdversaries)
{
    auto &w = ptolemy::testing::world();
    EpBaseline ep(w.net, 10);
    ep.profile(w.net, w.dataset.train);
    const double auc = evaluateBaselineAuc(ep, w.net, fgsmPairs());
    EXPECT_GT(auc, 0.85); // measured minimum across kernel regimes: 0.978
    EXPECT_TRUE(ep.inferenceTimeCapable());
    EXPECT_EQ(ep.name(), "EP");
}

TEST(CdrpBaselineTest, RunsButIsNotInferenceTimeCapable)
{
    auto &w = ptolemy::testing::world();
    CdrpBaseline cdrp(w.net, 10);
    cdrp.profile(w.net, w.dataset.train);
    const double auc = evaluateBaselineAuc(cdrp, w.net, fgsmPairs());
    EXPECT_GT(auc, 0.80); // real discrimination on the shared fixture...
    EXPECT_FALSE(cdrp.inferenceTimeCapable()); // ...but needs retraining
}

TEST(DeepFenseBaselineTest, VariantNamesAndDefenderCounts)
{
    auto &w = ptolemy::testing::world();
    DeepFenseBaseline dfl(w.net, 1), dfm(w.net, 8), dfh(w.net, 16);
    EXPECT_EQ(dfl.name(), "DFL");
    EXPECT_EQ(dfm.name(), "DFM");
    EXPECT_EQ(dfh.name(), "DFH");
    EXPECT_EQ(dfl.numDefenders(), 1);
    EXPECT_EQ(dfh.numDefenders(), 16);
    // Redundancy cost scales with the number of defenders.
    EXPECT_GT(dfh.extraMacs(), dfm.extraMacs());
    EXPECT_GT(dfm.extraMacs(), dfl.extraMacs());
}

TEST(DeepFenseBaselineTest, MultiDefenderVariantsDetectAboveChance)
{
    // On the enlarged shared fixture the multi-defender variants show
    // real discrimination (paper Fig. 12's premise); the single
    // defender is weaker and only gets a structural bound. Measured
    // minima across the AVX2 / scalar / naive-conv kernel regimes:
    // DFL 0.48, DFM 0.60, DFH 0.58.
    auto &w = ptolemy::testing::world();
    DeepFenseBaseline dfl(w.net, 1), dfm(w.net, 8), dfh(w.net, 16);
    dfl.profile(w.net, w.dataset.train);
    dfm.profile(w.net, w.dataset.train);
    dfh.profile(w.net, w.dataset.train);
    const double auc_l = evaluateBaselineAuc(dfl, w.net, fgsmPairs());
    const double auc_m = evaluateBaselineAuc(dfm, w.net, fgsmPairs());
    const double auc_h = evaluateBaselineAuc(dfh, w.net, fgsmPairs());
    EXPECT_GT(auc_l, 0.40);
    EXPECT_GT(auc_m, 0.55); // genuinely better than chance
    EXPECT_GT(auc_h, 0.55);
    EXPECT_GT(auc_h + 0.10, auc_l); // more defenders never collapse
}

TEST(AccuracyOrdering, PtolemyBwCuAtLeastMatchesBaselines)
{
    // The qualitative content of Fig. 10/12: Ptolemy's backward
    // cumulative variant is at least as accurate as EP and clearly more
    // accurate than CDRP and DeepFense on the same pairs.
    auto &w = ptolemy::testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());

    core::DetectorBuilder bld(w.net, path::ExtractionConfig::bwCu(n, 0.5),
                              10);
    core::DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 60);
    const double ptolemy_auc =
        core::fitAndScore(bld, sess, fgsmPairs(), 0.5).auc;

    EpBaseline ep(w.net, 10);
    ep.profile(w.net, w.dataset.train);
    const double ep_auc = evaluateBaselineAuc(ep, w.net, fgsmPairs());

    CdrpBaseline cdrp(w.net, 10);
    cdrp.profile(w.net, w.dataset.train);
    const double cdrp_auc = evaluateBaselineAuc(cdrp, w.net, fgsmPairs());

    // Margins cover a few AUC quanta of the held-out split. Measured
    // minimum Ptolemy AUC across kernel regimes: 0.998.
    EXPECT_GE(ptolemy_auc + 0.05, ep_auc);  // >= EP (within noise)
    EXPECT_GE(ptolemy_auc + 0.10, cdrp_auc);
    EXPECT_GT(ptolemy_auc, 0.9);
}

} // namespace
} // namespace ptolemy::baselines
