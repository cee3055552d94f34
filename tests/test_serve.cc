/**
 * @file
 * Serving-tier robustness tests: typed per-request resolution under
 * load shedding, deadlines, poisoned requests, injected batch stalls
 * and hot model swaps — plus the conservation contract (every
 * submitted request resolves exactly once, nothing lost, server never
 * crashes) and Decision bit-identity of every kOk response against a
 * direct DetectorSession over the same model.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/test_models.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "core/fault_injection.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace ptolemy::serve
{
namespace
{

using core::Decision;
using core::DetectorModel;
using core::DetectorSession;

int
numWeighted()
{
    return static_cast<int>(
        ptolemy::testing::world().net.weightedNodes().size());
}

/** Mixed clean/perturbed serving inputs. */
std::vector<nn::Tensor>
probeInputs(std::size_t n)
{
    auto &w = ptolemy::testing::world();
    Rng rng(0x5E7E5);
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

/** One fitted model over the shared trained world (built once per
 *  process; same recipe as the detector-API tests). */
const DetectorModel &
servedModel()
{
    static const DetectorModel model = [] {
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

/** Reference decisions from a direct session (the bit-identity
 *  baseline every kOk response is compared against). */
std::vector<Decision>
referenceDecisions(const DetectorModel &model,
                   const std::vector<nn::Tensor> &xs)
{
    DetectorSession sess(model);
    std::vector<Decision> ref;
    for (const auto &x : xs)
        ref.push_back(sess.detect(x));
    return ref;
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

TEST(Serve, ServedDecisionsBitIdenticalToDirectSession)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(12);
    const auto ref = referenceDecisions(model, xs);

    DetectorServer server(model);
    std::vector<ServeRequest> slab(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        slab[i].reset(xs[i]);
        EXPECT_EQ(server.submit(slab[i]), RequestStatus::kQueued);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(server.wait(slab[i]), RequestStatus::kOk);
        expectDecisionsEqual(slab[i].decision, ref[i],
                             "served sample " + std::to_string(i));
        EXPECT_GE(slab[i].latencyMicros(), 0.0);
    }
    server.stop();
    const auto st = server.stats();
    EXPECT_EQ(st.submitted, xs.size());
    EXPECT_EQ(st.ok, xs.size());
    EXPECT_TRUE(st.conserved());
    EXPECT_GE(st.batches, 1u);
}

TEST(Serve, ExpiredDeadlineResolvesTyped)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(1);

    DetectorServer server(model);
    ServeRequest req;
    req.reset(xs[0], Clock::now() - std::chrono::milliseconds(1));
    ASSERT_EQ(server.submit(req), RequestStatus::kQueued);
    EXPECT_EQ(server.wait(req), RequestStatus::kDeadlineExceeded);
    server.stop();
    const auto st = server.stats();
    EXPECT_EQ(st.deadlineExceeded, 1u);
    EXPECT_TRUE(st.conserved());
}

TEST(Serve, StageStampsOrderedAndShedNeverDispatched)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(4);

    // Stalled one-request batches behind a two-deep queue: a flood
    // from this thread sheds most requests at submit. Every other
    // admitted request carries an already-expired deadline.
    core::ServeFaultPlan plan;
    plan.delayEveryNthBatch = 1;
    plan.batchDelayMicros = 3000;
    ServeConfig cfg;
    cfg.queueDepth = 2;
    cfg.maxBatch = 1;
    DetectorServer server(model, cfg, &plan);

    constexpr std::size_t kFlood = 40;
    std::vector<ServeRequest> slab(kFlood);
    const Clock::time_point past = Clock::now() - std::chrono::seconds(1);
    for (std::size_t i = 0; i < kFlood; ++i) {
        slab[i].reset(xs[i % xs.size()],
                      i % 2 ? past : Clock::time_point::max());
        server.submit(slab[i]);
    }
    std::size_t ok = 0, expired = 0, shed = 0;
    for (std::size_t i = 0; i < kFlood; ++i) {
        const ServeRequest &r = slab[i];
        const RequestStatus s = server.wait(slab[i]);
        const std::string what = "request " + std::to_string(i) + " " +
                                 requestStatusName(s);
        if (s == RequestStatus::kShed) {
            ++shed;
            EXPECT_EQ(r.dispatchedAt, Clock::time_point{}) << what;
            continue;
        }
        ASSERT_TRUE(s == RequestStatus::kOk ||
                    s == RequestStatus::kDeadlineExceeded)
            << what;
        if (s == RequestStatus::kOk)
            ++ok;
        else
            ++expired;
        EXPECT_LE(r.submittedAt, r.dispatchedAt) << what;
        EXPECT_LE(r.dispatchedAt, r.completedAt) << what;
    }
    server.stop();
    EXPECT_GT(ok, 0u);
    EXPECT_GT(expired, 0u);
    EXPECT_GT(shed, 0u) << "flood never tripped admission";
    EXPECT_TRUE(server.stats().conserved());

    // Re-arming clears the stamp, so a reused request that is shed
    // next time cannot report its previous dispatch.
    ServeRequest &served = slab[0];
    ASSERT_EQ(served.status.load(), RequestStatus::kOk);
    served.reset(xs[0]);
    EXPECT_EQ(served.dispatchedAt, Clock::time_point{});
}

TEST(Serve, OverloadShedsInsteadOfBlocking)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(4);

    // One-deep admission, one-request batches, every batch stalled:
    // flooding from this thread must shed synchronously, never block.
    core::ServeFaultPlan plan;
    plan.delayEveryNthBatch = 1;
    plan.batchDelayMicros = 3000;
    ServeConfig cfg;
    cfg.queueDepth = 2;
    cfg.maxBatch = 1;
    DetectorServer server(model, cfg, &plan);

    constexpr std::size_t kFlood = 40;
    std::vector<ServeRequest> slab(kFlood);
    std::size_t shed_at_submit = 0;
    for (std::size_t i = 0; i < kFlood; ++i) {
        slab[i].reset(xs[i % xs.size()]);
        if (server.submit(slab[i]) == RequestStatus::kShed) {
            ++shed_at_submit;
            EXPECT_EQ(slab[i].status.load(), RequestStatus::kShed);
        }
    }
    for (auto &r : slab)
        EXPECT_TRUE(isResolved(server.wait(r)));
    server.stop();

    const auto st = server.stats();
    EXPECT_GT(shed_at_submit, 0u) << "flood never tripped admission";
    EXPECT_EQ(st.shed, shed_at_submit);
    EXPECT_EQ(st.submitted, kFlood);
    EXPECT_TRUE(st.conserved());
    EXPECT_GT(plan.delaysInjected.load(), 0u);
}

TEST(Serve, PoisonedRequestIsIsolatedFromItsBatchmates)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(16);
    const auto ref = referenceDecisions(model, xs);

    core::ServeFaultPlan plan;
    plan.poisonEveryNthRequest = 4; // submit ordinals 3, 7, 11, 15
    DetectorServer server(model, {}, &plan);

    std::vector<ServeRequest> slab(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        slab[i].reset(xs[i]);
        ASSERT_EQ(server.submit(slab[i]), RequestStatus::kQueued);
    }
    std::size_t poisoned = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const RequestStatus s = server.wait(slab[i]);
        if (plan.poisoned(slab[i].seq)) {
            ++poisoned;
            EXPECT_EQ(s, RequestStatus::kError) << "sample " << i;
            EXPECT_STREQ(slab[i].error, "poisoned request");
        } else {
            ASSERT_EQ(s, RequestStatus::kOk) << "sample " << i;
            expectDecisionsEqual(slab[i].decision, ref[i],
                                 "batchmate " + std::to_string(i));
        }
    }
    server.stop();
    EXPECT_EQ(poisoned, 4u);
    EXPECT_EQ(plan.poisonsInjected.load(), 4u);
    const auto st = server.stats();
    EXPECT_EQ(st.errors, 4u);
    EXPECT_EQ(st.ok, xs.size() - 4);
    EXPECT_TRUE(st.conserved());
}

TEST(Serve, ShapeMismatchedRequestFailsAlone)
{
    // The kernels trust the network's declared shapes, so a request
    // with too few channels must be refused before the fused batch —
    // alone, with its batchmates still served bit-identically.
    const auto &model = servedModel();
    const auto xs = probeInputs(8);
    const auto ref = referenceDecisions(model, xs);
    const nn::Shape in = model.network().inputShape();
    const nn::Tensor thin(nn::mapShape(1, in.h, in.w));

    // The session refuses it outright (typed, before any work).
    {
        DetectorSession sess(model);
        std::vector<const nn::Tensor *> ptrs{&xs[0], &thin};
        std::vector<Decision> outs(2);
        EXPECT_THROW(sess.detectBatch(ptrs, outs), std::invalid_argument);
        ptrs[1] = nullptr;
        EXPECT_THROW(sess.detectBatch(ptrs, outs), std::invalid_argument);
        EXPECT_THROW(sess.detect(thin), std::invalid_argument);
    }

    constexpr std::size_t kBad = 3;
    DetectorServer server(model);
    std::vector<ServeRequest> slab(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        slab[i].reset(i == kBad ? thin : xs[i]);
        ASSERT_EQ(server.submit(slab[i]), RequestStatus::kQueued);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const RequestStatus s = server.wait(slab[i]);
        if (i == kBad) {
            EXPECT_EQ(s, RequestStatus::kError);
            EXPECT_STREQ(slab[i].error, "input shape mismatch");
        } else {
            ASSERT_EQ(s, RequestStatus::kOk) << "sample " << i;
            expectDecisionsEqual(slab[i].decision, ref[i],
                                 "batchmate " + std::to_string(i));
        }
    }
    server.stop();
    const auto st = server.stats();
    EXPECT_EQ(st.submitted, xs.size());
    EXPECT_EQ(st.errors, 1u);
    EXPECT_EQ(st.ok, xs.size() - 1);
    EXPECT_TRUE(st.conserved());
}

TEST(Serve, HotSwapServesNewModelAndFailedSwapKeepsOld)
{
    auto &w = ptolemy::testing::world();
    const auto &model = servedModel();
    const auto xs = probeInputs(6);
    const std::string path_a = "serve_swap_a.model";
    const std::string path_b = "serve_swap_b.model";
    ASSERT_TRUE(model.save(path_a));

    // A second fitted model with a different extraction threshold —
    // distinct artifacts over the same architecture signature.
    {
        core::DetectorBuilder bld(
            w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.3), 10);
        bld.profileClassPaths(w.dataset.train, 20);
        Rng rng(0x51AB);
        std::vector<nn::Tensor> clean, noisy;
        for (std::size_t i = 0; i < 16; ++i) {
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
        ASSERT_TRUE(std::move(bld).build().save(path_b));
    }

    // Reference decisions for the swapped-in artifacts.
    DetectorModel loaded_b(
        w.net, path::ExtractionConfig::bwCu(numWeighted(), 0.5), 10);
    ASSERT_NO_THROW(loaded_b.load(path_b));
    const auto ref_a = referenceDecisions(model, xs);
    const auto ref_b = referenceDecisions(loaded_b, xs);

    core::ServeFaultPlan plan;
    DetectorServer server(model, {}, &plan);
    const auto before = server.pinModel();

    auto serve_all = [&](std::vector<ServeRequest> &slab) {
        for (std::size_t i = 0; i < xs.size(); ++i) {
            slab[i].reset(xs[i]);
            EXPECT_EQ(server.submit(slab[i]), RequestStatus::kQueued);
        }
        for (auto &r : slab)
            ASSERT_EQ(server.wait(r), RequestStatus::kOk);
    };

    std::vector<ServeRequest> slab(xs.size());
    serve_all(slab);
    for (std::size_t i = 0; i < xs.size(); ++i)
        expectDecisionsEqual(slab[i].decision, ref_a[i],
                             "pre-swap " + std::to_string(i));

    // Successful swap: new requests serve the new artifacts.
    ASSERT_TRUE(server.swapModel(path_b));
    EXPECT_NE(server.pinModel(), before);
    serve_all(slab);
    for (std::size_t i = 0; i < xs.size(); ++i)
        expectDecisionsEqual(slab[i].decision, ref_b[i],
                             "post-swap " + std::to_string(i));

    // Injected swap-during-load fault: the load throws, the old (B)
    // model keeps serving.
    plan.failNextSwaps.store(1);
    EXPECT_FALSE(server.swapModel(path_a));
    EXPECT_EQ(plan.swapFaultsInjected.load(), 1u);
    serve_all(slab);
    for (std::size_t i = 0; i < xs.size(); ++i)
        expectDecisionsEqual(slab[i].decision, ref_b[i],
                             "post-failed-swap " + std::to_string(i));

    // Plain bad artifact: same degradation path.
    EXPECT_FALSE(server.swapModel("serve_swap_missing.model"));

    server.stop();
    const auto st = server.stats();
    EXPECT_EQ(st.swaps, 1u);
    EXPECT_EQ(st.failedSwaps, 2u);
    EXPECT_TRUE(st.conserved());
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Serve, RetryClientBacksOffThroughOverload)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(8);
    const auto ref = referenceDecisions(model, xs);

    core::ServeFaultPlan plan;
    plan.delayEveryNthBatch = 2;
    plan.batchDelayMicros = 1500;
    ServeConfig cfg;
    cfg.queueDepth = 2;
    cfg.maxBatch = 2;
    DetectorServer server(model, cfg, &plan);

    RetryClient::Options ropt;
    ropt.maxAttempts = 64;
    ropt.initialBackoffMicros = 200;

    // Two competing client threads over a two-deep queue: shed +
    // retry traffic is all but guaranteed, and every request must
    // still end kOk with a bit-identical decision.
    auto client = [&](int tid) {
        RetryClient rc(server, ropt);
        ServeRequest req;
        for (int round = 0; round < 3; ++round)
            for (std::size_t i = 0; i < xs.size(); ++i) {
                ASSERT_EQ(rc.detect(req, xs[i]), RequestStatus::kOk)
                    << "client " << tid;
                expectDecisionsEqual(req.decision, ref[i],
                                     "client " + std::to_string(tid) +
                                         " sample " + std::to_string(i));
            }
    };
    std::thread ta(client, 0), tb(client, 1);
    ta.join();
    tb.join();
    server.stop();
    EXPECT_TRUE(server.stats().conserved());
}

TEST(Serve, FaultCampaignConservesEveryRequest)
{
    const auto &model = servedModel();
    const auto xs = probeInputs(10);
    const auto ref = referenceDecisions(model, xs);
    const std::string swap_path = "serve_campaign.model";
    ASSERT_TRUE(model.save(swap_path));

    // Combined campaign: stalled batches + poisoned requests + failed
    // and successful hot swaps, under concurrent clients with tight
    // deadlines. The swap artifact is the SAME fitted model, so every
    // kOk decision stays bit-identical to the reference across swaps.
    core::ServeFaultPlan plan;
    plan.delayEveryNthBatch = 3;
    plan.batchDelayMicros = 2000;
    plan.poisonEveryNthRequest = 7;
    ServeConfig cfg;
    cfg.queueDepth = 8;
    cfg.maxBatch = 4;
    cfg.defaultDeadlineMicros = 40000;
    DetectorServer server(model, cfg, &plan);

    constexpr int kClients = 3;
    constexpr int kPerClient = 30;
    std::array<std::array<RequestStatus, kPerClient>, kClients> finals{};
    auto client = [&](int tid) {
        RetryClient::Options ropt;
        ropt.maxAttempts = 3;
        ropt.initialBackoffMicros = 200;
        RetryClient rc(server, ropt);
        ServeRequest req;
        for (int i = 0; i < kPerClient; ++i) {
            const auto &x = xs[(tid + i) % xs.size()];
            finals[tid][i] = rc.detect(req, x);
            EXPECT_TRUE(isResolved(finals[tid][i]));
            if (finals[tid][i] == RequestStatus::kOk)
                expectDecisionsEqual(
                    req.decision, ref[(tid + i) % xs.size()],
                    "campaign client " + std::to_string(tid) +
                        " request " + std::to_string(i));
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back(client, t);

    // Hot-swap churn during the campaign, failures included.
    for (int s = 0; s < 4; ++s) {
        if (s == 2)
            plan.failNextSwaps.store(1);
        server.swapModel(swap_path);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto &t : threads)
        t.join();
    server.stop();

    const auto st = server.stats();
    EXPECT_TRUE(st.conserved())
        << "submitted=" << st.submitted << " resolved=" << st.resolved();
    // Client-side: every one of the 90 logical requests got exactly one
    // terminal status.
    std::size_t finals_seen = 0;
    for (const auto &per : finals)
        for (RequestStatus s : per)
            finals_seen += isResolved(s) ? 1 : 0;
    EXPECT_EQ(finals_seen,
              static_cast<std::size_t>(kClients) * kPerClient);
    EXPECT_GT(st.ok, 0u);
    std::remove(swap_path.c_str());
}

} // namespace
} // namespace ptolemy::serve
