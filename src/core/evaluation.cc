#include "evaluation.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace ptolemy::core
{

std::vector<DetectionPair>
buildAttackPairs(nn::Network &net, attack::Attack &atk,
                 const nn::Dataset &test, int max_samples,
                 std::uint64_t seed, int *attempted_out)
{
    Rng rng(seed);
    std::vector<std::size_t> order(test.size());
    std::iota(order.begin(), order.end(), 0);
    // i > 1 keeps every Rng::below argument positive (empty and
    // single-sample test sets shuffle to themselves).
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    std::vector<DetectionPair> pairs;
    int attempted = 0;
    // Filter pass rides forwardBatch over borrowed candidate views:
    // candidates are classified one chunk at a time on the process-wide
    // pool, bit-identical to the sequential loop, so the selected attack
    // targets are unchanged; a chunk may classify a few candidates
    // beyond the cap, which is noise next to the attack cost.
    //
    // Selected candidates accumulate into kChunk-sample batches for the
    // batched attack engine. A candidate's global sample index is its
    // selection ordinal (the attempted count at selection time), so
    // randomized attacks draw the same noise however the stream is
    // chunked — pairs are bit-identical to attacking the candidates one
    // at a time in selection order, at any PTOLEMY_NUM_THREADS.
    constexpr std::size_t kChunk = 64;
    std::vector<const nn::Tensor *> xptrs;
    std::vector<nn::Network::Record> recs;
    std::vector<const nn::Tensor *> batch_xs;
    std::vector<std::size_t> batch_labels;
    std::vector<const nn::Sample *> batch_samples;
    std::vector<attack::AttackResult> results;

    auto flushBatch = [&] {
        if (batch_xs.empty())
            return;
        results.resize(batch_xs.size());
        atk.runBatch(net, batch_xs, batch_labels, results,
                     /*index_base=*/static_cast<std::uint64_t>(attempted) -
                         batch_xs.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].success)
                continue;
            DetectionPair p;
            p.clean = batch_samples[i]->input;
            p.adversarial = std::move(results[i].adversarial);
            p.label = batch_samples[i]->label;
            p.mse = results[i].mse;
            pairs.push_back(std::move(p));
        }
        batch_xs.clear();
        batch_labels.clear();
        batch_samples.clear();
    };

    for (std::size_t c0 = 0;
         c0 < order.size() && attempted < max_samples; c0 += kChunk) {
        const std::size_t cn = std::min(kChunk, order.size() - c0);
        xptrs.clear();
        for (std::size_t i = 0; i < cn; ++i)
            xptrs.push_back(&test[order[c0 + i]].input);
        net.forwardBatch(
            std::span<const nn::Tensor *const>(xptrs.data(), cn), recs,
            &globalPool());
        for (std::size_t i = 0; i < cn && attempted < max_samples; ++i) {
            const auto &s = test[order[c0 + i]];
            if (recs[i].predictedClass() != s.label)
                continue; // attacks start from correctly-classified inputs
            ++attempted;
            batch_xs.push_back(&s.input);
            batch_labels.push_back(s.label);
            batch_samples.push_back(&s);
            if (batch_xs.size() == kChunk)
                flushBatch();
        }
    }
    flushBatch();
    if (attempted_out)
        *attempted_out = attempted;
    return pairs;
}

PairScores
fitAndScore(DetectorBuilder &bld, DetectorSession &sess,
            const std::vector<DetectionPair> &pairs, double train_fraction,
            std::uint64_t seed)
{
    // The builder fits one model and the session scores the held-out
    // split: a session bound to any other model would score with that
    // model's forest (an unfitted one answers 0.5 for every row).
    if (&sess.model() != &bld.model())
        throw std::invalid_argument(
            "fitAndScore: sess is not bound to bld.model()");
    PairScores out;
    if (pairs.size() < 4)
        return out;

    Rng rng(seed);
    std::vector<std::size_t> order(pairs.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    // Clamp both ends: at least 2 training pairs, and at least 2
    // held-out pairs no matter how close train_fraction is to 1 (the
    // unclamped split scored an empty held-out set and reported its
    // vacuous 0.5 AUC as if measured).
    const std::size_t n_train = std::clamp<std::size_t>(
        static_cast<std::size_t>(train_fraction * pairs.size()), 2,
        pairs.size() - 2);

    // Batched feature pipeline: inference + extraction of each split
    // fan out on the process-wide pool inside featuresBatch; row order
    // matches the historical sequential loop exactly.
    std::vector<nn::Tensor> xs;
    classify::FeatureMatrix benign, adversarial;
    xs.reserve(n_train);
    for (std::size_t i = 0; i < n_train; ++i)
        xs.push_back(pairs[order[i]].clean);
    bld.featuresBatch(xs, benign);
    xs.clear();
    for (std::size_t i = 0; i < n_train; ++i)
        xs.push_back(pairs[order[i]].adversarial);
    bld.featuresBatch(xs, adversarial);
    bld.fitClassifier(benign, adversarial);

    // Held-out scoring goes through the real serving path: one fused
    // detectBatch over borrowed held-out views (clean/adversarial
    // interleaved, the paper's evenly-split test set). Decisions carry
    // the same features/scores the old per-row predictProb computed —
    // bit-identical — but the code path is now exactly the one serving
    // production traffic.
    std::vector<const nn::Tensor *> xptrs;
    for (std::size_t i = n_train; i < pairs.size(); ++i) {
        xptrs.push_back(&pairs[order[i]].clean);
        xptrs.push_back(&pairs[order[i]].adversarial);
    }
    std::vector<Decision> decisions(xptrs.size());
    sess.detectBatch(
        std::span<const nn::Tensor *const>(xptrs.data(), xptrs.size()),
        std::span<Decision>(decisions.data(), decisions.size()));

    std::vector<double> scores;
    std::vector<int> labels;
    for (std::size_t i = n_train; i < pairs.size(); ++i) {
        const auto &p = pairs[order[i]];
        for (int adv = 0; adv < 2; ++adv) {
            const std::size_t q = 2 * (i - n_train) + adv;
            ScoredSample ss;
            ss.label = adv;
            ss.trueClass = p.label;
            ss.mse = adv ? p.mse : 0.0;
            ss.predictedClass = decisions[q].predictedClass;
            ss.score = decisions[q].score;
            scores.push_back(ss.score);
            labels.push_back(ss.label);
            out.heldOut.push_back(std::move(ss));
        }
    }
    out.auc = aucScore(scores, labels);
    return out;
}

AttackEvalResult
evaluateAttack(nn::Network &net, DetectorBuilder &bld, DetectorSession &sess,
               attack::Attack &atk, const nn::Dataset &test, int max_samples,
               std::uint64_t seed)
{
    AttackEvalResult r;
    r.attackName = atk.name();
    int attempted = 0;
    auto pairs =
        buildAttackPairs(net, atk, test, max_samples, seed, &attempted);
    r.numPairs = pairs.size();
    r.numAttempted = static_cast<std::size_t>(attempted);
    // Divide by the attacks actually launched: the test set can run out
    // of correctly-classified inputs before max_samples, and dividing
    // by the cap silently deflated every reported success rate.
    r.attackSuccessRate = attempted == 0
        ? 0.0
        : static_cast<double>(pairs.size()) / attempted;
    double mse_sum = 0.0;
    for (const auto &p : pairs)
        mse_sum += p.mse;
    r.avgMse = pairs.empty() ? 0.0 : mse_sum / pairs.size();
    r.auc = fitAndScore(bld, sess, pairs, 0.5, seed).auc;
    return r;
}

} // namespace ptolemy::core
