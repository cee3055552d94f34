/**
 * @file
 * Detection-accuracy evaluation harness (paper Sec. VI-A metrics).
 *
 * Follows the paper's setup: test sets are evenly split between benign
 * and (successful) adversarial inputs, the detector's random forest is
 * fitted on a held-in split of the pairs, and accuracy is reported as the
 * area under the ROC curve (AUC) on the held-out split.
 */

#ifndef PTOLEMY_CORE_EVALUATION_HH
#define PTOLEMY_CORE_EVALUATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack.hh"
#include "core/detector_session.hh"
#include "nn/trainer.hh"

namespace ptolemy::core
{

/** One clean/adversarial input pair produced by an attack. */
struct DetectionPair
{
    nn::Tensor clean;
    nn::Tensor adversarial;
    std::size_t label = 0; ///< true class of the clean input
    double mse = 0.0;      ///< attack distortion
};

/** One scored held-out sample. */
struct ScoredSample
{
    double score = 0.0; ///< detector's adversarial probability
    int label = 0;      ///< 1 = adversarial
    double mse = 0.0;   ///< pair distortion (0 for benign rows)
    std::size_t trueClass = 0;
    std::size_t predictedClass = 0;
};

/** Evaluation output: held-out scores plus the AUC. */
struct PairScores
{
    std::vector<ScoredSample> heldOut;
    double auc = 0.5;
};

/** Per-attack summary row. */
struct AttackEvalResult
{
    std::string attackName;
    double auc = 0.5;
    std::size_t numPairs = 0;
    std::size_t numAttempted = 0; ///< attacks actually launched
    double attackSuccessRate = 0.0; ///< numPairs / numAttempted
    double avgMse = 0.0;
};

/**
 * Attack up to @p max_samples correctly-classified test inputs; keep the
 * successful ones as pairs. Candidates are filtered through batched
 * inference and then fed to the attack in 64-sample chunks
 * (Attack::runBatch on the process-wide pool). Each candidate's sample
 * index is its selection ordinal, so the produced pairs are
 * bit-identical to attacking the candidates one at a time in selection
 * order — at any chunking and any PTOLEMY_NUM_THREADS.
 *
 * @param attempted_out when non-null, receives the number of attacks
 *        actually launched. The test set can run out of
 *        correctly-classified inputs, so this may be less than
 *        @p max_samples — success rates must divide by the attempted
 *        count, not the cap.
 */
std::vector<DetectionPair> buildAttackPairs(nn::Network &net,
                                            attack::Attack &atk,
                                            const nn::Dataset &test,
                                            int max_samples,
                                            std::uint64_t seed = 0xE7A1,
                                            int *attempted_out = nullptr);

/**
 * Fit the builder's classifier on a @p train_fraction split of the
 * pairs' benign/adversarial features, then score the held-out split
 * through @p sess. The train split is clamped to
 * [2, pairs.size() - 2] so the held-out split is never empty, whatever
 * @p train_fraction says.
 *
 * @p sess must be bound to @p bld's model (std::invalid_argument
 * otherwise); fitClassifier mutates the model in place, so the session
 * observes the freshly fitted forest.
 * Held-out scoring rides the real serving path — one fused
 * DetectorSession::detectBatch over the held-out inputs — so the
 * Sec. VI harness exercises exactly what production traffic would,
 * with scores bit-identical to per-sample score() calls.
 */
PairScores fitAndScore(DetectorBuilder &bld, DetectorSession &sess,
                       const std::vector<DetectionPair> &pairs,
                       double train_fraction = 0.5,
                       std::uint64_t seed = 17);

/**
 * buildAttackPairs + fitAndScore for one attack. Attack generation
 * needs gradient passes against @p net — the one mutable-network use
 * in the harness — so the network is passed explicitly; the detector
 * side only ever reads (it borrows the same network const). @p sess
 * must be bound to @p bld's model, as for fitAndScore.
 */
AttackEvalResult evaluateAttack(nn::Network &net, DetectorBuilder &bld,
                                DetectorSession &sess, attack::Attack &atk,
                                const nn::Dataset &test, int max_samples,
                                std::uint64_t seed = 17);

} // namespace ptolemy::core

#endif // PTOLEMY_CORE_EVALUATION_HH
