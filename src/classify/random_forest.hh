/**
 * @file
 * Random-forest adversarial classifier (paper Sec. III-B / V-D).
 *
 * The paper's final classification stage: path-similarity features go into
 * a random forest of 100 trees with average depth ~12, cheap enough
 * (≈2,000 operations) to execute on the controller MCU in microseconds.
 */

#ifndef PTOLEMY_CLASSIFY_RANDOM_FOREST_HH
#define PTOLEMY_CLASSIFY_RANDOM_FOREST_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "classify/decision_tree.hh"

namespace ptolemy::classify
{

/** Forest hyper-parameters; defaults match the paper's description. */
struct ForestConfig
{
    int numTrees = 100;
    DecisionTree::GrowthConfig growth;
    std::uint64_t seed = 0xF02E57;
};

/**
 * Bagged ensemble of CART trees.
 */
class RandomForest
{
  public:
    explicit RandomForest(ForestConfig cfg = {}) : config(cfg) {}

    /**
     * Fit on feature rows @p x with binary labels @p y
     * (1 = adversarial). Each tree sees a bootstrap resample.
     */
    void fit(const FeatureMatrix &x, const std::vector<int> &y);

    /** Mean class-1 probability across trees. */
    double predictProb(const std::vector<double> &features) const;

    int numTrees() const { return static_cast<int>(trees.size()); }

    /** Mean tree depth (paper quotes ~12). */
    double avgDepth() const;

    /** Total comparisons for one prediction, for the MCU cost model. */
    std::size_t decisionOps(const std::vector<double> &features) const;

    /** Write the fitted ensemble to a binary stream; a deserialized
     *  forest scores bit-identically (used by DetectorModel::save). */
    void serialize(std::ostream &os) const;

    /** Inverse of serialize(). @p num_features is the arity of the
     *  feature vectors the loaded forest will score; trees referencing
     *  features outside it are rejected (see DecisionTree).
     *  @return false on malformed input. */
    bool deserialize(std::istream &is, std::size_t num_features);

  private:
    ForestConfig config;
    std::vector<DecisionTree> trees;
};

} // namespace ptolemy::classify

#endif // PTOLEMY_CLASSIFY_RANDOM_FOREST_HH
