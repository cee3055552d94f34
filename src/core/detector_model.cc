#include "detector_model.hh"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/serialize.hh"
#include "util/thread_pool.hh"

namespace ptolemy::core
{

namespace
{
const char *const kModelMagic = "ptolemy-detector-v1";
/** Forest probability at or above which a sample is flagged. */
constexpr double kAdversarialThreshold = 0.5;

/** Inputs per pooled forward + extract chunk: a few pool-widths, so
 *  resident memory stays bounded by that many Records (a Record holds
 *  every intermediate feature map) instead of one per input. */
std::size_t
chunkSize(const ThreadPool &pool)
{
    return std::max<std::size_t>(8, 4 * pool.size());
}
} // namespace

DetectorModel::DetectorModel(const nn::Network &net_ref,
                             path::ExtractionConfig cfg,
                             std::size_t num_classes,
                             classify::ForestConfig forest_cfg)
    : net(&net_ref), pathExtractor(net_ref, std::move(cfg)),
      store(num_classes, pathExtractor.layout().totalBits()), rf(forest_cfg)
{
}

bool
DetectorModel::isAdversarial(double score) const
{
    return !std::isfinite(score) || score >= kAdversarialThreshold;
}

bool
DetectorModel::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeString(os, kModelMagic);
    writeString(os, net->signature());
    writeU64(os, store.numClasses());
    config().serialize(os);
    store.serialize(os);
    rf.serialize(os);
    return os.good();
}

void
DetectorModel::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ModelLoadError("cannot open '" + path + "'");
    load(is);
}

void
DetectorModel::load(std::istream &is)
{
    std::string magic, sig;
    std::uint64_t num_classes;
    if (!readString(is, magic) || magic != kModelMagic)
        throw ModelLoadError("bad magic (not a detector artifact file, "
                             "or a truncated/corrupt header)");
    if (!readString(is, sig))
        throw ModelLoadError("truncated architecture signature");
    if (sig != net->signature())
        throw ModelLoadError("architecture signature mismatch: file has '" +
                             sig + "', network is '" + net->signature() +
                             "'");
    if (!readU64(is, num_classes))
        throw ModelLoadError("truncated class count");
    path::ExtractionConfig cfg;
    if (!cfg.deserialize(is))
        throw ModelLoadError("corrupt extraction config");
    if (cfg.numLayers() != static_cast<int>(net->weightedNodes().size()))
        throw ModelLoadError("extraction config layer count does not "
                             "match the network");
    // Rebuild the extractor for the loaded config before validating the
    // store against its layout: the offline and online phases must
    // agree on every knob, or the canary bits would not line up.
    path::PathExtractor ex(*net, std::move(cfg));
    path::ClassPathStore loaded_store;
    classify::RandomForest loaded_rf;
    // Feature arity the served vectors will have ([overall,
    // perLayer...]): trees referencing features beyond it are corrupt.
    const std::size_t num_features = 1 + ex.layout().segments().size();
    if (!loaded_store.deserialize(is))
        throw ModelLoadError("corrupt class-path store");
    if (!loaded_rf.deserialize(is, num_features))
        throw ModelLoadError("corrupt random forest");
    if (loaded_store.numClasses() != num_classes)
        throw ModelLoadError("class-path store class count does not "
                             "match the header");
    if (loaded_store.numClasses() > 0 &&
        loaded_store.numBits() != ex.layout().totalBits())
        throw ModelLoadError("class-path store bit width does not match "
                             "the extraction layout");
    pathExtractor = std::move(ex);
    store = std::move(loaded_store);
    rf = std::move(loaded_rf);
}

bool
DetectorModel::tryLoad(const std::string &path)
{
    try {
        load(path);
        return true;
    } catch (const ModelLoadError &) {
        return false;
    }
}

DetectorBuilder::DetectorBuilder(const nn::Network &net,
                                 path::ExtractionConfig cfg,
                                 std::size_t num_classes,
                                 classify::ForestConfig forest_cfg)
    : mdl(net, std::move(cfg), num_classes, forest_cfg)
{
}

std::size_t
DetectorBuilder::profileClassPaths(const nn::Dataset &train,
                                   int max_per_class)
{
    // Chunked batch pipeline: inference + extraction of each chunk fan
    // out on the pool, then aggregation replays the chunk in dataset
    // order with the same cap/correctness checks the sequential loop
    // applied, so the resulting class paths are identical to it. (A
    // sample whose class fills up mid-chunk is forwarded wastefully but
    // never aggregated.)
    std::size_t aggregated = 0;
    ThreadPool *pool = &globalPool();
    const std::size_t chunk = chunkSize(*pool);
    const auto cap = static_cast<std::size_t>(max_per_class);
    xsScratch.clear();
    labelScratch.clear();

    auto flush = [&] {
        if (xsScratch.empty())
            return;
        mdl.network().forwardBatch(xsScratch, recScratch, pool);
        mdl.pathExtractor.extractBatch(recScratch, pathScratch, bws, pool);
        for (std::size_t i = 0; i < xsScratch.size(); ++i) {
            const std::size_t label = labelScratch[i];
            if (mdl.store.samplesSeen(label) >= cap)
                continue;
            if (recScratch[i].predictedClass() != label)
                continue; // only correct predictions define the canary
            mdl.store.aggregate(label, pathScratch[i]);
            ++aggregated;
        }
        xsScratch.clear();
        labelScratch.clear();
    };

    for (const auto &s : train) {
        if (mdl.store.samplesSeen(s.label) >= cap)
            continue;
        xsScratch.push_back(s.input);
        labelScratch.push_back(s.label);
        if (xsScratch.size() >= chunk)
            flush();
    }
    flush();
    return aggregated;
}

void
DetectorBuilder::featuresBatch(const std::vector<nn::Tensor> &xs,
                               classify::FeatureMatrix &rows)
{
    ThreadPool *pool = &globalPool();
    const std::size_t chunk = chunkSize(*pool);
    rows.resize(xs.size());
    const auto &ex = mdl.extractor();
    for (std::size_t base = 0; base < xs.size(); base += chunk) {
        const std::size_t n = std::min(chunk, xs.size() - base);
        xsScratch.assign(xs.begin() + static_cast<std::ptrdiff_t>(base),
                         xs.begin() + static_cast<std::ptrdiff_t>(base + n));
        mdl.network().forwardBatch(xsScratch, recScratch, pool);
        ex.extractBatch(recScratch, pathScratch, bws, pool);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t pred = recScratch[i].predictedClass();
            rows[base + i] =
                path::computeSimilarity(pathScratch[i],
                                        mdl.classPaths().classPath(pred),
                                        ex.layout())
                    .toVector();
        }
    }
}

void
DetectorBuilder::fitClassifier(const classify::FeatureMatrix &benign,
                               const classify::FeatureMatrix &adversarial)
{
    classify::FeatureMatrix x;
    std::vector<int> y;
    x.reserve(benign.size() + adversarial.size());
    for (const auto &row : benign) {
        x.push_back(row);
        y.push_back(0);
    }
    for (const auto &row : adversarial) {
        x.push_back(row);
        y.push_back(1);
    }
    mdl.rf.fit(x, y);
}

} // namespace ptolemy::core
