/**
 * @file
 * DetectorModel artifact-corruption sweep: load() must reject a
 * truncation at EVERY byte offset and single-byte flips across the
 * header/signature region with a typed ModelLoadError — never a crash,
 * out-of-bounds read, or unbounded allocation (the CI AddressSanitizer
 * leg runs this suite to enforce the "never" part), and never a
 * half-applied model (strong guarantee: the target keeps serving its
 * old artifacts after a failed load).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_models.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "util/rng.hh"

namespace ptolemy::core
{
namespace
{

/**
 * A deliberately small fitted model (3 classes, untrained net, 3-tree
 * forest) so its artifact stays in the few-KB range: the truncation
 * sweep re-parses a prefix of it for every byte offset, which is
 * quadratic in artifact size.
 */
struct SmallWorld
{
    nn::Network net;
    DetectorModel model;

    SmallWorld()
        : net(ptolemy::testing::makeTinyNet(3)),
          model(buildModel(net))
    {
    }

    static DetectorModel
    buildModel(nn::Network &net)
    {
        nn::heInit(net, 11);
        data::DatasetSpec spec;
        spec.numClasses = 3;
        spec.trainPerClass = 12;
        spec.testPerClass = 4;
        spec.seed = 99;
        const auto ds = data::makeSyntheticDataset(spec);

        classify::ForestConfig fc;
        fc.numTrees = 3;
        fc.growth.maxDepth = 4;
        DetectorBuilder bld(
            net,
            path::ExtractionConfig::bwCu(
                static_cast<int>(net.weightedNodes().size()), 0.5),
            3, fc);
        // The untrained net still predicts some training samples
        // "correctly" by chance — enough to populate class paths.
        bld.profileClassPaths(ds.train, 12);

        Rng rng(0xC0FF);
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

SmallWorld &
smallWorld()
{
    static SmallWorld w;
    return w;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good());
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const char *data, std::size_t n)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good());
    os.write(data, static_cast<std::streamsize>(n));
    ASSERT_TRUE(os.good());
}

/** Parse the first @p n bytes of @p data as an artifact. The sweeps
 *  parse from memory: a file write and open per offset would cost
 *  orders of magnitude more than the parse it feeds. */
void
loadBytes(DetectorModel &target, const char *data, std::size_t n)
{
    std::istringstream is(std::string(data, n), std::ios::binary);
    target.load(is);
}

DetectorModel
freshTarget()
{
    auto &w = smallWorld();
    return DetectorModel(
        w.net,
        path::ExtractionConfig::bwCu(
            static_cast<int>(w.net.weightedNodes().size()), 0.5),
        3);
}

TEST(ModelCorruption, TruncationAtEveryByteOffsetThrowsTyped)
{
    auto &w = smallWorld();
    const std::string path = "corrupt_trunc.model";
    ASSERT_TRUE(w.model.save(path));
    const std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 0u);
    // Keep the quadratic sweep honest-but-bounded: the fixture is
    // sized for this, a ballooned artifact would silently turn the
    // sweep into minutes of parsing.
    ASSERT_LT(bytes.size(), 600u * 1024)
        << "fixture artifact grew too large for an every-offset sweep";

    DetectorModel target = freshTarget();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(loadBytes(target, bytes.data(), cut), ModelLoadError)
            << "truncation at byte " << cut << " of " << bytes.size();
    }

    // The saved file loads through the path overload, and the target,
    // having survived every failed load unchanged, accepts it (strong
    // guarantee end-to-end).
    EXPECT_NO_THROW(target.load(path));
    std::remove(path.c_str());
}

TEST(ModelCorruption, HeaderAndSignatureByteFlipsThrowTyped)
{
    auto &w = smallWorld();
    const std::string path = "corrupt_flip.model";
    ASSERT_TRUE(w.model.save(path));
    const std::vector<char> bytes = readAll(path);
    std::remove(path.c_str());

    // The header/signature region: length-prefixed magic, length-
    // prefixed architecture signature, and the u64 class count. Every
    // byte in it is semantically validated, so ANY flip must be
    // rejected. (Past this region lie raw class-path/forest payload
    // bytes, where a flip yields a different-but-well-formed model —
    // that is what the signature cannot catch and checksumming would;
    // out of scope here.)
    const std::size_t region =
        std::min(8 + std::string("ptolemy-detector-v1").size() + 8 +
                     w.net.signature().size() + 8,
                 bytes.size());
    DetectorModel target = freshTarget();
    std::vector<char> mutated = bytes;
    for (std::size_t off = 0; off < region; ++off) {
        for (const unsigned char mask : {0xFFu, 0x01u}) {
            mutated[off] =
                static_cast<char>(static_cast<unsigned char>(bytes[off]) ^
                                  mask);
            EXPECT_THROW(loadBytes(target, mutated.data(), mutated.size()),
                         ModelLoadError)
                << "flip mask 0x" << std::hex << +mask << std::dec
                << " at byte " << off;
            mutated[off] = bytes[off]; // restore for the next offset
        }
    }

    EXPECT_NO_THROW(loadBytes(target, bytes.data(), bytes.size()));
}

TEST(ModelCorruption, FailedLoadLeavesServingModelUntouched)
{
    auto &w = smallWorld();
    const std::string path = "corrupt_strong.model";
    ASSERT_TRUE(w.model.save(path));

    // A target that already serves: decisions before a failed load
    // must equal decisions after it, bitwise.
    DetectorModel target = freshTarget();
    ASSERT_NO_THROW(target.load(path));
    data::DatasetSpec spec;
    spec.numClasses = 3;
    spec.trainPerClass = 1;
    spec.testPerClass = 2;
    spec.seed = 7;
    const auto probe = data::makeSyntheticDataset(spec);

    DetectorSession before(target);
    std::vector<Decision> ref;
    for (const auto &s : probe.test)
        ref.push_back(before.detect(s.input));

    // Corrupt the tail (forest area) — the header parses, the load
    // fails deep, and nothing may have been half-applied.
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() - bytes.size() / 4);
    writeAll(path, bytes.data(), bytes.size());
    EXPECT_THROW(target.load(path), ModelLoadError);
    EXPECT_FALSE(target.tryLoad(path));

    DetectorSession after(target);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const Decision d = after.detect(probe.test[i].input);
        EXPECT_EQ(d.score, ref[i].score) << "sample " << i;
        EXPECT_EQ(d.predictedClass, ref[i].predictedClass)
            << "sample " << i;
        EXPECT_EQ(d.adversarial, ref[i].adversarial) << "sample " << i;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ptolemy::core
