/**
 * @file
 * Tuning-file loader tests: a bench_sweep picks JSON applies its
 * picked_env knobs at startup, explicit environment always wins,
 * unknown knobs are never injected, and malformed/missing files are
 * ignored without side effects.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/tuning.hh"

namespace
{

/** Scoped env guard: remembers and restores one variable. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : key(name)
    {
        if (const char *v = std::getenv(name)) {
            had = true;
            old = v;
        }
        ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had)
            ::setenv(key.c_str(), old.c_str(), 1);
        else
            ::unsetenv(key.c_str());
    }

  private:
    std::string key, old;
    bool had = false;
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
}

TEST(Tuning, PicksFileAppliesOnlyUnsetKnownKnobs)
{
    // Knobs older bench_sweep.py picks files carry but the whitelist
    // retired (with the layer-major forward and the single conv
    // forward). Assembled from parts so the retired names never appear
    // in the tree as if they were live.
    const std::string retired_chunk = std::string("PTOLEMY_") + "WIDE_CHUNK";
    const std::string retired_pack = std::string("PTOLEMY_") + "PREPACK";
    EnvGuard g1("PTOLEMY_NUM_THREADS"), g2(retired_pack.c_str()),
        g3("PTOLEMY_SIMD"), g4("PTOLEMY_EVIL_INJECTION"),
        g5(retired_chunk.c_str());
    ::setenv("PTOLEMY_SIMD", "avx2", 1); // explicitly pinned: must win

    const std::string path = "tuning_picks_test.json";
    // Shape matches tools/bench_sweep.py output: string AND bare-number
    // values, plus knobs the whitelist must refuse.
    writeFile(path, R"({
  "select_key": "detect.batch_per_sec",
  "picked_env": {
    "PTOLEMY_NUM_THREADS": 3,
    ")" + retired_pack + R"(": "0",
    "PTOLEMY_SIMD": "scalar",
    ")" + retired_chunk + R"(": 48,
    "PTOLEMY_EVIL_INJECTION": "1"
  },
  "picked_knobs": {"threads": 3}
})");

    const unsigned applied = ptolemy::applyTuningFile(path.c_str());
    EXPECT_EQ(applied, 1u) << "NUM_THREADS only (SIMD was pinned, EVIL "
                              "and the retired knobs are not knobs)";
    ASSERT_NE(std::getenv("PTOLEMY_NUM_THREADS"), nullptr);
    EXPECT_STREQ(std::getenv("PTOLEMY_NUM_THREADS"), "3");
    EXPECT_STREQ(std::getenv("PTOLEMY_SIMD"), "avx2")
        << "explicit environment must beat the tuning file";
    EXPECT_EQ(std::getenv("PTOLEMY_EVIL_INJECTION"), nullptr)
        << "a tuning file must never inject arbitrary environment";
    EXPECT_EQ(std::getenv(retired_chunk.c_str()), nullptr)
        << "a retired knob from an old picks file must not be injected";
    EXPECT_EQ(std::getenv(retired_pack.c_str()), nullptr)
        << "a retired knob from an old picks file must not be injected";
    std::remove(path.c_str());
}

TEST(Tuning, MalformedAndMissingFilesAreIgnored)
{
    EnvGuard g1("PTOLEMY_NUM_THREADS");
    EXPECT_EQ(ptolemy::applyTuningFile("tuning_no_such_file.json"), 0u);

    const std::string path = "tuning_bad_test.json";
    writeFile(path, "{\"rows\": []}"); // no picked_env block
    EXPECT_EQ(ptolemy::applyTuningFile(path.c_str()), 0u);
    writeFile(path, "not json at all");
    EXPECT_EQ(ptolemy::applyTuningFile(path.c_str()), 0u);
    writeFile(path, "{\"picked_env\": {\"PTOLEMY_NUM_THREADS\": }");
    EXPECT_EQ(ptolemy::applyTuningFile(path.c_str()), 0u);
    EXPECT_EQ(std::getenv("PTOLEMY_NUM_THREADS"), nullptr);
    std::remove(path.c_str());
}

TEST(Tuning, EnsureTuningAppliedIsIdempotent)
{
    // The once-flag has long since fired in this process (the global
    // pool reads it at first use); this just pins the API contract:
    // callable any number of times, cheap, and the introspection
    // counter is stable.
    ptolemy::ensureTuningApplied();
    const unsigned a = ptolemy::tuningKnobsApplied();
    ptolemy::ensureTuningApplied();
    EXPECT_EQ(ptolemy::tuningKnobsApplied(), a);
}

} // namespace
