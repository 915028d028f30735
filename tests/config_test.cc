/**
 * @file
 * Tests for the consolidated environment-knob loader
 * (common/config.hh): defaults, parsing, precedence of the injected
 * lookup, strict rejection of malformed values on load-bearing knobs
 * and warn-and-fall-back on tuning knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"

using namespace sc;

namespace {

/** loadConfig over a fixed environment map. */
Config
load(const std::map<std::string, std::string> &env)
{
    return loadConfig(
        [&env](const char *name) -> std::optional<std::string> {
            const auto it = env.find(name);
            if (it == env.end())
                return std::nullopt;
            return it->second;
        });
}

} // namespace

TEST(Config, Defaults)
{
    const Config cfg = load({});
    EXPECT_EQ(cfg.jobSched, "affinity");
    EXPECT_FALSE(cfg.verify.has_value());
    EXPECT_TRUE(cfg.artifactCache);
    EXPECT_EQ(cfg.artifactCacheBytes, std::size_t{1} << 30);
    EXPECT_EQ(cfg.hostThreads, 0u);
    EXPECT_EQ(cfg.forceKernel, "auto");
    EXPECT_EQ(cfg.benchDir, "bench_results");
    EXPECT_FALSE(cfg.benchSmoke);
}

TEST(Config, ParsesEveryKnob)
{
    const Config cfg = load({
        {"SC_JOB_SCHED", "fifo"},
        {"SC_VERIFY", "1"},
        {"SC_ARTIFACT_CACHE", "off"},
        {"SC_ARTIFACT_CACHE_BYTES", "1048576"},
        {"SC_HOST_THREADS", "8"},
        {"SC_FORCE_KERNEL", "scalar"},
        {"SC_BENCH_DIR", "/tmp/b"},
        {"SC_BENCH_SMOKE", "1"},
    });
    EXPECT_EQ(cfg.jobSched, "fifo");
    ASSERT_TRUE(cfg.verify.has_value());
    EXPECT_TRUE(*cfg.verify);
    EXPECT_FALSE(cfg.artifactCache);
    EXPECT_EQ(cfg.artifactCacheBytes, 1048576u);
    EXPECT_EQ(cfg.hostThreads, 8u);
    EXPECT_EQ(cfg.forceKernel, "scalar");
    EXPECT_EQ(cfg.benchDir, "/tmp/b");
    EXPECT_TRUE(cfg.benchSmoke);
}

TEST(Config, VerifyZeroDisables)
{
    const Config cfg = load({{"SC_VERIFY", "0"}});
    ASSERT_TRUE(cfg.verify.has_value());
    EXPECT_FALSE(*cfg.verify);
}

TEST(Config, LoadBearingKnobsRejectBadValues)
{
    // A typo in the scheduler or cache knobs must fail loudly, not
    // silently run a different experiment.
    EXPECT_THROW(load({{"SC_JOB_SCHED", "lifo"}}), SimError);
    EXPECT_THROW(load({{"SC_ARTIFACT_CACHE", "maybe"}}), SimError);
    EXPECT_THROW(load({{"SC_ARTIFACT_CACHE_BYTES", "1GB"}}), SimError);
}

TEST(Config, TuningKnobsWarnAndFallBack)
{
    // Host-side tuning knobs never change simulated results, so a
    // bad value degrades to the default instead of aborting.
    EXPECT_EQ(load({{"SC_HOST_THREADS", "0"}}).hostThreads, 0u);
    EXPECT_EQ(load({{"SC_HOST_THREADS", "99999"}}).hostThreads, 0u);
    EXPECT_EQ(load({{"SC_HOST_THREADS", "four"}}).hostThreads, 0u);
    EXPECT_EQ(load({{"SC_FORCE_KERNEL", "avx512"}}).forceKernel,
              "auto");
    // "sse" names no kernel level: it auto-detects like any unknown
    // value.
    EXPECT_EQ(load({{"SC_FORCE_KERNEL", "sse"}}).forceKernel, "auto");
}

TEST(Config, ReadsExactlyTheDescribedKnobs)
{
    // The loader looks up only the knobs describeConfig() lists, so
    // an environment still exporting a retired knob runs unaffected.
    std::vector<std::string> asked;
    loadConfig([&](const char *name) -> std::optional<std::string> {
        asked.emplace_back(name);
        return std::nullopt;
    });
    std::vector<std::string> described;
    for (const ConfigKnob &k : describeConfig())
        described.push_back(k.name);
    std::sort(asked.begin(), asked.end());
    std::sort(described.begin(), described.end());
    EXPECT_EQ(asked, described);
}

TEST(Config, ProcessConfigIsStable)
{
    // config() is read-once: two calls return the same object.
    EXPECT_EQ(&config(), &config());
}

TEST(Config, DescribeCoversEveryKnob)
{
    const auto knobs = describeConfig();
    ASSERT_EQ(knobs.size(), 8u);
    for (const ConfigKnob &k : knobs) {
        EXPECT_EQ(k.name.rfind("SC_", 0), 0u) << k.name;
        EXPECT_FALSE(k.value.empty()) << k.name;
        EXPECT_FALSE(k.help.empty()) << k.name;
        EXPECT_TRUE(k.source == "env" || k.source == "default")
            << k.name;
    }
}
