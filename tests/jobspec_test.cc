/**
 * @file
 * Tests for the serializable JobSpec API (api/jobspec.hh): schema
 * versioning, canonical round-trips, strict rejection of malformed
 * job descriptors with structured diagnostics (never a throw), name
 * resolution against the dataset registries, and a seeded mutation
 * sweep over a valid-job corpus.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "api/jobspec.hh"

using namespace sc;
using api::JobSpec;
using api::parseJobSpec;
using api::resolveJob;

namespace {

/** All diagnostics joined, for failure messages. */
std::string
diagStr(const std::vector<api::JobDiag> &errors)
{
    std::string out;
    for (const auto &e : errors)
        out += e.field + ": " + e.message + "; ";
    return out;
}

/** Fields named by at least one diagnostic. */
std::vector<std::string>
diagFields(const std::vector<api::JobDiag> &errors)
{
    std::vector<std::string> fields;
    for (const auto &e : errors)
        fields.push_back(e.field);
    return fields;
}

bool
hasField(const std::vector<api::JobDiag> &errors,
         const std::string &field)
{
    for (const auto &e : errors)
        if (e.field == field)
            return true;
    return false;
}

/** A corpus of valid v1 job descriptions, one per workload/shape. */
const std::vector<std::string> &
validCorpus()
{
    static const std::vector<std::string> corpus = {
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W"})",
        R"({"version":1,"id":"x","workload":"gpm","app":"4C","dataset":"C","mode":"run","substrate":"cpu"})",
        R"({"version":1,"workload":"gpm","app":"TC","dataset":"W","arch":{"sus":8,"window":32,"bandwidth":64,"nested":false}})",
        R"({"version":1,"workload":"fsm","dataset":"C","min_support":500,"num_labels":4})",
        R"({"version":1,"workload":"spmspm","dataset":"C","dataset_b":"E","algorithm":"inner"})",
        R"({"version":1,"workload":"ttv","dataset":"Ch","options":{"stride":8,"verify":false}})",
        R"({"version":1,"workload":"ttm","dataset":"U","options":{"stride":16,"host_threads":2,"kernel":"scalar","artifact_cache":false}})",
        R"({"version":1,"id":"p","priority":9,"workload":"gpm","app":"T","dataset":"W"})",
    };
    return corpus;
}

} // namespace

TEST(JobSpec, ParsesMinimalJob)
{
    const auto r = parseJobSpec(
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W"})");
    ASSERT_TRUE(r.ok()) << diagStr(r.errors);
    EXPECT_EQ(r.spec->workload, api::RunRequest::Workload::Gpm);
    EXPECT_EQ(r.spec->dataset, "W");
    EXPECT_EQ(r.spec->mode, api::JobMode::Compare);
}

TEST(JobSpec, PriorityParsesValidatesAndRoundTrips)
{
    // Default 0 is omitted from the canonical form (back-compat with
    // pre-priority v1 documents); nonzero values round-trip.
    const auto plain = parseJobSpec(
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W"})");
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain.spec->priority, 0);
    EXPECT_EQ(plain.spec->toJson().find("priority"),
              std::string::npos);

    const auto high = parseJobSpec(
        R"({"version":1,"priority":7,"workload":"fsm","dataset":"C",)"
        R"("min_support":500})");
    ASSERT_TRUE(high.ok()) << diagStr(high.errors);
    EXPECT_EQ(high.spec->priority, 7);
    const auto round = parseJobSpec(high.spec->toJson());
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(round.spec->priority, 7);

    // Out-of-range and wrong-typed priorities are structured errors.
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"priority":101,)"
                     R"("workload":"gpm","dataset":"W"})")
            .errors,
        "priority"));
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"priority":-1,)"
                     R"("workload":"gpm","dataset":"W"})")
            .errors,
        "priority"));
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"priority":"high",)"
                     R"("workload":"gpm","dataset":"W"})")
            .errors,
        "priority"));
    // validateJobSpec catches a bad directly-built spec too.
    api::JobSpec spec;
    spec.dataset = "W";
    spec.priority = 500;
    EXPECT_TRUE(hasField(validateJobSpec(spec), "priority"));
}

TEST(JobSpec, ResolveExposesDatasetAffinityKeys)
{
    // gpm/fsm jobs route through the ArtifactStore, so their
    // affinity key is the store trace key; tensor workloads share no
    // store artifacts and get no affinity. The specs turn the store
    // on themselves, so the keys do not depend on SC_ARTIFACT_CACHE.
    const auto gpm = parseJobSpec(
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W",)"
        R"("options":{"artifact_cache":true}})");
    ASSERT_TRUE(gpm.ok());
    const auto gpm_resolved = resolveJob(*gpm.spec);
    ASSERT_TRUE(gpm_resolved.ok());
    EXPECT_EQ(gpm_resolved.job->affinityKey.rfind("gpm/T/g", 0), 0u);

    const auto fsm = parseJobSpec(
        R"({"version":1,"workload":"fsm","dataset":"C",)"
        R"("min_support":500,"options":{"artifact_cache":true}})");
    ASSERT_TRUE(fsm.ok());
    const auto fsm_resolved = resolveJob(*fsm.spec);
    ASSERT_TRUE(fsm_resolved.ok());
    EXPECT_EQ(fsm_resolved.job->affinityKey.rfind("fsm/lg", 0), 0u);

    const auto ttv = parseJobSpec(
        R"({"version":1,"workload":"ttv","dataset":"Ch"})");
    ASSERT_TRUE(ttv.ok());
    const auto ttv_resolved = resolveJob(*ttv.spec);
    ASSERT_TRUE(ttv_resolved.ok());
    EXPECT_TRUE(ttv_resolved.job->affinityKey.empty());

    // Same dataset + sampling -> same lane; different dataset or
    // sampling -> different lane.
    const auto again = resolveJob(*gpm.spec);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.job->affinityKey, gpm_resolved.job->affinityKey);
    auto strided = *gpm.spec;
    strided.options.rootStride = 4;
    const auto strided_resolved = resolveJob(strided);
    ASSERT_TRUE(strided_resolved.ok());
    EXPECT_NE(strided_resolved.job->affinityKey,
              gpm_resolved.job->affinityKey);

    // A disabled artifact cache shares nothing: no affinity lane.
    auto uncached = *gpm.spec;
    uncached.options.artifactCache = false;
    const auto uncached_resolved = resolveJob(uncached);
    ASSERT_TRUE(uncached_resolved.ok());
    EXPECT_TRUE(uncached_resolved.job->affinityKey.empty());
}

TEST(JobSpec, CanonicalJsonRoundTrips)
{
    for (const std::string &text : validCorpus()) {
        const auto first = parseJobSpec(text);
        ASSERT_TRUE(first.ok()) << text << " -> "
                                << diagStr(first.errors);
        const std::string canonical = first.spec->toJson();
        const auto second = parseJobSpec(canonical);
        ASSERT_TRUE(second.ok()) << canonical;
        EXPECT_EQ(second.spec->toJson(), canonical) << text;
    }
}

TEST(JobSpec, VersionIsRequiredAndChecked)
{
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"workload":"gpm","dataset":"W"})").errors,
        "version"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":2,"workload":"gpm","dataset":"W"})")
            .errors,
        "version"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":"1","workload":"gpm","dataset":"W"})")
            .errors,
        "version"));
}

TEST(JobSpec, TruncatedJsonIsAStructuredError)
{
    const auto r = parseJobSpec(R"({"version":1,"workload":"gp)");
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors[0].message.find("line"), std::string::npos);
}

TEST(JobSpec, UnknownEnumStringsAreRejected)
{
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"workload":"graph"})").errors,
        "workload"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","app":"T9","dataset":"W"})")
            .errors,
        "app"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("mode":"run","substrate":"gpu"})")
            .errors,
        "substrate"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"spmspm","dataset":"C",)"
            R"("algorithm":"fast"})")
            .errors,
        "algorithm"));
    // "sse" names no kernel level: a bad choice, not an abort.
    const auto sse = parseJobSpec(
        R"({"version":1,"workload":"ttv","dataset":"Ch",)"
        R"("options":{"kernel":"sse"}})");
    ASSERT_TRUE(hasField(sse.errors, "options.kernel"));
    EXPECT_NE(sse.errors[0].message.find("(expected auto|scalar|avx2)"),
              std::string::npos)
        << sse.errors[0].message;
}

TEST(JobSpec, UnknownFieldsAreRejectedEverywhere)
{
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W","speed":9})")
            .errors,
        "speed"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("arch":{"cores":6}})")
            .errors,
        "arch.cores"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("options":{"threads":4}})")
            .errors,
        "options.threads"));
    // Option names the schema no longer has are unknown fields too,
    // and the diagnostic lists what options accepts.
    for (const char *field : {"replay", "index_policy"}) {
        const auto r = parseJobSpec(
            std::string(R"({"version":1,"workload":"gpm","dataset":"W",)"
                        R"("options":{")") +
            field + R"(":"auto"}})");
        ASSERT_TRUE(hasField(r.errors, std::string("options.") + field))
            << field;
        EXPECT_NE(r.errors[0].message.find(
                      "stride, root_stride, host_threads, kernel, "
                      "verify, artifact_cache)"),
                  std::string::npos)
            << r.errors[0].message;
    }
}

TEST(JobSpec, MissingDatasetReferences)
{
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"workload":"gpm","app":"T"})")
            .errors,
        "dataset"));
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"workload":"fsm"})").errors,
        "dataset"));
    EXPECT_TRUE(hasField(
        parseJobSpec(R"({"version":1,"workload":"ttm"})").errors,
        "dataset"));
    // dataset and graph_file are mutually exclusive for gpm.
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("graph_file":"/tmp/x.txt"})")
            .errors,
        "dataset"));
}

TEST(JobSpec, OutOfRangeNumbers)
{
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"ttv","dataset":"Ch",)"
            R"("options":{"stride":0}})")
            .errors,
        "options.stride"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"ttv","dataset":"Ch",)"
            R"("options":{"stride":10000000000}})")
            .errors,
        "options.stride"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("options":{"root_stride":-3}})")
            .errors,
        "options.root_stride"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"fsm","dataset":"C",)"
            R"("min_support":0})")
            .errors,
        "min_support"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("arch":{"sus":0}})")
            .errors,
        "arch.sus"));
}

TEST(JobSpec, WorkloadApplicabilityIsChecked)
{
    // FSM fields on a gpm job, gpm fields on a tensor job, ...
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("min_support":5})")
            .errors,
        "min_support"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"ttv","dataset":"Ch",)"
            R"("app":"T"})")
            .errors,
        "app"));
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"fsm","dataset":"C",)"
            R"("algorithm":"inner"})")
            .errors,
        "algorithm"));
    // substrate without mode=run is meaningless.
    EXPECT_TRUE(hasField(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("substrate":"cpu"})")
            .errors,
        "substrate"));
}

TEST(JobSpec, WrongTypesAreRejected)
{
    EXPECT_FALSE(parseJobSpec(R"([1,2,3])").ok());
    EXPECT_FALSE(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":17})")
            .ok());
    EXPECT_FALSE(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("options":{"stride":2.5}})")
            .ok());
    EXPECT_FALSE(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("options":{"verify":"yes"}})")
            .ok());
    EXPECT_FALSE(
        parseJobSpec(
            R"({"version":1,"workload":"gpm","dataset":"W",)"
            R"("arch":3})")
            .ok());
}

TEST(JobSpec, ResolveRejectsUnknownRegistryKeys)
{
    const auto parse = [](const char *text) {
        const auto r = parseJobSpec(text);
        EXPECT_TRUE(r.ok()) << diagStr(r.errors);
        return *r.spec;
    };
    {
        const auto r = resolveJob(parse(
            R"({"version":1,"workload":"gpm","dataset":"ZZ"})"));
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(hasField(r.errors, "dataset"));
        // The diagnostic lists the valid keys.
        EXPECT_NE(r.errors[0].message.find("W"), std::string::npos);
    }
    EXPECT_FALSE(
        resolveJob(parse(
            R"({"version":1,"workload":"spmspm","dataset":"QQ"})"))
            .ok());
    EXPECT_FALSE(
        resolveJob(parse(
            R"({"version":1,"workload":"ttv","dataset":"W"})"))
            .ok());
    EXPECT_FALSE(
        resolveJob(parse(
            R"({"version":1,"workload":"gpm",)"
            R"("graph_file":"/nonexistent/edges.txt"})"))
            .ok());
}

TEST(JobSpec, ResolveBuildsARunnableRequest)
{
    const auto r = parseJobSpec(
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W",)"
        R"("arch":{"sus":8}})");
    ASSERT_TRUE(r.ok());
    const auto resolved = resolveJob(*r.spec);
    ASSERT_TRUE(resolved.ok()) << diagStr(resolved.errors);
    const api::ResolvedJob &job = *resolved.job;
    EXPECT_EQ(job.config.numSus, 8u);
    ASSERT_NE(job.request.graph, nullptr);
    EXPECT_EQ(job.request.graph, job.graph.get());
    EXPECT_EQ(job.request.workload, api::RunRequest::Workload::Gpm);
}

TEST(JobSpec, SeededMutationSweepNeverThrows)
{
    // Deterministic fuzz: mutate every corpus entry a few hundred
    // ways (truncate, flip, insert, delete) — every mutant must come
    // back as ok() or as structured diagnostics; a throw or crash
    // fails the test (and would take down a server batch).
    std::mt19937 rng(0xC0FFEE);
    const std::string charset =
        "{}[]\",:0123456789abcdefghijklmnopqrstuvwxyz \\";
    unsigned parsed_ok = 0, rejected = 0;
    for (const std::string &base : validCorpus()) {
        for (int i = 0; i < 200; ++i) {
            std::string mutant = base;
            switch (rng() % 4) {
              case 0: // truncate
                mutant.resize(rng() % (mutant.size() + 1));
                break;
              case 1: // flip one byte
                if (!mutant.empty())
                    mutant[rng() % mutant.size()] =
                        charset[rng() % charset.size()];
                break;
              case 2: // insert one byte
                mutant.insert(mutant.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      rng() % (mutant.size() + 1)),
                              charset[rng() % charset.size()]);
                break;
              default: // delete one byte
                if (!mutant.empty())
                    mutant.erase(mutant.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     rng() % mutant.size()));
                break;
            }
            const auto r = parseJobSpec(mutant); // must not throw
            if (r.ok()) {
                ++parsed_ok;
                // An accepted mutant must round-trip like any other
                // valid spec.
                EXPECT_TRUE(
                    parseJobSpec(r.spec->toJson()).ok())
                    << mutant;
            } else {
                ++rejected;
                EXPECT_FALSE(r.errors.empty()) << mutant;
            }
        }
    }
    // The sweep must actually exercise both outcomes.
    EXPECT_GT(parsed_ok, 0u);
    EXPECT_GT(rejected, 800u);
}

TEST(JobSpec, DiagnosticsSerializeToJson)
{
    const auto r = parseJobSpec(
        R"({"version":1,"workload":"gpm","dataset":"W","bogus":1})");
    ASSERT_FALSE(r.ok());
    const std::string dumped = r.errors[0].toJsonValue().dump();
    EXPECT_NE(dumped.find("\"field\":\"bogus\""), std::string::npos);
    EXPECT_EQ(diagFields(r.errors).size(), r.errors.size());
}
