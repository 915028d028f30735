#include "common/config.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace sc {

namespace {

std::optional<std::string>
envLookup(const char *name)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return std::nullopt;
    return std::string(v);
}

bool
oneOf(const std::string &v, std::initializer_list<const char *> set)
{
    for (const char *s : set)
        if (v == s)
            return true;
    return false;
}

} // namespace

Config
loadConfig(
    const std::function<std::optional<std::string>(const char *)>
        &lookup)
{
    Config cfg;

    if (const auto v = lookup("SC_JOB_SCHED")) {
        if (!oneOf(*v, {"fifo", "affinity"}))
            fatal("SC_JOB_SCHED='%s' (expected fifo|affinity)",
                  v->c_str());
        cfg.jobSched = *v;
    }

    if (const auto v = lookup("SC_VERIFY"))
        cfg.verify = (*v)[0] != '0';

    if (const auto v = lookup("SC_ARTIFACT_CACHE")) {
        if (oneOf(*v, {"on", "1"}))
            cfg.artifactCache = true;
        else if (oneOf(*v, {"off", "0"}))
            cfg.artifactCache = false;
        else
            fatal("SC_ARTIFACT_CACHE must be off|on|0|1, got '%s'",
                  v->c_str());
    }

    if (const auto v = lookup("SC_ARTIFACT_CACHE_BYTES")) {
        char *end = nullptr;
        const unsigned long long bytes =
            std::strtoull(v->c_str(), &end, 10);
        if (end == v->c_str() || *end)
            fatal("SC_ARTIFACT_CACHE_BYTES must be a byte count, "
                  "got '%s'",
                  v->c_str());
        cfg.artifactCacheBytes = static_cast<std::size_t>(bytes);
    }

    if (const auto v = lookup("SC_HOST_THREADS")) {
        char *end = nullptr;
        const long threads = std::strtol(v->c_str(), &end, 10);
        if (end && *end == '\0' && threads >= 1 && threads <= 1024)
            cfg.hostThreads = static_cast<unsigned>(threads);
        else
            warn("ignoring invalid SC_HOST_THREADS='%s'", v->c_str());
    }

    if (const auto v = lookup("SC_FORCE_KERNEL")) {
        if (oneOf(*v, {"auto", "scalar", "avx2"}))
            cfg.forceKernel = *v;
        else
            warn("SC_FORCE_KERNEL='%s' not recognized "
                 "(want scalar|avx2|auto); auto-detecting",
                 v->c_str());
    }

    if (const auto v = lookup("SC_BENCH_DIR"))
        cfg.benchDir = *v;

    if (const auto v = lookup("SC_BENCH_SMOKE"))
        cfg.benchSmoke = *v != "0";

    return cfg;
}

const Config &
config()
{
    static const Config cfg = loadConfig(envLookup);
    return cfg;
}

std::vector<ConfigKnob>
describeConfig()
{
    const Config &cfg = config();
    auto row = [](std::string name, std::string value, bool from_env,
                  std::string choices, std::string help) {
        return ConfigKnob{std::move(name), std::move(value),
                          from_env ? "env" : "default",
                          std::move(choices), std::move(help)};
    };
    const auto set = [](const char *name) {
        const char *v = std::getenv(name);
        return v && *v;
    };
    std::vector<ConfigKnob> knobs;
    knobs.push_back(row(
        "SC_JOB_SCHED", cfg.jobSched, set("SC_JOB_SCHED"),
        "fifo|affinity",
        "JobQueue scheduling policy (affinity parks cold-dataset "
        "siblings)"));
    knobs.push_back(row(
        "SC_VERIFY",
        cfg.verify ? (*cfg.verify ? "1" : "0") : "build-type",
        set("SC_VERIFY"), "0|1",
        "stream-lifetime verifier (default: on in debug builds)"));
    knobs.push_back(row(
        "SC_ARTIFACT_CACHE", cfg.artifactCache ? "on" : "off",
        set("SC_ARTIFACT_CACHE"), "off|on|0|1",
        "content-keyed trace/program store"));
    knobs.push_back(row(
        "SC_ARTIFACT_CACHE_BYTES",
        std::to_string(cfg.artifactCacheBytes),
        set("SC_ARTIFACT_CACHE_BYTES"), "<bytes>",
        "per-cache LRU byte budget (default 1 GiB)"));
    knobs.push_back(row(
        "SC_HOST_THREADS",
        cfg.hostThreads ? std::to_string(cfg.hostThreads) : "auto",
        set("SC_HOST_THREADS"), "1..1024",
        "host pool size (auto = hardware concurrency)"));
    knobs.push_back(row(
        "SC_FORCE_KERNEL", cfg.forceKernel, set("SC_FORCE_KERNEL"),
        "auto|scalar|avx2", "host SIMD set-op kernel level"));
    knobs.push_back(row(
        "SC_BENCH_DIR", cfg.benchDir, set("SC_BENCH_DIR"), "<dir>",
        "directory BENCH_*.json reports land in"));
    knobs.push_back(row(
        "SC_BENCH_SMOKE", cfg.benchSmoke ? "1" : "0",
        set("SC_BENCH_SMOKE"), "0|1",
        "shrink bench sweep targets ~64x for CI"));
    return knobs;
}

} // namespace sc
