#include "graph/datasets.hh"

#include "common/logging.hh"
#include "graph/generators.hh"

namespace sc::graph {

namespace {

/**
 * The dataset registry caches, built on the shared artifact-cache
 * primitive: one entry per generated dataset, built exactly once even
 * when concurrent sweep points request the same key (the in-flight
 * dedup replaces the old race-and-discard scheme). Capacity is
 * unbounded — loadGraph() hands out plain references, and every
 * downstream artifact (trace, bytecode) keys off the resident
 * graph.
 */
LruCache<std::string, CsrGraph> &
graphCache()
{
    static LruCache<std::string, CsrGraph> cache(
        0, [](const CsrGraph &g) { return g.memoryBytes(); });
    return cache;
}

LruCache<std::string, LabeledGraph> &
labeledGraphCache()
{
    static LruCache<std::string, LabeledGraph> cache(
        0, [](const LabeledGraph &g) { return g.memoryBytes(); });
    return cache;
}

} // namespace

const std::vector<GraphDataset> &
graphDatasets()
{
    // Published statistics (Table 4):
    //   C citeseer            3.3K/4.5K  maxD 99
    //   E email-eu-core       1.0K/16.1K maxD 345
    //   B soc-sign-bitcoinalpha 3.8K/24K maxD 511
    //   G p2p-Gnutella08      6K/21K     maxD 97
    //   F socfb-Haverford76   1.4K/60K   maxD 375
    //   W wiki-vote           7K/104K    maxD 1065
    //   M mico                96.6K/1.1M maxD 1359  (scaled 1/4.4)
    //   Y com-youtube         1.1M/3.0M  maxD 28754 (scaled 1/27)
    //   P patent              3.8M/16.5M maxD 793   (scaled 1/62)
    //   L livejournal         4.8M/42.9M maxD 20333 (scaled 1/100)
    static const std::vector<GraphDataset> datasets = {
        {"C", "citeseer", 3300, 4500, 99, 2.6, 1.0},
        {"E", "email-eu-core", 1005, 16100, 345, 1.9, 1.0},
        {"B", "soc-sign-bitcoinalpha", 3783, 24000, 511, 2.0, 1.0},
        {"G", "p2p-Gnutella08", 6000, 21000, 97, 2.6, 1.0},
        {"F", "socfb-Haverford76", 1446, 60000, 375, 1.8, 1.0},
        {"W", "wiki-vote", 7100, 104000, 1065, 2.0, 1.0},
        {"M", "mico", 22000, 250000, 320, 2.1, 4.4},
        {"Y", "com-youtube", 40000, 110000, 1050, 1.9, 27.0},
        {"P", "patent", 61000, 266000, 120, 2.5, 62.0},
        {"L", "livejournal", 48000, 429000, 900, 2.1, 100.0},
    };
    return datasets;
}

const GraphDataset &
graphDataset(const std::string &key)
{
    for (const auto &dataset : graphDatasets())
        if (dataset.key == key)
            return dataset;
    fatal("unknown graph dataset key '%s'", key.c_str());
}

std::shared_ptr<const CsrGraph>
loadGraphShared(const std::string &key)
{
    return graphCache().getOrBuild(key, [&key] {
        const GraphDataset &ds = graphDataset(key);
        // Seed derived from the key so every dataset is distinct but
        // reproducible across runs.
        std::uint64_t seed = 0x5ca1ab1e;
        for (char c : ds.key)
            seed = seed * 131 + static_cast<unsigned char>(c);
        return std::make_shared<const CsrGraph>(generateChungLu(
            ds.numVertices, ds.numEdges, ds.maxDegree, ds.alpha, seed,
            ds.name));
    });
}

const CsrGraph &
loadGraph(const std::string &key)
{
    // The registry cache is unbounded, so the shared_ptr it retains
    // keeps the graph alive for the process; the reference is stable.
    return *loadGraphShared(key);
}

std::shared_ptr<const LabeledGraph>
loadLabeledGraphShared(const std::string &key, std::uint32_t num_labels)
{
    const std::string cache_key =
        key + "/" + std::to_string(num_labels);
    return labeledGraphCache().getOrBuild(cache_key, [&] {
        std::uint64_t seed = 0x1abe1ed;
        for (char c : key)
            seed = seed * 131 + static_cast<unsigned char>(c);
        return std::make_shared<const LabeledGraph>(
            LabeledGraph::withRandomLabels(loadGraph(key), num_labels,
                                           seed));
    });
}

const LabeledGraph &
loadLabeledGraph(const std::string &key, std::uint32_t num_labels)
{
    return *loadLabeledGraphShared(key, num_labels);
}

CacheStats
graphCacheStats()
{
    return graphCache().stats();
}

CacheStats
labeledGraphCacheStats()
{
    return labeledGraphCache().stats();
}

std::vector<std::string>
smallGraphKeys()
{
    return {"B", "E", "F", "W"};
}

std::vector<std::string>
mediumGraphKeys()
{
    return {"E", "F", "W", "M", "Y"};
}

std::vector<std::string>
allGraphKeys()
{
    return {"G", "C", "B", "E", "F", "W", "M", "Y", "P", "L"};
}

} // namespace sc::graph
