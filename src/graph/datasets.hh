/**
 * @file
 * Table-4 dataset registry.
 *
 * Each entry reproduces the published |V|, |E|, average degree and
 * max-degree statistics of a real graph with a deterministic synthetic
 * generator (see DESIGN.md §4/§5 for the substitution rationale).
 * The four large graphs (M, Y, P, L) are scaled down by the recorded
 * factor to keep simulation tractable; the degree *shape* (avg degree,
 * maxD/|V| ratio) is preserved.
 */

#ifndef SPARSECORE_GRAPH_DATASETS_HH
#define SPARSECORE_GRAPH_DATASETS_HH

#include <memory>
#include <string>
#include <vector>

#include "common/cache.hh"
#include "graph/csr_graph.hh"
#include "graph/labeled_graph.hh"

namespace sc::graph {

/** Descriptor of one Table-4 dataset. */
struct GraphDataset
{
    std::string key;        ///< one-letter code used by the figures
    std::string name;       ///< dataset name from Table 4
    VertexId numVertices;   ///< generated |V|
    std::uint64_t numEdges; ///< generated |E| (undirected)
    std::uint32_t maxDegree;///< target maximum degree
    double alpha;           ///< power-law exponent used by Chung-Lu
    double scale;           ///< published-size / generated-size factor
};

/** All ten Table-4 datasets in paper order (C,E,B,G,F,W,M,Y,P,L). */
const std::vector<GraphDataset> &graphDatasets();

/** Lookup by one-letter key ("C".."L"); fatal() on unknown keys. */
const GraphDataset &graphDataset(const std::string &key);

/**
 * Generate (and memoize) the graph for a dataset key. The memo is a
 * common/cache.hh LruCache shared with the artifact store's report:
 * a graph is generated exactly once per process, even under
 * concurrent sweep points. Returned
 * references stay valid for the process lifetime (the registry cache
 * is unbounded — dataset graphs are the roots every other artifact
 * hangs off).
 */
const CsrGraph &loadGraph(const std::string &key);

/** loadGraph with shared ownership, for callers that manage artifact
 *  lifetime explicitly (api::ArtifactStore). */
std::shared_ptr<const CsrGraph> loadGraphShared(const std::string &key);

/** Labeled variant of a dataset (FSM); labels drawn from num_labels. */
const LabeledGraph &loadLabeledGraph(const std::string &key,
                                     std::uint32_t num_labels = 8);

/** Shared-ownership variant of loadLabeledGraph. */
std::shared_ptr<const LabeledGraph>
loadLabeledGraphShared(const std::string &key,
                       std::uint32_t num_labels = 8);

/** Hit/miss counters of the dataset registry caches (graphs,
 *  labeled graphs) — surfaced through api::ArtifactStore::stats(). */
CacheStats graphCacheStats();
CacheStats labeledGraphCacheStats();

/** The dataset keys used by each figure's x-axis. */
std::vector<std::string> smallGraphKeys();  ///< B,E,F,W (Figs. 12/13)
std::vector<std::string> mediumGraphKeys(); ///< E,F,W,M,Y (Fig. 7)
std::vector<std::string> allGraphKeys();    ///< all ten (Figs. 8-10)

} // namespace sc::graph

#endif // SPARSECORE_GRAPH_DATASETS_HH
