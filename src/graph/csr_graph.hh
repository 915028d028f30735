/**
 * @file
 * Compressed sparse row (CSR) graph (§3.2 of the paper).
 *
 * Two arrays: the vertex array (row offsets) and the edge array (each
 * vertex's neighbor list, sorted ascending). A third per-vertex array
 * — the CSR *offset* the paper loads into GFR2 — stores, for each
 * vertex v, the position within N(v) of the smallest neighbor larger
 * than v; it supports bounded intersection and symmetry breaking.
 *
 * Graphs carry synthetic base addresses so timing models can replay
 * their accesses through the cache hierarchy.
 */

#ifndef SPARSECORE_GRAPH_CSR_GRAPH_HH
#define SPARSECORE_GRAPH_CSR_GRAPH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sc::graph {

/** Immutable undirected graph in CSR form. */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Build from raw CSR arrays.
     * @param offsets row offsets, size numVertices+1
     * @param edges concatenated sorted neighbor lists
     */
    CsrGraph(std::vector<std::uint64_t> offsets, std::vector<VertexId> edges,
             std::string name = "graph");

    VertexId numVertices() const
    {
        return offsets_.empty()
                   ? 0
                   : static_cast<VertexId>(offsets_.size() - 1);
    }
    /** Directed edge-slot count (2x the undirected edge count). */
    std::uint64_t numEdgeSlots() const { return edges_.size(); }
    /** Undirected edge count. */
    std::uint64_t numEdges() const { return edges_.size() / 2; }

    std::uint32_t
    degree(VertexId v) const
    {
        return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
    }
    std::uint32_t maxDegree() const { return maxDegree_; }
    double avgDegree() const;

    /** Sorted neighbor list of v. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {edges_.data() + offsets_[v],
                edges_.data() + offsets_[v + 1]};
    }

    /** Neighbors of v strictly greater than v (uses the offset array). */
    std::span<const VertexId>
    neighborsAbove(VertexId v) const
    {
        return {edges_.data() + offsets_[v] + aboveOffsets_[v],
                edges_.data() + offsets_[v + 1]};
    }

    /** Neighbors of v strictly smaller than v. */
    std::span<const VertexId>
    neighborsBelow(VertexId v) const
    {
        return {edges_.data() + offsets_[v],
                edges_.data() + offsets_[v] + aboveOffsets_[v]};
    }

    /** Position within N(v) of the first neighbor > v (GFR2 content). */
    std::uint32_t aboveOffset(VertexId v) const { return aboveOffsets_[v]; }

    /** True when (u,v) is an edge (binary search). */
    bool hasEdge(VertexId u, VertexId v) const;

    /** Simulated byte address of N(v)'s first key (edge array). */
    Addr
    edgeListAddr(VertexId v) const
    {
        return edgeArrayBase_ + offsets_[v] * sizeof(VertexId);
    }
    /** Simulated byte address of the vertex-array entry for v. */
    Addr
    vertexEntryAddr(VertexId v) const
    {
        return vertexArrayBase_ + v * sizeof(std::uint64_t);
    }
    Addr vertexArrayBase() const { return vertexArrayBase_; }
    Addr edgeArrayBase() const { return edgeArrayBase_; }

    const std::string &name() const { return name_; }
    const std::vector<std::uint64_t> &offsets() const { return offsets_; }
    const std::vector<VertexId> &edges() const { return edges_; }

    /** Content fingerprint (FNV-1a over the CSR arrays, name
     *  excluded): identical for structurally identical graphs.
     *  Computed once at construction; the artifact store's content
     *  keys (api/artifact_store.hh) are built from it. */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** Approximate resident bytes of the CSR arrays + offset array
     *  (artifact-store byte accounting). */
    std::size_t
    memoryBytes() const
    {
        return offsets_.size() * sizeof(std::uint64_t) +
               edges_.size() * sizeof(VertexId) +
               aboveOffsets_.size() * sizeof(std::uint32_t);
    }

  private:
    std::vector<std::uint64_t> offsets_;
    std::vector<VertexId> edges_;
    std::vector<std::uint32_t> aboveOffsets_;
    std::uint32_t maxDegree_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::string name_;

    // Synthetic address map: vertex array first, edge array after it,
    // both offset from a fixed heap base.
    Addr vertexArrayBase_ = 0x100000000ull;
    Addr edgeArrayBase_ = 0;
};

} // namespace sc::graph

#endif // SPARSECORE_GRAPH_CSR_GRAPH_HH
