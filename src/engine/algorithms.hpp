// The standard vertex-centric algorithms on top of the BSP engine — the
// workloads the paper's introduction motivates (PageRank, Shortest Path) plus
// the usual connectivity suspects. Each returns the computed values and the
// engine's communication statistics under the given partitioning.
#pragma once

#include "engine/bsp.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace spnl {

/// PageRank with damping 0.85 for a fixed number of supersteps.
BspResult pagerank(const Graph& graph, const std::vector<PartitionId>& route,
                   PartitionId k, int supersteps = 20,
                   double remote_cost_factor = 20.0);

/// BFS depth from `source` (unreached = +inf). Also serves as unit-weight
/// SSSP.
BspResult bfs_depths(const Graph& graph, const std::vector<PartitionId>& route,
                     PartitionId k, VertexId source,
                     double remote_cost_factor = 20.0);

/// Weakly connected components via min-label propagation over the
/// symmetrized graph; values are component labels (smallest member id).
BspResult connected_components(const Graph& graph,
                               const std::vector<PartitionId>& route,
                               PartitionId k, double remote_cost_factor = 20.0);

/// Deterministic synthetic edge weight in [1, 10) for the weighted SSSP
/// (real datasets carry no weights; a fixed hash keeps runs reproducible).
double synthetic_edge_weight(VertexId from, VertexId to);

/// Single-source shortest paths with synthetic_edge_weight on every edge
/// (Bellman-Ford-style relaxation over BSP; unreached = +inf).
BspResult sssp(const Graph& graph, const std::vector<PartitionId>& route,
               PartitionId k, VertexId source, double remote_cost_factor = 20.0);

}  // namespace spnl
