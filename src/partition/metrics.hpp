// Partition quality metrics (Sec. VI-A of the paper):
//  * ECR  — edge cut ratio |D|/|E|,
//  * δv   — vertex balance factor max_i |V_i| * K / |V|,
//  * δe   — edge balance factor max_i |E_i| * K / |E| (|E_i| = out-edges of
//           the vertices assigned to P_i, matching vertex partitioning where
//           a vertex carries its adjacency list),
// plus the communication volume used by the PageRank example.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace spnl {

struct QualityMetrics {
  EdgeId cut_edges = 0;
  double ecr = 0.0;
  double delta_v = 0.0;
  double delta_e = 0.0;
  std::vector<VertexId> vertices_per_partition;
  std::vector<EdgeId> edges_per_partition;
};

/// Graphs with at least this many edges are evaluated on several threads.
inline constexpr EdgeId kParallelMetricsMinEdges = EdgeId{1} << 18;

/// Evaluates a complete route table against the graph. Throws if any vertex
/// is unassigned or any partition id >= k. From kParallelMetricsMinEdges
/// edges on, vertex chunks are summed in parallel; the result is the same.
QualityMetrics evaluate_partition(const Graph& graph,
                                  const std::vector<PartitionId>& route,
                                  PartitionId k);

/// Streaming variant for runs that never materialize the graph: one extra
/// pass over the stream (reset() it first if already consumed). Vertices the
/// stream does not mention count as degree-0; results are identical to the
/// Graph overload whenever the stream covers every vertex. From
/// kParallelMetricsMinEdges edges on, a stream that offers two or more
/// segments() is summed segment by segment in parallel and stays at its
/// first record; the result and the error reported are the same.
QualityMetrics evaluate_partition(AdjacencyStream& stream,
                                  const std::vector<PartitionId>& route,
                                  PartitionId k);

/// Total number of cross-partition messages one superstep of a push-style
/// vertex-centric computation (e.g. PageRank) would send: the count of edges
/// (u,v) with route[u] != route[v] — identical to cut_edges for directed
/// graphs, exposed under its systems name for the examples.
EdgeId communication_volume(const Graph& graph, const std::vector<PartitionId>& route);

/// True iff every vertex has a partition id < k.
bool is_complete_assignment(const std::vector<PartitionId>& route, PartitionId k);

/// Ground-truth recovery rate against planted labels: the fraction of
/// vertices whose assigned partition maps onto their true community under
/// the best label matching found. Partition labels are arbitrary, so the
/// metric matches communities to partitions over the C x K confusion matrix
/// by greedy matching (repeatedly take the largest remaining cell, retiring
/// its row and column); when C == K the best cyclic label shift is taken as
/// a floor, which guarantees rate >= 1/K (for every vertex exactly one of
/// the K shifts agrees, so the best shift covers >= n/K vertices). Range is
/// therefore [1/K, 1] for C == K and [0, 1] otherwise; 1.0 means the
/// partition is the planted one up to label renaming. Empty inputs score 1.
/// Throws if sizes mismatch or any label is out of range.
double recovery_rate(const std::vector<PartitionId>& truth,
                     PartitionId num_communities,
                     const std::vector<PartitionId>& route, PartitionId k);

/// Compact "ECR=0.12 dv=1.05 de=2.31" summary for logs.
std::string summarize(const QualityMetrics& metrics);

}  // namespace spnl
