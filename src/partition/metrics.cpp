#include "partition/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/ordered_prefetch.hpp"

namespace spnl {

namespace {

[[noreturn]] void throw_unassigned(VertexId v) {
  throw std::invalid_argument("evaluate_partition: vertex " + std::to_string(v) +
                              " unassigned or partition id out of range");
}

// Ratios shared by both evaluate_partition overloads.
void finalize_metrics(QualityMetrics& metrics, VertexId n, EdgeId m, PartitionId k) {
  metrics.ecr = m == 0 ? 0.0 : static_cast<double>(metrics.cut_edges) / m;
  const VertexId max_v = n == 0 ? 0
                                : *std::max_element(metrics.vertices_per_partition.begin(),
                                                    metrics.vertices_per_partition.end());
  const EdgeId max_e = m == 0 ? 0
                              : *std::max_element(metrics.edges_per_partition.begin(),
                                                  metrics.edges_per_partition.end());
  metrics.delta_v = n == 0 ? 0.0 : static_cast<double>(max_v) * k / n;
  metrics.delta_e = m == 0 ? 0.0 : static_cast<double>(max_e) * k / m;
}

// Route-side accumulation (vertex balance + assignment validation) shared by
// both overloads; adjacency-side accumulation differs.
QualityMetrics count_vertices(const std::vector<PartitionId>& route, PartitionId k) {
  QualityMetrics metrics;
  metrics.vertices_per_partition.assign(k, 0);
  metrics.edges_per_partition.assign(k, 0);
  for (VertexId v = 0; v < route.size(); ++v) {
    const PartitionId p = route[v];
    if (p >= k) throw_unassigned(v);
    ++metrics.vertices_per_partition[p];
  }
  return metrics;
}

// Sums of one vertex chunk of the Graph overload, or of one stream segment
// (which leaves `vertices` empty: the route counts those).
struct ChunkSums {
  EdgeId cut_edges = 0;
  std::vector<VertexId> vertices;
  std::vector<EdgeId> edges;
};

void fold(QualityMetrics& metrics, const ChunkSums& part) {
  metrics.cut_edges += part.cut_edges;
  for (std::size_t p = 0; p < part.vertices.size(); ++p) {
    metrics.vertices_per_partition[p] += part.vertices[p];
  }
  for (std::size_t p = 0; p < part.edges.size(); ++p) {
    metrics.edges_per_partition[p] += part.edges[p];
  }
}

}  // namespace

QualityMetrics evaluate_partition(const Graph& graph,
                                  const std::vector<PartitionId>& route,
                                  PartitionId k) {
  const VertexId n = graph.num_vertices();
  if (route.size() != n) {
    throw std::invalid_argument("evaluate_partition: route size != |V|");
  }
  if (k == 0) throw std::invalid_argument("evaluate_partition: k must be >= 1");

  // Vertex chunks are summed on the spare cores and folded in order. Every
  // sum is an integer, so the split does not change the result, and the
  // first unassigned vertex is still the one reported.
  constexpr VertexId kChunkVertices = VertexId{1} << 16;
  const bool parallel = graph.num_edges() >= kParallelMetricsMinEdges;
  const VertexId chunk = parallel ? kChunkVertices : std::max<VertexId>(n, 1);
  const std::size_t chunks = (static_cast<std::size_t>(n) + chunk - 1) / chunk;
  OrderedPrefetch<ChunkSums> sums(
      chunks, parallel ? prefetch_helpers() : 0, [&](std::size_t c, ChunkSums& part) {
        part.cut_edges = 0;
        part.vertices.assign(k, 0);
        part.edges.assign(k, 0);
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min<std::size_t>(n, begin + chunk);
        for (auto v = static_cast<VertexId>(begin); v < end; ++v) {
          const PartitionId p = route[v];
          if (p >= k) throw_unassigned(v);
          ++part.vertices[p];
          part.edges[p] += graph.out_degree(v);
          for (VertexId u : graph.out_neighbors(v)) {
            if (route[u] != p) ++part.cut_edges;
          }
        }
      });
  QualityMetrics metrics;
  metrics.vertices_per_partition.assign(k, 0);
  metrics.edges_per_partition.assign(k, 0);
  while (const ChunkSums* part = sums.next()) fold(metrics, *part);
  finalize_metrics(metrics, n, graph.num_edges(), k);
  return metrics;
}

QualityMetrics evaluate_partition(AdjacencyStream& stream,
                                  const std::vector<PartitionId>& route,
                                  PartitionId k) {
  const VertexId n = stream.num_vertices();
  if (route.size() != n) {
    throw std::invalid_argument("evaluate_partition: route size != |V|");
  }
  if (k == 0) throw std::invalid_argument("evaluate_partition: k must be >= 1");

  QualityMetrics metrics = count_vertices(route, k);
  const auto sum_records = [&](AdjacencyStream& records, ChunkSums& part) {
    part.cut_edges = 0;
    part.edges.assign(k, 0);
    while (auto record = records.next()) {
      if (record->id >= n) {
        throw std::invalid_argument("evaluate_partition: stream record " +
                                    std::to_string(record->id) + " out of range");
      }
      const PartitionId p = route[record->id];
      part.edges[p] += record->out.size();
      for (VertexId u : record->out) {
        if (u >= n) {
          throw std::invalid_argument("evaluate_partition: neighbor " +
                                      std::to_string(u) + " out of range");
        }
        if (route[u] != p) ++part.cut_edges;
      }
    }
  };
  // A stream that offers segments is summed like the Graph overload's vertex
  // chunks: one segment per item on the spare cores, folded in stream order,
  // so the first bad record is still the one reported. Any other stream is
  // one item read inline.
  const std::size_t segments =
      stream.num_edges() >= kParallelMetricsMinEdges ? stream.segments() : 0;
  const bool parallel = segments >= 2;
  OrderedPrefetch<ChunkSums> sums(
      parallel ? segments : 1, parallel ? prefetch_helpers() : 0,
      [&](std::size_t i, ChunkSums& part) {
        if (parallel) {
          sum_records(*stream.segment(i), part);
        } else {
          sum_records(stream, part);
        }
      });
  while (const ChunkSums* part = sums.next()) fold(metrics, *part);
  finalize_metrics(metrics, n, stream.num_edges(), k);
  return metrics;
}

EdgeId communication_volume(const Graph& graph, const std::vector<PartitionId>& route) {
  EdgeId messages = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.out_neighbors(v)) {
      if (route[u] != route[v]) ++messages;
    }
  }
  return messages;
}

bool is_complete_assignment(const std::vector<PartitionId>& route, PartitionId k) {
  for (PartitionId p : route) {
    if (p >= k) return false;
  }
  return true;
}

double recovery_rate(const std::vector<PartitionId>& truth,
                     PartitionId num_communities,
                     const std::vector<PartitionId>& route, PartitionId k) {
  if (truth.size() != route.size()) {
    throw std::invalid_argument("recovery_rate: truth size != route size");
  }
  if (num_communities == 0 || k == 0) {
    throw std::invalid_argument("recovery_rate: need >= 1 community/partition");
  }
  const std::size_t n = truth.size();
  if (n == 0) return 1.0;

  // C x K confusion matrix.
  std::vector<std::uint64_t> cells(static_cast<std::size_t>(num_communities) * k,
                                   0);
  for (std::size_t v = 0; v < n; ++v) {
    if (truth[v] >= num_communities) {
      throw std::invalid_argument("recovery_rate: truth label out of range");
    }
    if (route[v] >= k) {
      throw std::invalid_argument("recovery_rate: partition id out of range");
    }
    ++cells[static_cast<std::size_t>(truth[v]) * k + route[v]];
  }

  // Greedy matching: take the largest remaining cell, retire its community
  // row and partition column, repeat min(C, K) times. Ties break toward the
  // lowest (community, partition) pair, keeping the metric deterministic.
  std::uint64_t matched = 0;
  std::vector<bool> row_done(num_communities, false), col_done(k, false);
  const PartitionId rounds = std::min(num_communities, k);
  for (PartitionId round = 0; round < rounds; ++round) {
    std::uint64_t best = 0;
    PartitionId best_row = 0, best_col = 0;
    bool found = false;
    for (PartitionId r = 0; r < num_communities; ++r) {
      if (row_done[r]) continue;
      for (PartitionId col = 0; col < k; ++col) {
        if (col_done[col]) continue;
        const std::uint64_t cell = cells[static_cast<std::size_t>(r) * k + col];
        if (!found || cell > best) {
          best = cell;
          best_row = r;
          best_col = col;
          found = true;
        }
      }
    }
    if (!found) break;
    matched += best;
    row_done[best_row] = true;
    col_done[best_col] = true;
  }

  // Cyclic-shift floor (C == K only): greedy matching is a 1/2-approximation
  // of the optimal assignment, which can dip below n/K on adversarial
  // confusion matrices; the best of the K cyclic shifts cannot.
  if (num_communities == k) {
    for (PartitionId shift = 0; shift < k; ++shift) {
      std::uint64_t agree = 0;
      for (PartitionId r = 0; r < k; ++r) {
        agree += cells[static_cast<std::size_t>(r) * k + (r + shift) % k];
      }
      if (agree > matched) matched = agree;
    }
  }
  return static_cast<double>(matched) / static_cast<double>(n);
}

std::string summarize(const QualityMetrics& metrics) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "ECR=%.4f dv=%.2f de=%.2f cut=%llu", metrics.ecr,
                metrics.delta_v, metrics.delta_e,
                static_cast<unsigned long long>(metrics.cut_edges));
  return buf;
}

}  // namespace spnl
