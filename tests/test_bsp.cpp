#include <gtest/gtest.h>

#include <cmath>
#include <queue>

#include "engine/algorithms.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "partition/driver.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/range_partitioner.hpp"

namespace spnl {
namespace {

std::vector<PartitionId> route_for(const Graph& g, PartitionId k) {
  PartitionConfig config{.num_partitions = k};
  RangePartitioner partitioner(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  return run_streaming(stream, partitioner).route;
}

/// Reference PageRank identical to the engine's semantics.
std::vector<double> reference_pagerank(const Graph& g, int supersteps) {
  const VertexId n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int step = 0; step < supersteps; ++step) {
    std::fill(next.begin(), next.end(), 0.15 / n);
    for (VertexId v = 0; v < n; ++v) {
      const EdgeId degree = g.out_degree(v);
      if (degree == 0) continue;
      const double share = 0.85 * rank[v] / degree;
      for (VertexId u : g.out_neighbors(v)) next[u] += share;
    }
    std::swap(rank, next);
  }
  return rank;
}

/// Reference BFS depths (out-edges only).
std::vector<double> reference_bfs(const Graph& g, VertexId source) {
  std::vector<double> depth(g.num_vertices(), std::numeric_limits<double>::infinity());
  std::queue<VertexId> queue;
  depth[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    for (VertexId u : g.out_neighbors(v)) {
      if (depth[u] > depth[v] + 1) {
        depth[u] = depth[v] + 1;
        queue.push(u);
      }
    }
  }
  return depth;
}

TEST(Bsp, PageRankMatchesReference) {
  const Graph g = generate_webcrawl({.num_vertices = 2000, .avg_out_degree = 6.0,
                                     .seed = 3});
  const auto route = route_for(g, 4);
  const auto result = pagerank(g, route, 4, 15);
  const auto expected = reference_pagerank(g, 15);
  ASSERT_EQ(result.values.size(), expected.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(result.values[v], expected[v], 1e-12);
  }
  EXPECT_EQ(result.stats.supersteps, 15);
}

TEST(Bsp, PageRankValuesSumToOne) {
  const Graph g = generate_ring_lattice(1000, 2);  // no sinks
  const auto route = route_for(g, 8);
  const auto result = pagerank(g, route, 8, 20);
  double sum = 0.0;
  for (double v : result.values) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Bsp, BfsMatchesReference) {
  const Graph g = generate_webcrawl({.num_vertices = 3000, .avg_out_degree = 5.0,
                                     .seed = 5});
  const auto route = route_for(g, 4);
  const auto result = bfs_depths(g, route, 4, /*source=*/0);
  const auto expected = reference_bfs(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(result.values[v], expected[v]) << "vertex " << v;
  }
}

TEST(Bsp, BfsTerminatesBeforeMaxSupersteps) {
  const Graph g = generate_ring_lattice(100, 1);
  const auto route = route_for(g, 2);
  const auto result = bfs_depths(g, route, 2, 0);
  EXPECT_LE(result.stats.supersteps, 100);
  EXPECT_EQ(result.values[99], 99.0);
}

TEST(Bsp, ConnectedComponentsFindsComponents) {
  GraphBuilder builder(7);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(4, 3);  // direction against id order: needs symmetrization
  builder.add_edge(5, 6);
  const Graph g = builder.finish();
  // Route over the symmetrized graph (same |V|).
  const auto route = route_for(g, 2);
  const auto result = connected_components(g, route, 2);
  EXPECT_EQ(result.values[0], 0.0);
  EXPECT_EQ(result.values[1], 0.0);
  EXPECT_EQ(result.values[2], 0.0);
  EXPECT_EQ(result.values[3], 3.0);
  EXPECT_EQ(result.values[4], 3.0);
  EXPECT_EQ(result.values[5], 5.0);
  EXPECT_EQ(result.values[6], 5.0);
}

TEST(Bsp, WeightedSsspMatchesDijkstra) {
  const Graph g = generate_webcrawl({.num_vertices = 1500, .avg_out_degree = 5.0,
                                     .seed = 9});
  const auto route = route_for(g, 4);
  const auto result = sssp(g, route, 4, 0);

  // Dijkstra reference with the same synthetic weights.
  std::vector<double> dist(g.num_vertices(), std::numeric_limits<double>::infinity());
  dist[0] = 0.0;
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  queue.push({0.0, 0});
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[v]) continue;
    for (VertexId u : g.out_neighbors(v)) {
      const double candidate = d + synthetic_edge_weight(v, u);
      if (candidate < dist[u]) {
        dist[u] = candidate;
        queue.push({candidate, u});
      }
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (std::isinf(dist[v])) {
      ASSERT_TRUE(std::isinf(result.values[v])) << "vertex " << v;
    } else {
      ASSERT_NEAR(result.values[v], dist[v], 1e-9) << "vertex " << v;
    }
  }
}

TEST(Bsp, SyntheticWeightsAreStableAndBounded) {
  EXPECT_EQ(synthetic_edge_weight(3, 7), synthetic_edge_weight(3, 7));
  EXPECT_NE(synthetic_edge_weight(3, 7), synthetic_edge_weight(7, 3));
  for (VertexId i = 0; i < 1000; ++i) {
    const double w = synthetic_edge_weight(i, i + 1);
    EXPECT_GE(w, 1.0);
    EXPECT_LT(w, 10.0);
  }
}

TEST(Bsp, MessageCountsSplitByPartition) {
  // Two-vertex graph split across partitions: every message is remote.
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);
  const Graph g = builder.finish();
  const auto result = pagerank(g, {0, 1}, 2, 3);
  EXPECT_EQ(result.stats.local_messages, 0u);
  EXPECT_EQ(result.stats.remote_messages, 6u);  // 2 edges x 3 supersteps
  EXPECT_DOUBLE_EQ(result.stats.remote_fraction(), 1.0);

  const auto local = pagerank(g, {0, 0}, 2, 3);
  EXPECT_EQ(local.stats.remote_messages, 0u);
  EXPECT_EQ(local.stats.local_messages, 6u);

  // Mixed split on a crawl: PageRank sends one message along every edge per
  // superstep, so each count is the per-edge recount times the supersteps.
  const Graph crawl = generate_webcrawl({.num_vertices = 5000, .avg_out_degree = 6.0,
                                         .seed = 7});
  const auto route = route_for(crawl, 4);
  std::uint64_t local_edges = 0, remote_edges = 0;
  for (VertexId v = 0; v < crawl.num_vertices(); ++v) {
    for (VertexId u : crawl.out_neighbors(v)) {
      ++(route[u] == route[v] ? local_edges : remote_edges);
    }
  }
  ASSERT_GT(local_edges, 0u);
  ASSERT_GT(remote_edges, 0u);
  const auto mixed = pagerank(crawl, route, 4, 3);
  EXPECT_EQ(mixed.stats.local_messages, 3 * local_edges);
  EXPECT_EQ(mixed.stats.remote_messages, 3 * remote_edges);
}

TEST(Bsp, BetterPartitioningLowersCriticalPath) {
  const Graph g = generate_webcrawl({.num_vertices = 10000, .avg_out_degree = 8.0,
                                     .locality = 0.95, .locality_scale = 25.0,
                                     .seed = 7});
  PartitionConfig config{.num_partitions = 8};
  HashPartitioner hash(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  const auto hash_route = run_streaming(stream, hash).route;
  const auto range_route = route_for(g, 8);

  const auto by_hash = pagerank(g, hash_route, 8, 5);
  const auto by_range = pagerank(g, range_route, 8, 5);
  EXPECT_LT(by_range.stats.remote_messages, by_hash.stats.remote_messages);
  EXPECT_LT(by_range.stats.critical_path_cost, by_hash.stats.critical_path_cost);
}

TEST(Bsp, ValidatesInput) {
  const Graph g = generate_ring_lattice(10, 1);
  EXPECT_THROW(pagerank(g, {0, 1}, 2, 3), std::invalid_argument);  // size
  std::vector<PartitionId> bad(10, 5);
  EXPECT_THROW(pagerank(g, bad, 2, 3), std::invalid_argument);  // id range
}

TEST(Bsp, EmptyGraph) {
  Graph g;
  const auto result = pagerank(g, {}, 2, 3);
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(result.stats.local_messages, 0u);
}

}  // namespace
}  // namespace spnl
