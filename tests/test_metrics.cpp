#include "partition/metrics.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/partitioning.hpp"

namespace spnl {
namespace {

Graph square_cycle() {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 0);
  return builder.finish();
}

TEST(Metrics, PerfectSplitOfCycle) {
  // {0,1} vs {2,3}: cut edges are (1,2) and (3,0).
  const auto metrics = evaluate_partition(square_cycle(), {0, 0, 1, 1}, 2);
  EXPECT_EQ(metrics.cut_edges, 2u);
  EXPECT_DOUBLE_EQ(metrics.ecr, 0.5);
  EXPECT_DOUBLE_EQ(metrics.delta_v, 1.0);
  EXPECT_DOUBLE_EQ(metrics.delta_e, 1.0);
}

TEST(Metrics, AllInOnePartition) {
  const auto metrics = evaluate_partition(square_cycle(), {0, 0, 0, 0}, 2);
  EXPECT_EQ(metrics.cut_edges, 0u);
  EXPECT_DOUBLE_EQ(metrics.ecr, 0.0);
  EXPECT_DOUBLE_EQ(metrics.delta_v, 2.0);  // maximally imbalanced
  EXPECT_DOUBLE_EQ(metrics.delta_e, 2.0);
}

TEST(Metrics, EdgesCountedAtSourcePartition) {
  // Vertex 0 has out-degree 3; vertex partitioning carries the whole
  // adjacency list with the vertex.
  GraphBuilder builder(4);
  for (VertexId u = 1; u < 4; ++u) builder.add_edge(0, u);
  const auto metrics = evaluate_partition(builder.finish(), {0, 1, 1, 1}, 2);
  EXPECT_EQ(metrics.edges_per_partition[0], 3u);
  EXPECT_EQ(metrics.edges_per_partition[1], 0u);
  EXPECT_EQ(metrics.cut_edges, 3u);
}

TEST(Metrics, RejectsBadInput) {
  const Graph g = square_cycle();
  EXPECT_THROW(evaluate_partition(g, {0, 0, 1}, 2), std::invalid_argument);  // size
  EXPECT_THROW(evaluate_partition(g, {0, 0, 1, 5}, 2), std::invalid_argument);  // id
  EXPECT_THROW(evaluate_partition(g, {0, 0, 1, kUnassigned}, 2), std::invalid_argument);
  EXPECT_THROW(evaluate_partition(g, {0, 0, 0, 0}, 0), std::invalid_argument);  // k=0
}

TEST(Metrics, CommunicationVolumeEqualsCutForDirected) {
  const Graph g = square_cycle();
  const std::vector<PartitionId> route = {0, 1, 0, 1};
  EXPECT_EQ(communication_volume(g, route),
            evaluate_partition(g, route, 2).cut_edges);
}

TEST(Metrics, IsCompleteAssignment) {
  EXPECT_TRUE(is_complete_assignment({0, 1, 1}, 2));
  EXPECT_FALSE(is_complete_assignment({0, 1, 2}, 2));
  EXPECT_FALSE(is_complete_assignment({0, kUnassigned}, 2));
}

TEST(Metrics, SummarizeMentionsEcr) {
  const auto metrics = evaluate_partition(square_cycle(), {0, 0, 1, 1}, 2);
  EXPECT_NE(summarize(metrics).find("ECR=0.5"), std::string::npos);
}

TEST(Metrics, EmptyGraph) {
  Graph g;
  const auto metrics = evaluate_partition(g, {}, 4);
  EXPECT_EQ(metrics.cut_edges, 0u);
  EXPECT_EQ(metrics.ecr, 0.0);
}

// The chunked Graph overload against the single-pass stream overload, on
// graphs below and above the parallel cutoff.
TEST(Metrics, GraphOverloadMatchesStreamAcrossParallelCutoff) {
  for (const VertexId n : {VertexId{2000}, VertexId{120000}}) {
    const Graph g =
        generate_webcrawl({.num_vertices = n, .avg_out_degree = 6.0, .seed = 11});
    SCOPED_TRACE(g.num_edges());
    const PartitionId k = 7;
    std::vector<PartitionId> route(n);
    for (VertexId v = 0; v < n; ++v) route[v] = static_cast<PartitionId>((v * 2654435761u) % k);
    InMemoryStream stream(g);
    const QualityMetrics from_graph = evaluate_partition(g, route, k);
    const QualityMetrics from_stream = evaluate_partition(stream, route, k);
    EXPECT_EQ(from_graph.cut_edges, from_stream.cut_edges);
    EXPECT_EQ(from_graph.vertices_per_partition, from_stream.vertices_per_partition);
    EXPECT_EQ(from_graph.edges_per_partition, from_stream.edges_per_partition);
    EXPECT_EQ(from_graph.ecr, from_stream.ecr);
    EXPECT_EQ(from_graph.delta_v, from_stream.delta_v);
    EXPECT_EQ(from_graph.delta_e, from_stream.delta_e);
    EXPECT_EQ(communication_volume(g, route), from_graph.cut_edges);
  }
  EXPECT_LT(generate_webcrawl({.num_vertices = 2000, .avg_out_degree = 6.0, .seed = 11})
                .num_edges(),
            kParallelMetricsMinEdges);
  EXPECT_GE(generate_webcrawl({.num_vertices = 120000, .avg_out_degree = 6.0, .seed = 11})
                .num_edges(),
            kParallelMetricsMinEdges);
}

TEST(Metrics, ParallelPathReportsFirstUnassignedVertex) {
  const Graph g =
      generate_webcrawl({.num_vertices = 120000, .avg_out_degree = 6.0, .seed = 2});
  ASSERT_GE(g.num_edges(), kParallelMetricsMinEdges);
  std::vector<PartitionId> route(g.num_vertices(), 1);
  // Two chunks, each with a bad vertex: the first in id order is reported.
  route[60001] = kUnassigned;
  route[110000] = 9;
  try {
    evaluate_partition(g, route, 4);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("vertex 60001 "), std::string::npos) << e.what();
  }
}

TEST(PartitionCapacity, FollowsModeAndSlack) {
  PartitionConfig config{.num_partitions = 4, .balance = BalanceMode::kVertex,
                         .slack = 1.5};
  EXPECT_DOUBLE_EQ(partition_capacity(100, 1000, config), 37.5);
  config.balance = BalanceMode::kEdge;
  EXPECT_DOUBLE_EQ(partition_capacity(100, 1000, config), 375.0);
}

TEST(PartitionCapacity, Validates) {
  EXPECT_THROW(partition_capacity(10, 10, {.num_partitions = 0}),
               std::invalid_argument);
  EXPECT_THROW(partition_capacity(10, 10, {.num_partitions = 2, .slack = 0.5}),
               std::invalid_argument);
}

TEST(PartitionCapacity, NeverBelowOne) {
  PartitionConfig config{.num_partitions = 64, .balance = BalanceMode::kEdge,
                         .slack = 1.0};
  EXPECT_DOUBLE_EQ(partition_capacity(10, 0, config), 1.0);
}

}  // namespace
}  // namespace spnl
