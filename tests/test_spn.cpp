#include "core/spn.hpp"

#include <gtest/gtest.h>

#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "partition/driver.hpp"
#include "partition/ldg.hpp"
#include "partition/metrics.hpp"

namespace spnl {
namespace {

Graph crawl(VertexId n = 8000, std::uint64_t seed = 1) {
  return generate_webcrawl({.num_vertices = n, .avg_out_degree = 8.0,
                            .locality = 0.85, .locality_scale = 30.0,
                            .seed = seed});
}

std::vector<PartitionId> run_spn(const Graph& g, const PartitionConfig& config,
                                 SpnOptions options = {}) {
  SpnPartitioner partitioner(g.num_vertices(), g.num_edges(), config, options);
  InMemoryStream stream(g);
  return run_streaming(stream, partitioner).route;
}

TEST(Spn, CompleteAndBalanced) {
  const Graph g = crawl();
  const PartitionConfig config{.num_partitions = 8};
  const auto route = run_spn(g, config);
  EXPECT_TRUE(is_complete_assignment(route, 8));
  EXPECT_LE(evaluate_partition(g, route, 8).delta_v, config.slack + 0.01);
}

TEST(Spn, LambdaOneDegradesToLdgExactly) {
  // Paper Sec. IV-B: SPN with λ=1 ignores in-neighbors entirely and must
  // reproduce LDG's decisions bit for bit.
  const Graph g = crawl(4000, 5);
  const PartitionConfig config{.num_partitions = 16};
  const auto spn = run_spn(g, config, {.lambda = 1.0});
  LdgPartitioner ldg(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  const auto ldg_route = run_streaming(stream, ldg).route;
  EXPECT_EQ(spn, ldg_route);
}

TEST(Spn, BeatsLdgOnEcr) {
  const Graph g = crawl(10000, 7);
  const PartitionConfig config{.num_partitions = 16};
  const auto spn = evaluate_partition(g, run_spn(g, config), 16);
  LdgPartitioner ldg(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  const auto ldg_metrics =
      evaluate_partition(g, run_streaming(stream, ldg).route, 16);
  EXPECT_LT(spn.ecr, ldg_metrics.ecr);
}

TEST(Spn, InNeighborEstimateMatchesPaperExample) {
  // Paper Fig. 2 (1-indexed there, 0-indexed here): K=3, vertices 0..5
  // placed as V1={2,4}, V2={0,1}, V3={3,5}; adjacency lists
  //   2:[3,4,10] 4:[1,2,13] 0:[5,7,8] 1:[3,6,7] 3:[10,11,14] 5:[3,6,12].
  // Arriving vertex 6 has N_out = {5, 8, 9}; out-score (0,0,1) from placed
  // neighbor 5 in P3; in-score Γ(6) = (0,1,1) from in-neighbors 1 (P2) and
  // 5 (P3). Combined (removing λ as in the footnote): (0,1,2) -> P3.
  const VertexId n = 15;
  PartitionConfig config{.num_partitions = 3, .slack = 3.0};
  SpnOptions options{.lambda = 0.5, .num_shards = 1};
  SpnPartitioner partitioner(n, 18, config, options);

  // Stream vertices 0..5 in id order, forcing the Fig. 2 placement by
  // seeding each with an empty list is not possible (placement is decided by
  // the heuristic), so instead verify the Γ counters directly.
  const std::vector<std::vector<VertexId>> adj = {
      {5, 7, 8},    // 0 -> P? (first vertex, ties -> P0)
      {3, 6, 7},    // 1
      {3, 4, 10},   // 2
      {10, 11, 14}, // 3
      {1, 2, 13},   // 4
      {3, 6, 12},   // 5
  };
  std::vector<PartitionId> placed;
  for (VertexId v = 0; v < 6; ++v) {
    placed.push_back(partitioner.place(v, adj[v]));
  }
  // Γ_i(6) must equal the number of placed in-neighbors of 6 in partition i.
  std::vector<std::uint32_t> expected(3, 0);
  for (VertexId v = 0; v < 6; ++v) {
    for (VertexId u : adj[v]) {
      if (u == 6) ++expected[placed[v]];
    }
  }
  for (PartitionId i = 0; i < 3; ++i) {
    EXPECT_EQ(partitioner.gamma().get(i, 6), expected[i]);
  }
}

TEST(Spn, WindowedRunMatchesFullTableOnLocalGraph) {
  // With strong locality nearly all useful counts fall inside a generous
  // window, so quality should be near-identical (paper Fig. 7b plateau).
  const Graph g = generate_webcrawl({.num_vertices = 20000, .avg_out_degree = 8.0,
                                     .locality = 0.95, .locality_scale = 20.0,
                                     .seed = 3});
  const PartitionConfig config{.num_partitions = 8};
  const auto full = evaluate_partition(g, run_spn(g, config, {.num_shards = 1}), 8);
  const auto windowed =
      evaluate_partition(g, run_spn(g, config, {.num_shards = 16}), 8);
  EXPECT_NEAR(windowed.ecr, full.ecr, 0.02);
}

TEST(Spn, ExtremeWindowDegradesQuality) {
  // Paper Fig. 7b: an extremely large X starves the in-neighbor estimate.
  const Graph g = crawl(10000, 9);
  const PartitionConfig config{.num_partitions = 8};
  const auto full = evaluate_partition(g, run_spn(g, config, {.num_shards = 1}), 8);
  const auto tiny =
      evaluate_partition(g, run_spn(g, config, {.num_shards = 5000}), 8);
  EXPECT_GE(tiny.ecr + 1e-9, full.ecr);
}

TEST(Spn, RejectsBadLambda) {
  const PartitionConfig config{.num_partitions = 2};
  EXPECT_THROW(SpnPartitioner(10, 10, config, {.lambda = -0.1}), std::invalid_argument);
  EXPECT_THROW(SpnPartitioner(10, 10, config, {.lambda = 1.1}), std::invalid_argument);
}

TEST(Spn, MemoryIncludesGamma) {
  const PartitionConfig config{.num_partitions = 32};
  SpnPartitioner full(100000, 0, config, {.num_shards = 1});
  SpnPartitioner windowed(100000, 0, config, {.num_shards = 128});
  // The full table is 128x the windowed one: their gap is over 3/4 of it.
  EXPECT_GT(full.memory_footprint_bytes(),
            windowed.memory_footprint_bytes() + 100000 * 32 * sizeof(GammaCount) * 3 / 4);
}

TEST(Spn, NeighborSumEstimatorRuns) {
  const Graph g = crawl(4000, 11);
  const PartitionConfig config{.num_partitions = 8};
  const auto route =
      run_spn(g, config, {.estimator = InNeighborEstimator::kNeighborSum});
  EXPECT_TRUE(is_complete_assignment(route, 8));
}

TEST(Spn, HandlesShuffledStreamGracefully) {
  // Non-monotone order: windows cannot help, but the run must stay valid.
  const Graph g = crawl(3000, 13);
  const PartitionConfig config{.num_partitions = 4};
  SpnPartitioner partitioner(g.num_vertices(), g.num_edges(), config,
                             {.num_shards = 8});
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = g.num_vertices() - 1 - v;
  OrderedStream stream(g, order);
  const auto route = run_streaming(stream, partitioner).route;
  EXPECT_TRUE(is_complete_assignment(route, 4));
}

TEST(Spn, Deterministic) {
  const Graph g = crawl(3000, 17);
  const PartitionConfig config{.num_partitions = 8};
  EXPECT_EQ(run_spn(g, config), run_spn(g, config));
}

}  // namespace
}  // namespace spnl
