// Cross-module integration tests: whole pipelines exercised end to end,
// with independent reference computations where available.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/spnl.hpp"
#include "engine/algorithms.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "offline/label_prop.hpp"
#include "offline/multilevel.hpp"
#include "partition/driver.hpp"
#include "partition/metrics.hpp"

namespace spnl {
namespace {

/// Union-find over the symmetrized edges — the WCC ground truth.
std::vector<VertexId> union_find_components(const Graph& g) {
  std::vector<VertexId> parent(g.num_vertices());
  std::iota(parent.begin(), parent.end(), VertexId{0});
  std::function<VertexId(VertexId)> find = [&](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.out_neighbors(v)) {
      const VertexId rv = find(v), ru = find(u);
      if (rv != ru) parent[std::max(rv, ru)] = std::min(rv, ru);
    }
  }
  // Labels = smallest member id, matching the engine's min-label semantics.
  std::vector<VertexId> label(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) label[v] = find(v);
  return label;
}

TEST(Integration, WccMatchesUnionFind) {
  const Graph g = generate_webcrawl({.num_vertices = 3000, .avg_out_degree = 2.0,
                                     .locality = 0.7, .seed = 41});
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = 4});
  InMemoryStream stream(g);
  const auto route = run_streaming(stream, partitioner).route;
  const auto result = connected_components(g, route, 4);
  const auto expected = union_find_components(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(static_cast<VertexId>(result.values[v]), expected[v]) << v;
  }
}

TEST(Integration, AllEightAnaloguesPartitionCleanly) {
  // Tiny-scale sweep over the full dataset registry through the full
  // pipeline: generate -> stream SPNL -> evaluate.
  for (const auto& spec : paper_datasets()) {
    const Graph g = load_dataset(spec, 0.05);
    const PartitionConfig config{.num_partitions = 8};
    SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(), config);
    InMemoryStream stream(g);
    const auto route = run_streaming(stream, partitioner).route;
    const auto metrics = evaluate_partition(g, route, 8);
    EXPECT_TRUE(is_complete_assignment(route, 8)) << spec.name;
    EXPECT_LE(metrics.delta_v, config.slack + 8.0 / g.num_vertices() + 1e-9)
        << spec.name;
    EXPECT_LT(metrics.ecr, 0.95) << spec.name;
  }
}

TEST(Integration, StreamingBeatsOfflineOnCombinedCostEverywhere) {
  // The paper's core economics on every analogue (small scale): SPNL's
  // PT is a small fraction of the multilevel baseline's.
  const Graph g = load_dataset(dataset_by_name("uk2002"), 0.2);
  const PartitionConfig config{.num_partitions = 16};

  SpnlPartitioner spnl(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  const RunResult streaming = run_streaming(stream, spnl);
  const auto offline = multilevel_partition(g, config);

  EXPECT_LT(streaming.partition_seconds, offline.partition_seconds / 3);
  const double streaming_ecr = evaluate_partition(g, streaming.route, 16).ecr;
  const double offline_ecr = evaluate_partition(g, offline.route, 16).ecr;
  EXPECT_LT(streaming_ecr, offline_ecr * 1.25);  // comparable or better
}

TEST(Integration, ParallelDriverAgreesWithSequentialOnQuality) {
  // Quality parity within tolerance across several datasets.
  for (const char* name : {"uk2002", "indo2004"}) {
    const Graph g = load_dataset(dataset_by_name(name), 0.1);
    const PartitionConfig config{.num_partitions = 8};

    SpnlPartitioner sequential(g.num_vertices(), g.num_edges(), config);
    InMemoryStream stream(g);
    const double seq_ecr =
        evaluate_partition(g, run_streaming(stream, sequential).route, 8).ecr;

    stream.reset();
    ParallelOptions options;
    options.num_threads = 4;
    const auto par = run_parallel(stream, config, options);
    const double par_ecr = evaluate_partition(g, par.route, 8).ecr;
    EXPECT_NEAR(par_ecr, seq_ecr, 0.05) << name;
  }
}

TEST(Integration, EdgeBalanceHoldsAcrossDrivers) {
  // Edge-balance mode through the sequential, parallel and restream paths.
  const Graph g = load_dataset(dataset_by_name("eu2015"), 0.1);
  const PartitionConfig config{.num_partitions = 8,
                               .balance = BalanceMode::kEdge, .slack = 1.3};
  const double overflow =
      static_cast<double>(g.max_out_degree()) * 8 / g.num_edges();

  SpnlPartitioner sequential(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  const auto seq = evaluate_partition(g, run_streaming(stream, sequential).route, 8);
  EXPECT_LE(seq.delta_e, config.slack + overflow + 1e-9);

  stream.reset();
  ParallelOptions options;
  options.num_threads = 2;
  const auto par = run_parallel(stream, config, options);
  const auto par_metrics = evaluate_partition(g, par.route, 8);
  // Parallel capacity checks are racy by design: allow one extra record per
  // worker beyond the sequential bound.
  EXPECT_LE(par_metrics.delta_e, config.slack + 3 * overflow + 0.05);
}

TEST(Integration, LabelPropNeverBeatsMultilevelBadly) {
  // Regression guard on the offline pair's relative standing (Table V
  // shape: multilevel quality >= label-prop quality on crawl graphs).
  const Graph g = load_dataset(dataset_by_name("web2001"), 0.1);
  const PartitionConfig config{.num_partitions = 8};
  const double ml =
      evaluate_partition(g, multilevel_partition(g, config).route, 8).ecr;
  const double lp =
      evaluate_partition(g, label_prop_partition(g, config).route, 8).ecr;
  EXPECT_LT(ml, lp * 1.1);
}

TEST(Integration, DescribeRunsOnEveryAnalogue) {
  for (const auto& spec : paper_datasets()) {
    const Graph g = load_dataset(spec, 0.02);
    EXPECT_FALSE(describe(g, spec.name).empty());
  }
}

// run_streaming hands the partitioner's route table over instead of copying
// it, and reports MC from before the hand-over, when the route still counts.
TEST(Driver, RunStreamingHandsOverTheRouteItsPartitionerBuilt) {
  const Graph g = generate_webcrawl({.num_vertices = 5000, .avg_out_degree = 6.0,
                                     .seed = 43});
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = 8});
  const PartitionId* table = partitioner.route().data();
  const std::size_t mc_before = partitioner.memory_footprint_bytes();
  InMemoryStream stream(g);
  const RunResult run = run_streaming(stream, partitioner);

  EXPECT_EQ(run.route.data(), table);
  EXPECT_TRUE(partitioner.route().empty());
  EXPECT_TRUE(is_complete_assignment(run.route, 8));
  EXPECT_GE(run.peak_partitioner_bytes, mc_before);
  EXPECT_LT(partitioner.memory_footprint_bytes(), run.peak_partitioner_bytes);
}

}  // namespace
}  // namespace spnl
