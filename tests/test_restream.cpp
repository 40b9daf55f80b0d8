#include "partition/restream.hpp"

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

TEST(Restream, OnePassEqualsLdg) {
  const Graph g = crawl(3000, 3);
  const PartitionConfig config{.num_partitions = 8};
  InMemoryStream stream(g);
  const auto restreamed =
      restream_partition(stream, config, {.passes = 1}).route;
  LdgPartitioner ldg(g.num_vertices(), g.num_edges(), config);
  stream.reset();
  const auto ldg_route = run_streaming(stream, ldg).route;
  EXPECT_EQ(restreamed, ldg_route);
}

TEST(Restream, MorePassesImproveCut) {
  const Graph g = crawl(10000, 5);
  const PartitionConfig config{.num_partitions = 8};
  InMemoryStream stream(g);
  const auto one = restream_partition(stream, config, {.passes = 1}).route;
  stream.reset();
  const auto three = restream_partition(stream, config, {.passes = 3}).route;
  const double ecr1 = evaluate_partition(g, one, 8).ecr;
  const double ecr3 = evaluate_partition(g, three, 8).ecr;
  EXPECT_LT(ecr3, ecr1);
}

TEST(Restream, StaysBalanced) {
  const Graph g = crawl(5000, 7);
  const PartitionConfig config{.num_partitions = 8};
  InMemoryStream stream(g);
  const auto route = restream_partition(stream, config, {.passes = 4}).route;
  EXPECT_TRUE(is_complete_assignment(route, 8));
  EXPECT_LE(evaluate_partition(g, route, 8).delta_v, config.slack + 0.01);
}

TEST(Restream, SpnlSeedAtLeastAsGoodStart) {
  const Graph g = crawl(10000, 9);
  const PartitionConfig config{.num_partitions = 16};
  InMemoryStream stream(g);
  const auto ldg_seeded =
      restream_partition(stream, config, {.passes = 2}).route;
  stream.reset();
  const auto spnl_seeded =
      restream_partition(stream, config, {.passes = 2, .seed_with_spnl = true})
          .route;
  // SPNL seeding should not be substantially worse.
  EXPECT_LE(evaluate_partition(g, spnl_seeded, 16).ecr,
            evaluate_partition(g, ldg_seeded, 16).ecr + 0.05);
}

TEST(Restream, ReportsTimeAndMemory) {
  const Graph g = crawl(3000, 13);
  InMemoryStream stream(g);
  const RestreamResult result =
      restream_partition(stream, {.num_partitions = 8}, {.passes = 2});
  EXPECT_TRUE(is_complete_assignment(result.route, 8));
  EXPECT_GT(result.partition_seconds, 0.0);
  // A refinement pass holds its own route table plus the previous one.
  EXPECT_GT(result.peak_bytes, 2 * g.num_vertices() * sizeof(PartitionId));
}

TEST(Restream, RejectsZeroPasses) {
  const Graph g = crawl(100, 11);
  InMemoryStream stream(g);
  EXPECT_THROW(restream_partition(stream, {.num_partitions = 2}, {.passes = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace spnl
