// 2PS clustering-prepass edge cases: empty inputs, single-community graphs,
// pathological all-singleton streams, and cluster-budget overflow — the
// degraded path must always fall back to exactly plain SPNL, never crash or
// emit a half-built hint table. Also the read-ahead the prepass reads its
// scans through: a file stream gives the in-memory result, a record wider
// than a slab passes through, and the degraded path stops reading early.
#include "prepass/two_phase.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/read_ahead_stream.hpp"
#include "graph/reorder.hpp"
#include "graph/stream_binary.hpp"
#include "partition/metrics.hpp"
#include "partition/restream.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

PartitionConfig make_config(PartitionId k) {
  PartitionConfig config;
  config.num_partitions = k;
  return config;
}

std::vector<PartitionId> plain_spnl_route(const Graph& graph, PartitionId k) {
  SpnlPartitioner partitioner(graph.num_vertices(), graph.num_edges(),
                              make_config(k));
  InMemoryStream stream(graph);
  return run_streaming(stream, partitioner).route;
}

TEST(Prepass, EmptyGraph) {
  const Graph empty = GraphBuilder(0).finish();
  InMemoryStream stream(empty);
  const PrepassResult result = cluster_prepass(stream, make_config(4));
  EXPECT_TRUE(result.hints.empty());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.num_clusters, 0u);

  stream.reset();
  const TwoPhaseRunResult run =
      two_phase_spnl_partition(stream, make_config(4));
  EXPECT_TRUE(run.run.route.empty());
  EXPECT_EQ(run.run.partitioner_name, "SPNL");  // no hints -> plain fallback
}

TEST(Prepass, ValidatesOptions) {
  const Graph g = generate_ring_lattice(16, 2);
  InMemoryStream stream(g);
  EXPECT_THROW(cluster_prepass(stream, make_config(0)), std::invalid_argument);
  EXPECT_THROW(
      cluster_prepass(stream, make_config(2), {.cluster_cap_factor = 0.0}),
      std::invalid_argument);
  EXPECT_THROW(cluster_prepass(stream, make_config(2), {.refine_passes = -1}),
               std::invalid_argument);
}

TEST(Prepass, SingleCommunityGraph) {
  // One planted community: every edge is internal; the cap forces the single
  // community to split across clusters but every hint must stay valid and
  // the pipeline must run as SPNL+2PS.
  PlantedPartitionParams params;
  params.num_vertices = 400;
  params.num_communities = 1;
  params.mixing = 0.0;
  params.seed = 7;
  const PlantedGraph planted = generate_planted_partition(params);
  const PartitionId k = 4;
  InMemoryStream stream(planted.graph);
  const PrepassResult result = cluster_prepass(stream, make_config(k));
  ASSERT_FALSE(result.degraded);
  ASSERT_EQ(result.hints.size(), 400u);
  for (const PartitionId hint : result.hints) EXPECT_LT(hint, k);
  // The cap (1.1 * n/k) makes at least k clusters inevitable.
  EXPECT_GE(result.num_clusters, k);

  stream.reset();
  const TwoPhaseRunResult run = two_phase_spnl_partition(stream, make_config(k));
  EXPECT_EQ(run.run.partitioner_name, "SPNL+2PS");
  EXPECT_TRUE(is_complete_assignment(run.run.route, k));
}

TEST(Prepass, AllSingletonClustersDegradesToPlainSpnl) {
  // Edgeless graph: no votes ever, every vertex founds its own cluster, and
  // the default budget (max(64, n/4 + k)) overflows well before n singletons
  // are created. The pipeline must notice, drop the hints, and produce the
  // exact plain-SPNL route.
  const Graph edgeless = GraphBuilder(500).finish();
  const PartitionId k = 4;
  InMemoryStream stream(edgeless);
  const PrepassResult result = cluster_prepass(stream, make_config(k));
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.hints.empty());

  stream.reset();
  const TwoPhaseRunResult run = two_phase_spnl_partition(stream, make_config(k));
  EXPECT_EQ(run.run.partitioner_name, "SPNL");
  EXPECT_TRUE(run.prepass.degraded);
  EXPECT_EQ(run.run.route, plain_spnl_route(edgeless, k));
}

TEST(Prepass, BudgetOverflowDegradesGracefully) {
  // A connected graph with an artificially tiny cluster budget: the overflow
  // is asserted (flagged, empty hints), not crashed, and the fallback route
  // is byte-identical to plain SPNL.
  WebCrawlParams params;
  params.num_vertices = 2'000;
  params.seed = 11;
  const Graph g = generate_webcrawl(params);
  const PartitionId k = 8;
  TwoPhaseOptions options;
  options.max_clusters = 2;  // cap (1.1 * n/k) * 2 clusters < n -> overflow
  InMemoryStream stream(g);
  const PrepassResult result = cluster_prepass(stream, make_config(k), options);
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.hints.empty());
  EXPECT_LE(result.num_clusters, 2u);

  stream.reset();
  const TwoPhaseRunResult run =
      two_phase_spnl_partition(stream, make_config(k), options);
  EXPECT_EQ(run.run.partitioner_name, "SPNL");
  EXPECT_EQ(run.run.route, plain_spnl_route(g, k));
}

TEST(Prepass, DeterministicAcrossRuns) {
  WebCrawlParams params;
  params.num_vertices = 3'000;
  params.seed = 3;
  const Graph g = generate_webcrawl(params);
  InMemoryStream stream(g);
  const PrepassResult a = cluster_prepass(stream, make_config(8));
  stream.reset();
  const PrepassResult b = cluster_prepass(stream, make_config(8));
  EXPECT_EQ(a.hints, b.hints);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.reassigned, b.reassigned);
}

class PrepassFileTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = unique_test_dir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const Graph& graph) const {
    const std::string p = (dir_ / "g.sadj").string();
    InMemoryStream source(graph);
    write_sadj(source, p);
    return p;
  }

  std::filesystem::path dir_;
};

/// Forwards a stream and counts the records read from it.
class CountingStream final : public AdjacencyStream {
 public:
  explicit CountingStream(AdjacencyStream& inner) : inner_(inner) {}
  std::optional<VertexRecord> next() override {
    std::optional<VertexRecord> record = inner_.next();
    if (record) ++records_;
    return record;
  }
  void reset() override {
    inner_.reset();
    records_ = 0;
  }
  VertexId num_vertices() const override { return inner_.num_vertices(); }
  EdgeId num_edges() const override { return inner_.num_edges(); }
  std::size_t records() const { return records_; }

 private:
  AdjacencyStream& inner_;
  std::size_t records_ = 0;
};

TEST_F(PrepassFileTest, SadjStreamGivesTheInMemoryResult) {
  // A planted graph renumbered into a random stream order, the hostile-2ps
  // setting: the read-ahead over a decoding file stream must hand the
  // clustering loop the same records in the same order on every run.
  PlantedPartitionParams params;
  params.num_vertices = 3'000;
  params.num_communities = 4;
  params.mixing = 0.3;
  params.seed = 5;
  const PlantedGraph planted = generate_planted_partition(params);
  const Graph graph = apply_permutation(planted.graph, random_order(3'000, 6));
  InMemoryStream memory(graph);
  const PrepassResult expected = cluster_prepass(memory, make_config(4));
  ASSERT_FALSE(expected.degraded);
  BinaryAdjacencyStream file(write(graph));
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE(run);
    file.reset();
    const PrepassResult result = cluster_prepass(file, make_config(4));
    EXPECT_EQ(result.hints, expected.hints);
    EXPECT_EQ(result.num_clusters, expected.num_clusters);
    EXPECT_EQ(result.reassigned, expected.reassigned);
  }
}

TEST_F(PrepassFileTest, RecordsWiderThanASlabPassThrough) {
  // Two hubs wider than a slab, the second wider still, after records that
  // fill more than a slab. Each is handed out as the file stream's own
  // record, whose span points into the stream's decode buffer, so the helper
  // must not read on (overwriting that buffer, or growing it for the second
  // hub) until the consumer has released the first. The consumer pauses
  // after its first record, so the helper is well ahead when it reaches them.
  const VertexId n = 100'100;
  const VertexId first_hub = 1'500;
  const VertexId second_hub = 1'501;
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    if (v == first_hub || v == second_hub) {
      const VertexId width = v == first_hub ? n / 2 : n;
      for (VertexId u = 0; u < width; ++u) {
        if (u != v) builder.add_edge(v, u);
      }
    } else {
      builder.add_edge(v, (v + 1) % n);
    }
  }
  const Graph graph = builder.finish();
  ASSERT_GT(graph.out_degree(first_hub), ReadAheadStream::kSlabTargets);
  ASSERT_GT(graph.out_degree(second_hub), graph.out_degree(first_hub));
  InMemoryStream direct(graph);
  BinaryAdjacencyStream file(write(graph));
  ReadAheadStream ahead(file);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    direct.reset();
    ahead.reset();
    VertexId seen = 0;
    while (auto expected = direct.next()) {
      const std::optional<VertexRecord> record = ahead.next();
      ASSERT_TRUE(record.has_value()) << "record " << seen;
      if (seen == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ASSERT_EQ(record->id, expected->id);
      ASSERT_TRUE(std::equal(record->out.begin(), record->out.end(),
                             expected->out.begin(), expected->out.end()))
          << "record " << seen;
      ++seen;
    }
    EXPECT_FALSE(ahead.next().has_value());
    EXPECT_FALSE(ahead.next().has_value());  // stays at the end until reset()
    EXPECT_EQ(seen, n);
  }
  InMemoryStream memory(graph);
  const PrepassResult expected = cluster_prepass(memory, make_config(4));
  file.reset();
  const PrepassResult result = cluster_prepass(file, make_config(4));
  EXPECT_EQ(result.hints, expected.hints);
  EXPECT_EQ(result.num_clusters, expected.num_clusters);
}

TEST_F(PrepassFileTest, DegradedPathStopsReadingAndTheStreamResets) {
  // Edgeless: every record founds a cluster, and the default budget
  // (n/4 + K) overflows at record n/4 + K. The read-ahead may have read
  // up to a ring of slabs past it, never the rest of the file.
  const VertexId n = 200'000;
  const Graph edgeless = GraphBuilder(n).finish();
  BinaryAdjacencyStream file(write(edgeless));
  CountingStream counted(file);
  const PrepassResult result = cluster_prepass(counted, make_config(4));
  ASSERT_TRUE(result.degraded);
  EXPECT_TRUE(result.hints.empty());
  const std::size_t overflow = n / 4 + 4 + 1;
  EXPECT_GE(counted.records(), overflow);
  EXPECT_LE(counted.records(),
            overflow + ReadAheadStream::kSlabs * ReadAheadStream::kSlabRecords + 1);
  counted.reset();
  VertexId expected = 0;
  while (auto record = counted.next()) {
    ASSERT_EQ(record->id, expected++);
    EXPECT_TRUE(record->out.empty());
  }
  EXPECT_EQ(expected, n);
}

TEST(Prepass, SpnlRejectsMalformedHintTables) {
  const Graph g = generate_ring_lattice(32, 2);
  const PartitionConfig config = make_config(4);
  const std::vector<PartitionId> wrong_size(31, 0);
  const std::vector<PartitionId> out_of_range(32, 4);
  SpnlOptions options;
  options.logical_hints = &wrong_size;
  EXPECT_THROW(SpnlPartitioner(32, g.num_edges(), config, options),
               std::invalid_argument);
  options.logical_hints = &out_of_range;
  EXPECT_THROW(SpnlPartitioner(32, g.num_edges(), config, options),
               std::invalid_argument);
}

TEST(Prepass, RestreamHintsRequireSpnlSeed) {
  const Graph g = generate_ring_lattice(64, 2);
  InMemoryStream stream(g);
  const std::vector<PartitionId> hints(64, 0);
  RestreamOptions options;
  options.seed_with_spnl = false;
  options.spnl_hints = &hints;
  EXPECT_THROW(restream_partition(stream, make_config(2), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace spnl
