#include "partition/metrics.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "graph/generators.hpp"
#include "graph/stream_binary.hpp"
#include "partition/partitioning.hpp"
#include "test_dir.hpp"

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

// --------------------------------------------------------------------------
// evaluate_partition over the segments of an indexed sadj stream.

void expect_same_metrics(const QualityMetrics& a, const QualityMetrics& b) {
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  EXPECT_EQ(a.ecr, b.ecr);
  EXPECT_EQ(a.delta_v, b.delta_v);
  EXPECT_EQ(a.delta_e, b.delta_e);
  EXPECT_EQ(a.vertices_per_partition, b.vertices_per_partition);
  EXPECT_EQ(a.edges_per_partition, b.edges_per_partition);
}

std::vector<PartitionId> hashed_route(VertexId n, PartitionId k) {
  std::vector<PartitionId> route(n);
  for (VertexId v = 0; v < n; ++v) route[v] = static_cast<PartitionId>((v * 2654435761u) % k);
  return route;
}

std::vector<OwnedVertexRecord> drain(AdjacencyStream& stream) {
  std::vector<OwnedVertexRecord> out;
  while (auto record = stream.next()) out.push_back(OwnedVertexRecord::from(*record));
  return out;
}

class SegmentedMetrics : public ::testing::Test {
 protected:
  static constexpr VertexId kVertices = 300000;
  static constexpr VertexId kWide = 150000;
  static constexpr PartitionId kK = 7;

  void SetUp() override { dir_ = unique_test_dir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  // A 300k-vertex crawl (at least four seek strides) in which vertex kWide
  // links to ids alternating between the two ends of the range: deltas of
  // three bytes, so its record is over twice a segment reader's window.
  static Graph crawl_with_wide_record() {
    const Graph crawl =
        generate_webcrawl({.num_vertices = kVertices, .avg_out_degree = 6.0, .seed = 11});
    GraphBuilder builder(kVertices);
    for (VertexId v = 0; v < kVertices; ++v) {
      if (v != kWide) {
        builder.add_vertex(v, crawl.out_neighbors(v));
        continue;
      }
      std::vector<VertexId> wide;
      for (VertexId i = 0; wide.size() * 3 <= 2 * BinaryAdjacencyStream::kSegmentWindowBytes;
           ++i) {
        wide.push_back(i);
        wide.push_back(kVertices - 1 - i);
      }
      builder.add_vertex(v, wide);
    }
    return builder.finish();
  }

  std::string write(const Graph& graph, const char* name) const {
    InMemoryStream source(graph);
    write_sadj(source, path(name));
    return path(name);
  }

  std::filesystem::path dir_;
};

TEST_F(SegmentedMetrics, SegmentedSequentialAndGraphResultsAgree) {
  const Graph g = crawl_with_wide_record();
  ASSERT_GE(g.num_edges(), kParallelMetricsMinEdges);
  const std::string p = write(g, "g.sadj");
  const std::vector<PartitionId> route = hashed_route(kVertices, kK);

  BinaryAdjacencyStream indexed(p);
  drain(indexed);
  indexed.reset();
  ASSERT_GE(indexed.segments(), 4u);
  const QualityMetrics segmented = evaluate_partition(indexed, route, kK);
  // The segmented path leaves the stream at its first record.
  EXPECT_GE(indexed.segments(), 4u);

  BinaryAdjacencyStream fresh(p);
  ASSERT_EQ(fresh.segments(), 0u);
  const QualityMetrics sequential = evaluate_partition(fresh, route, kK);
  EXPECT_FALSE(fresh.next().has_value());  // the sequential path read it all

  expect_same_metrics(segmented, sequential);
  expect_same_metrics(segmented, evaluate_partition(g, route, kK));
}

TEST_F(SegmentedMetrics, SegmentsReadInOrderEqualOneFullPass) {
  const std::string p = write(crawl_with_wide_record(), "g.sadj");
  BinaryAdjacencyStream stream(p);
  const std::vector<OwnedVertexRecord> full = drain(stream);
  stream.reset();
  const std::size_t segments = stream.segments();
  ASSERT_GE(segments, 4u);
  EXPECT_EQ(segments, (full.size() + BinaryAdjacencyStream::kSeekStride - 1) /
                          BinaryAdjacencyStream::kSeekStride);

  std::vector<OwnedVertexRecord> joined;
  for (std::size_t i = 0; i < segments; ++i) {
    const std::unique_ptr<AdjacencyStream> segment = stream.segment(i);
    EXPECT_EQ(segment->segments(), 0u);
    const std::vector<OwnedVertexRecord> records = drain(*segment);
    // A segment replays its own records after reset().
    segment->reset();
    ASSERT_EQ(drain(*segment).size(), records.size()) << "segment " << i;
    joined.insert(joined.end(), records.begin(), records.end());
  }
  EXPECT_THROW(stream.segment(segments), std::out_of_range);

  ASSERT_EQ(joined.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(joined[i].id, full[i].id) << "record " << i;
    ASSERT_EQ(joined[i].out, full[i].out) << "record " << i;
  }
  EXPECT_GT(full[kWide].out.size() * 3, 2 * BinaryAdjacencyStream::kSegmentWindowBytes);
}

TEST_F(SegmentedMetrics, UnreadOrPartlyReadStreamOffersNoSegments) {
  const Graph g = crawl_with_wide_record();
  const std::string p = write(g, "g.sadj");
  const std::vector<PartitionId> route = hashed_route(kVertices, kK);
  const QualityMetrics expected = evaluate_partition(g, route, kK);

  BinaryAdjacencyStream unread(p);
  EXPECT_EQ(unread.segments(), 0u);
  expect_same_metrics(evaluate_partition(unread, route, kK), expected);

  BinaryAdjacencyStream partly(p);
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(partly.next().has_value());
  EXPECT_EQ(partly.segments(), 0u);
  partly.reset();
  EXPECT_EQ(partly.segments(), 0u);
  expect_same_metrics(evaluate_partition(partly, route, kK), expected);
  // That sequential pass was a full one: the index is now trusted, but only
  // at the first record.
  EXPECT_EQ(partly.segments(), 0u);
  partly.reset();
  EXPECT_GE(partly.segments(), 4u);

  InMemoryStream memory(g);
  EXPECT_EQ(memory.segments(), 0u);
  EXPECT_THROW(memory.segment(0), std::out_of_range);
}

// Forwards a graph's records, with the first neighbor of two records moved
// out of range.
class PlantedStream final : public AdjacencyStream {
 public:
  PlantedStream(const Graph& graph, VertexId first, VertexId second)
      : graph_(graph), inner_(graph), first_(first), second_(second) {}

  std::optional<VertexRecord> next() override {
    auto record = inner_.next();
    if (!record || (record->id != first_ && record->id != second_)) return record;
    edited_.assign(record->out.begin(), record->out.end());
    edited_[0] = graph_.num_vertices() + (record->id == first_ ? 1 : 2);
    return VertexRecord{record->id, edited_};
  }
  void reset() override { inner_.reset(); }
  VertexId num_vertices() const override { return graph_.num_vertices(); }
  EdgeId num_edges() const override { return graph_.num_edges(); }

 private:
  const Graph& graph_;
  InMemoryStream inner_;
  VertexId first_, second_;
  std::vector<VertexId> edited_;
};

TEST_F(SegmentedMetrics, OutOfRangeNeighborsReportTheEarlierSegment) {
  const Graph g =
      generate_webcrawl({.num_vertices = kVertices, .avg_out_degree = 6.0, .seed = 5});
  VertexId first = 70000, second = 230000;
  while (g.out_degree(first) == 0) ++first;
  while (g.out_degree(second) == 0) ++second;
  ASSERT_NE(first / BinaryAdjacencyStream::kSeekStride,
            second / BinaryAdjacencyStream::kSeekStride);
  {
    PlantedStream planted(g, first, second);
    write_sadj(planted, path("planted.sadj"));
  }
  const std::vector<PartitionId> route = hashed_route(kVertices, kK);
  const auto message = [&](AdjacencyStream& stream) {
    try {
      evaluate_partition(stream, route, kK);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };

  BinaryAdjacencyStream indexed(path("planted.sadj"));
  drain(indexed);
  indexed.reset();
  ASSERT_GE(indexed.segments(), 4u);
  BinaryAdjacencyStream fresh(path("planted.sadj"));
  const std::string segmented = message(indexed);
  EXPECT_EQ(segmented, message(fresh));
  EXPECT_EQ(segmented,
            "evaluate_partition: neighbor " + std::to_string(kVertices + 1) + " out of range");
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
