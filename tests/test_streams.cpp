#include "graph/adjacency_stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/generators.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

Graph small_graph() {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  builder.add_edge(3, 0);
  return builder.finish();
}

TEST(InMemoryStream, YieldsAllVerticesInOrder) {
  const Graph g = small_graph();
  InMemoryStream stream(g);
  VertexId expected = 0;
  while (auto record = stream.next()) {
    EXPECT_EQ(record->id, expected++);
  }
  EXPECT_EQ(expected, 4u);
}

TEST(InMemoryStream, ResetRestarts) {
  const Graph g = small_graph();
  InMemoryStream stream(g);
  while (stream.next()) {
  }
  stream.reset();
  auto record = stream.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->id, 0u);
}

TEST(InMemoryStream, CountsMatchGraph) {
  const Graph g = small_graph();
  InMemoryStream stream(g);
  EXPECT_EQ(stream.num_vertices(), 4u);
  EXPECT_EQ(stream.num_edges(), 4u);
}

TEST(OrderedStream, RespectsCustomOrder) {
  const Graph g = small_graph();
  OrderedStream stream(g, {3, 1, 0, 2});
  auto r = stream.next();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->id, 3u);
  EXPECT_EQ(r->out.size(), 1u);
  EXPECT_EQ(stream.next()->id, 1u);
}

TEST(OrderedStream, RejectsNonPermutations) {
  const Graph g = small_graph();
  EXPECT_THROW(OrderedStream(g, {0, 1, 2}), std::invalid_argument);       // short
  EXPECT_THROW(OrderedStream(g, {0, 1, 2, 2}), std::invalid_argument);    // dup
  EXPECT_THROW(OrderedStream(g, {0, 1, 2, 9}), std::invalid_argument);    // range
}

TEST(Materialize, RoundTripsGraph) {
  const Graph g = generate_webcrawl({.num_vertices = 500, .avg_out_degree = 5.0, .seed = 3});
  InMemoryStream stream(g);
  const Graph copy = materialize(stream);
  EXPECT_EQ(copy.num_vertices(), g.num_vertices());
  EXPECT_EQ(copy.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(copy.out_degree(v), g.out_degree(v));
  }
}

// Today's builder path, record by record: the reference for materialize.
Graph build_reference(AdjacencyStream& stream) {
  GraphBuilder builder(stream.num_vertices());
  while (auto record = stream.next()) builder.add_vertex(record->id, record->out);
  return builder.finish();
}

void expect_same_csr(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.targets(), b.targets());
}

// A fixed record list over n vertices, for orders no reader produces.
class ScriptedStream final : public AdjacencyStream {
 public:
  ScriptedStream(VertexId n, std::vector<OwnedVertexRecord> records)
      : n_(n), records_(std::move(records)) {}
  std::optional<VertexRecord> next() override {
    if (cursor_ >= records_.size()) return std::nullopt;
    const OwnedVertexRecord& r = records_[cursor_++];
    return VertexRecord{r.id, r.out};
  }
  void reset() override { cursor_ = 0; }
  VertexId num_vertices() const override { return n_; }
  EdgeId num_edges() const override {
    EdgeId m = 0;
    for (const auto& r : records_) m += r.out.size();
    return m;
  }

 private:
  VertexId n_;
  std::vector<OwnedVertexRecord> records_;
  std::size_t cursor_ = 0;
};

TEST(Materialize, InPlaceMatchesBuilderOnOrderedStreams) {
  const Graph g = generate_webcrawl({.num_vertices = 3000, .avg_out_degree = 6.0, .seed = 8});
  const VertexId n = g.num_vertices();
  std::vector<VertexId> identity(n), reversed(n), evens_then_odds;
  for (VertexId v = 0; v < n; ++v) {
    identity[v] = v;
    reversed[v] = n - 1 - v;
  }
  for (VertexId v = 0; v < n; v += 2) evens_then_odds.push_back(v);
  for (VertexId v = 1; v < n; v += 2) evens_then_odds.push_back(v);
  for (const auto& order : {identity, reversed, evens_then_odds}) {
    OrderedStream stream(g, order);
    const Graph built = materialize(stream);
    stream.reset();
    expect_same_csr(built, build_reference(stream));
    expect_same_csr(built, g);
  }
}

TEST(Materialize, IdGapsBecomeEmptyRows) {
  ScriptedStream stream(7, {{0, {1}}, {2, {0, 5}}, {5, {}}, {6, {6, 2}}});
  const Graph built = materialize(stream);
  stream.reset();
  expect_same_csr(built, build_reference(stream));
  EXPECT_EQ(built.num_vertices(), 7u);
  EXPECT_EQ(built.out_degree(1), 0u);
  EXPECT_EQ(built.out_degree(4), 0u);
  // Trailing ids without a record are empty rows too.
  ScriptedStream tail(6, {{0, {1}}, {1, {0}}, {3, {5}}});
  const Graph padded = materialize(tail);
  tail.reset();
  expect_same_csr(padded, build_reference(tail));
  EXPECT_EQ(padded.num_vertices(), 6u);
}

TEST(Materialize, GapFilledLaterFallsBackToBuilder) {
  ScriptedStream stream(5, {{0, {4}}, {3, {1, 2}}, {1, {3}}, {4, {}}, {2, {0}}});
  const Graph built = materialize(stream);
  stream.reset();
  expect_same_csr(built, build_reference(stream));
  EXPECT_EQ(built.out_neighbors(3)[1], 2u);
}

TEST(Materialize, DuplicateIdAfterInOrderPrefixThrows) {
  ScriptedStream repeat_last(4, {{0, {1}}, {1, {2}}, {1, {3}}});
  EXPECT_THROW(materialize(repeat_last), std::runtime_error);
  ScriptedStream repeat_earlier(4, {{0, {1}}, {1, {2}}, {2, {}}, {1, {3}}});
  EXPECT_THROW(materialize(repeat_earlier), std::runtime_error);
  ScriptedStream repeat_after_fallback(4, {{0, {}}, {2, {}}, {1, {}}, {2, {}}});
  EXPECT_THROW(materialize(repeat_after_fallback), std::runtime_error);
}

TEST(Materialize, OutOfRangeIdsThrow) {
  ScriptedStream record_id(3, {{0, {1}}, {3, {0}}});
  EXPECT_THROW(materialize(record_id), std::runtime_error);
  ScriptedStream neighbor(3, {{0, {3}}});
  EXPECT_THROW(materialize(neighbor), std::runtime_error);
  ScriptedStream neighbor_after_fallback(3, {{1, {}}, {0, {7}}});
  EXPECT_THROW(materialize(neighbor_after_fallback), std::runtime_error);
}

class FileStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_test_dir() / "stream_test.adj";
  }
  void TearDown() override { std::filesystem::remove_all(path_.parent_path()); }
  std::filesystem::path path_;
};

TEST_F(FileStreamTest, ReadsAdjacencyFileWithHeader) {
  std::ofstream out(path_);
  out << "# V 3 E 3\n0 1 2\n1 2\n2\n";
  out.close();
  FileAdjacencyStream stream(path_.string());
  EXPECT_EQ(stream.num_vertices(), 3u);
  EXPECT_EQ(stream.num_edges(), 3u);
  auto r = stream.next();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->id, 0u);
  ASSERT_EQ(r->out.size(), 2u);
  EXPECT_EQ(r->out[0], 1u);
  EXPECT_EQ(stream.next()->id, 1u);
  auto last = stream.next();
  ASSERT_TRUE(last);
  EXPECT_EQ(last->out.size(), 0u);
  EXPECT_FALSE(stream.next().has_value());
}

TEST_F(FileStreamTest, InfersCountsWithoutHeader) {
  std::ofstream out(path_);
  out << "# a comment\n0 1\n1 0 2\n2\n";
  out.close();
  FileAdjacencyStream stream(path_.string());
  EXPECT_EQ(stream.num_vertices(), 3u);
  EXPECT_EQ(stream.num_edges(), 3u);
}

TEST_F(FileStreamTest, ResetReplaysFromStart) {
  std::ofstream out(path_);
  out << "# V 2 E 1\n0 1\n1\n";
  out.close();
  FileAdjacencyStream stream(path_.string());
  while (stream.next()) {
  }
  stream.reset();
  EXPECT_EQ(stream.next()->id, 0u);
}

TEST_F(FileStreamTest, MalformedLineThrows) {
  std::ofstream out(path_);
  out << "# V 2 E 1\n0 xyz\n";
  out.close();
  FileAdjacencyStream stream(path_.string());
  EXPECT_THROW(stream.next(), std::runtime_error);
}

TEST_F(FileStreamTest, MaterializeWithQuarantinedGapsMatchesBuilder) {
  std::ofstream out(path_);
  out << "# V 6 E 5\n0 1 2\nbad x\n2 0\nzzz\n4 3 1\n";
  out.close();
  FileAdjacencyStream stream(path_.string(), {.max_bad_records = 5, .quarantine_log = {}});
  const Graph built = materialize(stream);
  EXPECT_EQ(stream.bad_records(), 2u);
  stream.reset();
  expect_same_csr(built, build_reference(stream));
  EXPECT_EQ(built.num_vertices(), 6u);
  EXPECT_EQ(built.out_degree(1), 0u);
  EXPECT_EQ(built.out_degree(3), 0u);
  EXPECT_EQ(built.out_degree(5), 0u);
}

TEST_F(FileStreamTest, MissingFileThrows) {
  EXPECT_THROW(FileAdjacencyStream("/nonexistent/file.adj"), std::runtime_error);
}

class EdgeListStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_test_dir() / "el_stream_test.el";
  }
  void TearDown() override { std::filesystem::remove_all(path_.parent_path()); }
  void write(const char* contents) {
    std::ofstream out(path_);
    out << contents;
  }
  std::filesystem::path path_;
};

TEST_F(EdgeListStreamTest, GroupsEdgesIntoRecords) {
  write("# comment\n0 1\n0 2\n2 0\n2 3\n");
  EdgeListAdjacencyStream stream(path_.string());
  EXPECT_EQ(stream.num_vertices(), 4u);
  EXPECT_EQ(stream.num_edges(), 4u);
  auto r0 = stream.next();
  ASSERT_TRUE(r0);
  EXPECT_EQ(r0->id, 0u);
  ASSERT_EQ(r0->out.size(), 2u);
  EXPECT_EQ(r0->out[1], 2u);
  auto r1 = stream.next();  // vertex 1 has no out-edges: empty record
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->id, 1u);
  EXPECT_TRUE(r1->out.empty());
  auto r2 = stream.next();
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->out.size(), 2u);
  auto r3 = stream.next();  // vertex 3: sink, empty record
  ASSERT_TRUE(r3);
  EXPECT_TRUE(r3->out.empty());
  EXPECT_FALSE(stream.next().has_value());
}

TEST_F(EdgeListStreamTest, MaterializeMatchesDirectLoad) {
  write("0 1\n1 0\n1 2\n3 1\n");
  EdgeListAdjacencyStream stream(path_.string());
  const Graph g = materialize(stream);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(1), 2u);
}

TEST_F(EdgeListStreamTest, MaterializeInPlaceMatchesBuilder) {
  write("# sorted\n0 3\n0 1\n2 0\n2 2\n5 4\n");
  EdgeListAdjacencyStream stream(path_.string());
  const Graph built = materialize(stream);
  stream.reset();
  expect_same_csr(built, build_reference(stream));
  EXPECT_EQ(built.num_vertices(), 6u);
}

TEST_F(EdgeListStreamTest, ResetReplays) {
  write("0 1\n1 0\n");
  EdgeListAdjacencyStream stream(path_.string());
  while (stream.next()) {
  }
  stream.reset();
  EXPECT_EQ(stream.next()->id, 0u);
}

TEST_F(EdgeListStreamTest, RejectsUnsortedSources) {
  write("1 0\n0 1\n");
  EXPECT_THROW(EdgeListAdjacencyStream(path_.string()), std::runtime_error);
}

TEST_F(EdgeListStreamTest, RejectsMalformedLines) {
  write("0 1 2\n");
  EXPECT_THROW(EdgeListAdjacencyStream(path_.string()), std::runtime_error);
}

TEST(OwnedVertexRecord, CopiesSpanContents) {
  std::vector<VertexId> storage = {5, 6, 7};
  VertexRecord record{1, storage};
  OwnedVertexRecord owned = OwnedVertexRecord::from(record);
  storage[0] = 99;
  EXPECT_EQ(owned.out[0], 5u);
  EXPECT_EQ(owned.id, 1u);
}

}  // namespace
}  // namespace spnl
