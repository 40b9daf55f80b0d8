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
