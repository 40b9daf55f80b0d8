#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  const Graph g = generate_webcrawl({.num_vertices = 300, .avg_out_degree = 4.0, .seed = 2});
  write_edge_list(g, path("g.el"));
  const Graph loaded = read_edge_list(path("g.el"));
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_EQ(loaded.targets(), g.targets());
}

TEST_F(IoTest, EdgeListCompactIdsRenumbersDensely) {
  std::ofstream out(path("sparse.el"));
  out << "# comment\n100 200\n200 300\n100 300\n";
  out.close();
  const Graph g = read_edge_list(path("sparse.el"), /*compact_ids=*/true);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST_F(IoTest, EdgeListMalformedThrows) {
  std::ofstream out(path("bad.el"));
  out << "1 two\n";
  out.close();
  EXPECT_THROW(read_edge_list(path("bad.el")), std::runtime_error);
}

TEST_F(IoTest, EdgeListTrailingGarbageThrows) {
  std::ofstream out(path("bad2.el"));
  out << "1 2 3\n";
  out.close();
  EXPECT_THROW(read_edge_list(path("bad2.el")), std::runtime_error);
}

TEST_F(IoTest, AdjacencyListMatchesFileStream) {
  const Graph g = generate_webcrawl({.num_vertices = 200, .avg_out_degree = 5.0, .seed = 3});
  write_adjacency_list(g, path("g.adj"));
  FileAdjacencyStream stream(path("g.adj"));
  EXPECT_EQ(stream.num_vertices(), g.num_vertices());
  EXPECT_EQ(stream.num_edges(), g.num_edges());
  const Graph loaded = materialize(stream);
  EXPECT_EQ(loaded.targets(), g.targets());
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph g = generate_webcrawl({.num_vertices = 500, .avg_out_degree = 6.0, .seed = 4});
  write_binary(g, path("g.bin"));
  const Graph loaded = read_binary(path("g.bin"));
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.targets(), g.targets());
}

TEST_F(IoTest, BinaryBadMagicThrows) {
  std::ofstream out(path("junk.bin"), std::ios::binary);
  out << "this is not a graph file at all................";
  out.close();
  EXPECT_THROW(read_binary(path("junk.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryTruncatedThrows) {
  const Graph g = generate_webcrawl({.num_vertices = 100, .avg_out_degree = 4.0, .seed = 5});
  write_binary(g, path("g.bin"));
  // Truncate the file.
  std::filesystem::resize_file(path("g.bin"), 40);
  EXPECT_THROW(read_binary(path("g.bin")), std::runtime_error);
}

TEST_F(IoTest, RouteTableRoundTrip) {
  const std::vector<PartitionId> route = {0, 3, 1, 2, 2, 0};
  write_route_table(route, path("route.txt"));
  EXPECT_EQ(read_route_table(path("route.txt")), route);
}

// The route text as the serial writer formatted it, line by line.
std::string reference_route_text(const std::vector<PartitionId>& route) {
  std::string text = "# vertex partition\n";
  for (std::size_t v = 0; v < route.size(); ++v) {
    text += std::to_string(v) + " " + std::to_string(route[v]) + "\n";
  }
  return text;
}

TEST_F(IoTest, RouteTableBytesMatchSerialFormattingAcrossChunks) {
  const std::size_t chunk = kRouteChunkVertices;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, chunk - 1, chunk, chunk + 1,
                              3 * chunk + 17}) {
    SCOPED_TRACE(n);
    std::vector<PartitionId> route(n);
    for (std::size_t v = 0; v < n; ++v) {
      route[v] = static_cast<PartitionId>((v * 40503u) % 1000003u);
    }
    if (n > 0) route.back() = 4294967294u;  // widest id a route holds
    write_route_table(route, path("route.txt"));
    std::ifstream in(path("route.txt"), std::ios::binary);
    const std::string written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(written, reference_route_text(route));
  }
}

TEST_F(IoTest, MissingFilesThrow) {
  EXPECT_THROW(read_edge_list(path("nope.el")), std::runtime_error);
  EXPECT_THROW(read_binary(path("nope.bin")), std::runtime_error);
  EXPECT_THROW(read_route_table(path("nope.txt")), std::runtime_error);
}

}  // namespace
}  // namespace spnl
