// Hardened graph I/O: every corrupt, truncated or structurally invalid
// input throws a typed IoError at load time instead of producing a graph or
// route that fails (or silently corrupts results) far from the load site.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

class IoHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Writes a valid binary graph and returns its path.
  std::string valid_binary(const char* name) {
    const Graph g = generate_webcrawl(
        {.num_vertices = 200, .avg_out_degree = 4.0, .seed = 3});
    const std::string p = path(name);
    write_binary(g, p);
    return p;
  }

  /// Overwrites sizeof(T) bytes at `offset` with `value`.
  template <typename T>
  static void patch(const std::string& p, std::uint64_t offset, T value) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  std::filesystem::path dir_;
};

// Header layout of the binary format: u64 magic, u64 n, u64 m, then
// (n+1) u64 offsets, then m u32 targets.
constexpr std::uint64_t kOffN = 8;
constexpr std::uint64_t kOffM = 16;
constexpr std::uint64_t kOffOffsets = 24;

TEST_F(IoHardeningTest, BinaryRoundTripStillWorks) {
  const Graph g = generate_webcrawl(
      {.num_vertices = 200, .avg_out_degree = 4.0, .seed = 3});
  write_binary(g, path("ok.bin"));
  const Graph loaded = read_binary(path("ok.bin"));
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.targets(), g.targets());
}

TEST_F(IoHardeningTest, BinaryTruncatedHeaderThrows) {
  const std::string p = valid_binary("th.bin");
  std::filesystem::resize_file(p, 12);  // mid-header
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryTruncatedPayloadThrows) {
  const std::string p = valid_binary("tp.bin");
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 64);
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryOversizedFileThrows) {
  const std::string p = valid_binary("ov.bin");
  std::ofstream f(p, std::ios::binary | std::ios::app);
  f.write("garbage", 7);
  f.close();
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryHugeVertexCountRejectedBeforeAllocation) {
  // A corrupt header claiming 2^60 vertices must be rejected by the
  // size-vs-header check, not by attempting a multi-exabyte allocation.
  const std::string p = valid_binary("huge.bin");
  patch<std::uint64_t>(p, kOffN, std::uint64_t{1} << 60);
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryEdgeCountMismatchThrows) {
  const std::string p = valid_binary("em.bin");
  patch<std::uint64_t>(p, kOffM, 1);  // header m no longer matches the file
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryNonMonotoneOffsetsThrow) {
  const std::string p = valid_binary("nm.bin");
  // offsets[1] := huge — decreasing at offsets[2], and > m.
  patch<std::uint64_t>(p, kOffOffsets + 8, std::uint64_t{1} << 40);
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryFirstOffsetNonZeroThrows) {
  const std::string p = valid_binary("fo.bin");
  patch<std::uint64_t>(p, kOffOffsets, 1);
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryTargetOutOfRangeThrows) {
  const std::string p = valid_binary("tr.bin");
  // First target := n (one past the last valid vertex id).
  std::ifstream in(p, std::ios::binary);
  in.seekg(kOffN);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.close();
  const std::uint64_t targets_at = kOffOffsets + (n + 1) * sizeof(std::uint64_t);
  patch<std::uint32_t>(p, targets_at, static_cast<std::uint32_t>(n));
  EXPECT_THROW(read_binary(p), IoError);
}

TEST_F(IoHardeningTest, BinaryBadMagicThrows) {
  const std::string p = valid_binary("bm.bin");
  patch<std::uint64_t>(p, 0, 0x1234567812345678ULL);
  EXPECT_THROW(read_binary(p), IoError);
}

// ---------------------------------------------------------------------------
// Edge-list text format.

TEST_F(IoHardeningTest, EdgeListExtraFieldThrows) {
  std::ofstream out(path("three.el"));
  out << "1 2 3\n";  // three fields on an edge line
  out.close();
  EXPECT_THROW(read_edge_list(path("three.el")), IoError);
}

TEST_F(IoHardeningTest, EdgeListOverflowingIdThrows) {
  std::ofstream out(path("big.el"));
  out << "4294967295 0\n";  // == kInvalidVertex: would wrap into a "valid" id
  out.close();
  EXPECT_THROW(read_edge_list(path("big.el")), IoError);
  std::ofstream out2(path("big2.el"));
  out2 << "0 99999999999\n";  // > 2^32
  out2.close();
  EXPECT_THROW(read_edge_list(path("big2.el")), IoError);
}

TEST_F(IoHardeningTest, EdgeListCompactIdsAcceptsSparseRawIds) {
  // With compaction the raw ids are remapped, so huge raw ids are fine.
  std::ofstream out(path("sparse.el"));
  out << "99999999999 5\n5 99999999999\n";
  out.close();
  const Graph g = read_edge_list(path("sparse.el"), /*compact_ids=*/true);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
}

// ---------------------------------------------------------------------------
// Route tables.

TEST_F(IoHardeningTest, RouteTableDuplicateVertexThrows) {
  std::ofstream out(path("dup.route"));
  out << "0 1\n1 2\n0 3\n";  // vertex 0 assigned twice
  out.close();
  EXPECT_THROW(read_route_table(path("dup.route")), IoError);
}

TEST_F(IoHardeningTest, RouteTableOverflowingPartitionThrows) {
  std::ofstream out(path("bigp.route"));
  out << "0 4294967295\n";  // == kUnassigned sentinel
  out.close();
  EXPECT_THROW(read_route_table(path("bigp.route")), IoError);
}

TEST_F(IoHardeningTest, ValidatedReadRejectsHolesAndRange) {
  std::ofstream out(path("holes.route"));
  out << "0 1\n2 1\n";  // vertex 1 missing
  out.close();
  EXPECT_THROW(read_route_table(path("holes.route"), 4), IoError);

  std::ofstream out2(path("range.route"));
  out2 << "0 1\n1 9\n";  // partition 9 with k=4
  out2.close();
  EXPECT_THROW(read_route_table(path("range.route"), 4), IoError);

  std::ofstream out3(path("good.route"));
  out3 << "0 1\n1 3\n2 0\n";
  out3.close();
  const auto route = read_route_table(path("good.route"), 4);
  EXPECT_EQ(route, (std::vector<PartitionId>{1, 3, 0}));
}

// ---------------------------------------------------------------------------
// Bounded quarantine for malformed mid-stream records (file streams).

class QuarantineTest : public IoHardeningTest {
 protected:
  /// Adjacency file: 6 vertices, two malformed mid-stream lines (garbage
  /// token, truncated/garbage id).
  std::string dirty_adjacency(const char* name) {
    const std::string p = path(name);
    std::ofstream out(p);
    out << "# V 6 E 6\n"
        << "0 1 2\n"
        << "1 2\n"
        << "2 3 oops\n"  // garbage token mid-line
        << "3 4\n"
        << "4x 5\n"  // garbage vertex id
        << "5 0\n";
    return p;
  }

  static std::uint64_t count_records(AdjacencyStream& stream) {
    std::uint64_t n = 0;
    while (stream.next().has_value()) ++n;
    return n;
  }
};

TEST_F(QuarantineTest, DisabledByDefaultMalformedLineThrows) {
  const std::string p = dirty_adjacency("strict.adj");
  FileAdjacencyStream stream(p);
  EXPECT_THROW(count_records(stream), std::runtime_error);
}

TEST_F(QuarantineTest, SkipsCountsAndLogsBadLines) {
  const std::string p = dirty_adjacency("tolerant.adj");
  const std::string log = path("bad.txt");
  FileAdjacencyStream stream(p, {.max_bad_records = 10, .quarantine_log = log});
  EXPECT_EQ(count_records(stream), 4u);  // 6 lines, 2 quarantined
  EXPECT_EQ(stream.bad_records(), 2u);

  std::ifstream in(log);
  std::string line;
  std::vector<std::string> logged;
  while (std::getline(in, line)) logged.push_back(line);
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_EQ(logged[0], "2 3 oops");
  EXPECT_EQ(logged[1], "4x 5");
}

TEST_F(QuarantineTest, ThrowsPastTheBound) {
  const std::string p = dirty_adjacency("bounded.adj");
  FileAdjacencyStream stream(p, {.max_bad_records = 1, .quarantine_log = {}});
  EXPECT_THROW(count_records(stream), std::runtime_error);
}

TEST_F(QuarantineTest, ResetRecountsPerPass) {
  const std::string p = dirty_adjacency("repass.adj");
  FileAdjacencyStream stream(p, {.max_bad_records = 10, .quarantine_log = {}});
  EXPECT_EQ(count_records(stream), 4u);
  EXPECT_EQ(stream.bad_records(), 2u);
  stream.reset();
  EXPECT_EQ(stream.bad_records(), 0u);
  EXPECT_EQ(count_records(stream), 4u);
  EXPECT_EQ(stream.bad_records(), 2u);
}

TEST_F(QuarantineTest, ResetTruncatesQuarantineLogBetweenPasses) {
  // Regression: reset_count() zeroed the counter but left the append-mode
  // log open, so every re-streaming pass (two-pass wrappers, resume, the
  // --stream metrics pass) appended the same quarantined lines again — a log
  // consumer saw each bad record once per pass instead of once.
  const std::string p = dirty_adjacency("relog.adj");
  const std::string log = path("relog.txt");
  FileAdjacencyStream stream(p, {.max_bad_records = 10, .quarantine_log = log});
  EXPECT_EQ(count_records(stream), 4u);
  stream.reset();
  EXPECT_EQ(count_records(stream), 4u);
  stream.reset();
  EXPECT_EQ(count_records(stream), 4u);

  std::ifstream in(log);
  std::string line;
  std::vector<std::string> logged;
  while (std::getline(in, line)) logged.push_back(line);
  ASSERT_EQ(logged.size(), 2u) << "log must hold one pass, not three";
  EXPECT_EQ(logged[0], "2 3 oops");
  EXPECT_EQ(logged[1], "4x 5");
}

TEST_F(QuarantineTest, MaterializeToleratesQuarantinedVertices) {
  const std::string p = dirty_adjacency("mat.adj");
  FileAdjacencyStream stream(p, {.max_bad_records = 10, .quarantine_log = {}});
  const Graph g = materialize(stream);
  // Quarantined vertices become isolated; the rest keep their edges.
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.out_degree(2), 0u);
  EXPECT_EQ(g.out_degree(4), 0u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST_F(QuarantineTest, UnwritableQuarantineLogFailsFastAtConstruction) {
  // An unwritable --quarantine-log used to be discovered at the first bad
  // record and then silently swallowed — exactly the records the operator
  // asked to keep were lost. The log is now opened eagerly: a bad path is a
  // typed IoError at stream construction, before any record is consumed.
  const std::string p = dirty_adjacency("failfast.adj");
  const std::string bad_log = path("no/such/dir/bad.txt");
  EXPECT_THROW(
      FileAdjacencyStream(p, {.max_bad_records = 10, .quarantine_log = bad_log}),
      IoError);
  EXPECT_THROW(
      EdgeListAdjacencyStream(path("nope.el"),
                              {.max_bad_records = 10, .quarantine_log = bad_log}),
      std::runtime_error);  // either the log or the missing input, both typed

  // Quarantine without a log and a writable log both still construct.
  FileAdjacencyStream no_log(p, {.max_bad_records = 10, .quarantine_log = {}});
  FileAdjacencyStream good_log(
      p, {.max_bad_records = 10, .quarantine_log = path("ok.txt")});
  EXPECT_EQ(count_records(no_log), 4u);
  EXPECT_EQ(count_records(good_log), 4u);
}

TEST_F(QuarantineTest, EdgeListStreamQuarantinesGarbagePairs) {
  const std::string p = path("dirty.el");
  {
    std::ofstream out(p);
    out << "0 1\n"
        << "0 2 2\n"  // three fields
        << "1 2\n"
        << "2 zzz\n"  // garbage target
        << "2 0\n";
  }
  // Strict: the constructor's pre-scan already rejects the file.
  EXPECT_THROW(EdgeListAdjacencyStream{p}, std::runtime_error);
  // Tolerant: 2 quarantined, 3 good edges over 3 vertices survive.
  EdgeListAdjacencyStream stream(p, {.max_bad_records = 5, .quarantine_log = {}});
  EXPECT_EQ(stream.num_edges(), 3u);
  std::uint64_t edges = 0, records = 0;
  stream.reset();
  while (auto record = stream.next()) {
    ++records;
    edges += record->out.size();
  }
  EXPECT_EQ(records, 3u);
  EXPECT_EQ(edges, 3u);
  EXPECT_EQ(stream.bad_records(), 2u);
}

TEST(ValidateRoute, ChecksSizeHolesAndRange) {
  const std::vector<PartitionId> good{0, 1, 2, 1};
  EXPECT_NO_THROW(validate_route(good, 3));
  EXPECT_NO_THROW(validate_route(good, 3, 4));
  EXPECT_THROW(validate_route(good, 3, 5), IoError);   // wrong size
  EXPECT_THROW(validate_route(good, 2), IoError);      // id 2 with k=2
  std::vector<PartitionId> holes{0, kUnassigned, 1};
  EXPECT_THROW(validate_route(holes, 2), IoError);     // unassigned hole
  EXPECT_NO_THROW(validate_route({}, 1));              // empty is complete
}

}  // namespace
}  // namespace spnl
