// Ingestion tests: the sadj binary format (varint codecs, writer, reader,
// corruption handling), the text readers' edge cases, and the contract the
// formats share: every reader of the same graph produces a byte-identical
// route.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stream_binary.hpp"
#include "partition/driver.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

// Hand-rollable stream over explicit records: full control over multigraph
// duplicates, self-loops, record count < V, and deliberately lying metadata.
class VecStream final : public AdjacencyStream {
 public:
  VecStream(std::vector<OwnedVertexRecord> records, VertexId v, EdgeId e)
      : records_(std::move(records)), num_vertices_(v), num_edges_(e) {}

  std::optional<VertexRecord> next() override {
    if (cursor_ >= records_.size()) return std::nullopt;
    const OwnedVertexRecord& r = records_[cursor_++];
    return VertexRecord{r.id, r.out};
  }
  void reset() override { cursor_ = 0; }
  VertexId num_vertices() const override { return num_vertices_; }
  EdgeId num_edges() const override { return num_edges_; }

 private:
  std::vector<OwnedVertexRecord> records_;
  std::size_t cursor_ = 0;
  VertexId num_vertices_;
  EdgeId num_edges_;
};

std::vector<OwnedVertexRecord> drain(AdjacencyStream& stream) {
  std::vector<OwnedVertexRecord> out;
  while (auto r = stream.next()) out.push_back(OwnedVertexRecord::from(*r));
  return out;
}

void expect_same_records(const std::vector<OwnedVertexRecord>& a,
                         const std::vector<OwnedVertexRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "record " << i;
    ASSERT_EQ(a[i].out.size(), b[i].out.size()) << "record " << i;
    for (std::size_t j = 0; j < a[i].out.size(); ++j) {
      EXPECT_EQ(a[i].out[j], b[i].out[j]) << "record " << i << " nbr " << j;
    }
  }
}

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- varints --

TEST(SadjVarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  ~0ull};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    sadj::put_varint(buf, v);
    const std::uint8_t* p = buf.data();
    std::uint64_t decoded = 0;
    ASSERT_TRUE(sadj::get_varint(p, buf.data() + buf.size(), decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(SadjVarint, RejectsTruncation) {
  std::vector<std::uint8_t> buf;
  sadj::put_varint(buf, 1ull << 40);
  ASSERT_GT(buf.size(), 1u);
  const std::uint8_t* p = buf.data();
  std::uint64_t decoded = 0;
  EXPECT_FALSE(sadj::get_varint(p, buf.data() + buf.size() - 1, decoded));
}

TEST(SadjVarint, RejectsOverlongTenthByte) {
  // Ten continuation-heavy bytes whose tenth carries bits that overflow 64:
  // a valid encoder never emits this, the decoder must not wrap silently.
  std::vector<std::uint8_t> buf(9, 0xFF);
  buf.push_back(0x7F);
  const std::uint8_t* p = buf.data();
  std::uint64_t decoded = 0;
  EXPECT_FALSE(sadj::get_varint(p, buf.data() + buf.size(), decoded));
}

TEST(SadjVarint, SignedZigzagRoundTrips) {
  const std::int64_t values[] = {0, 1, -1, 2, -2, 1000, -1000,
                                 INT64_MAX, INT64_MIN};
  for (std::int64_t v : values) {
    std::vector<std::uint8_t> buf;
    sadj::put_signed(buf, v);
    const std::uint8_t* p = buf.data();
    std::int64_t decoded = 0;
    ASSERT_TRUE(sadj::get_signed(p, buf.data() + buf.size(), decoded));
    EXPECT_EQ(decoded, v);
  }
}

// ------------------------------------------------------------ round trips --

class SadjRoundTrip : public TempDirTest {};

TEST_F(SadjRoundTrip, EmptyGraph) {
  VecStream src({}, 0, 0);
  EXPECT_EQ(write_sadj(src, path("empty.sadj")), 0u);
  BinaryAdjacencyStream bin(path("empty.sadj"));
  EXPECT_EQ(bin.num_vertices(), 0u);
  EXPECT_EQ(bin.num_edges(), 0u);
  EXPECT_EQ(bin.num_records(), 0u);
  EXPECT_FALSE(bin.next().has_value());
}

TEST_F(SadjRoundTrip, SingleVertexNoEdges) {
  VecStream src({{0, {}}}, 1, 0);
  EXPECT_EQ(write_sadj(src, path("one.sadj")), 1u);
  BinaryAdjacencyStream bin(path("one.sadj"));
  auto r = bin.next();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->id, 0u);
  EXPECT_TRUE(r->out.empty());
  EXPECT_FALSE(bin.next().has_value());
}

TEST_F(SadjRoundTrip, SelfLoopSurvives) {
  VecStream src({{0, {0, 1}}, {1, {1}}}, 2, 3);
  write_sadj(src, path("loop.sadj"));
  BinaryAdjacencyStream bin(path("loop.sadj"));
  src.reset();
  expect_same_records(drain(src), drain(bin));
}

TEST_F(SadjRoundTrip, MultigraphDuplicatesAndOrderSurvive) {
  // Duplicate edges and deliberately non-sorted neighbor order: both must
  // survive bit-exactly, because scoring accumulates floats in stream order.
  VecStream src({{0, {2, 2, 1, 2}}, {1, {0, 0}}, {2, {}}}, 3, 6);
  write_sadj(src, path("multi.sadj"));
  BinaryAdjacencyStream bin(path("multi.sadj"));
  src.reset();
  expect_same_records(drain(src), drain(bin));
  EXPECT_EQ(bin.num_records(), 3u);
}

TEST_F(SadjRoundTrip, FewerRecordsThanVertices) {
  // Text streams with quarantined lines legitimately emit fewer records
  // than V; the R header field carries that through.
  VecStream src({{0, {1}}, {4, {0}}}, 5, 2);
  EXPECT_EQ(write_sadj(src, path("holes.sadj")), 2u);
  BinaryAdjacencyStream bin(path("holes.sadj"));
  EXPECT_EQ(bin.num_vertices(), 5u);
  EXPECT_EQ(bin.num_records(), 2u);
  src.reset();
  expect_same_records(drain(src), drain(bin));
}

TEST_F(SadjRoundTrip, ResetReplaysIdentically) {
  const Graph g = generate_webcrawl(
      {.num_vertices = 200, .avg_out_degree = 4.0, .seed = 7});
  InMemoryStream src(g);
  write_sadj(src, path("reset.sadj"));
  BinaryAdjacencyStream bin(path("reset.sadj"));
  const auto first = drain(bin);
  bin.reset();
  expect_same_records(first, drain(bin));
}

TEST_F(SadjRoundTrip, RecordWiderThanTheReadWindowDecodes) {
  // Neighbors alternating between the two ends of a 2M-id range encode as
  // deltas of at least 3 bytes, so record 1 is over twice the read window
  // and the reader has to grow the window for it mid-stream.
  constexpr VertexId kFar = 2000000;
  OwnedVertexRecord wide{1, {}};
  for (VertexId i = 0; wide.out.size() * 3 <= 2 * BinaryAdjacencyStream::kWindowBytes;
       ++i) {
    wide.out.push_back(i);
    wide.out.push_back(kFar - i);
  }
  const EdgeId m = 2 + wide.out.size();
  VecStream src({{0, {1}}, wide, {2, {kFar}}}, kFar + 1, m);
  write_sadj(src, path("wide.sadj"));
  ASSERT_GT(std::filesystem::file_size(path("wide.sadj")),
            2 * BinaryAdjacencyStream::kWindowBytes);
  BinaryAdjacencyStream bin(path("wide.sadj"));
  src.reset();
  expect_same_records(drain(src), drain(bin));
  EXPECT_GT(bin.memory_footprint_bytes(), 2 * BinaryAdjacencyStream::kWindowBytes);
  bin.reset();
  src.reset();
  expect_same_records(drain(src), drain(bin));
}

TEST_F(SadjRoundTrip, WriterCrossChecksEdgeMetadata) {
  // A source stream lying about E must not bake a bad header silently.
  VecStream liar({{0, {1}}, {1, {0}}}, 2, 99);
  EXPECT_THROW(write_sadj(liar, path("liar.sadj")), IoError);
}

// -------------------------------------------------------------- corruption --

class SadjCorruption : public TempDirTest {
 protected:
  // A valid little file to mutate.
  std::vector<char> valid_bytes() {
    VecStream src({{0, {1, 2}}, {1, {0}}, {2, {}}}, 3, 3);
    write_sadj(src, path("valid.sadj"));
    std::ifstream in(path("valid.sadj"), std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  }
  void write_bytes(const std::string& p, const std::vector<char>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(SadjCorruption, TruncatedHeaderThrows) {
  auto bytes = valid_bytes();
  bytes.resize(sadj::kHeaderBytes - 1);
  write_bytes(path("trunc.sadj"), bytes);
  EXPECT_THROW(BinaryAdjacencyStream(path("trunc.sadj")), IoError);
}

TEST_F(SadjCorruption, TruncatedBodyThrows) {
  auto bytes = valid_bytes();
  bytes.pop_back();
  write_bytes(path("truncbody.sadj"), bytes);
  // The eager body-smaller-than-counts check catches this at construction;
  // either way the truncation must be a typed IoError, never a short read.
  EXPECT_THROW(
      {
        BinaryAdjacencyStream bin(path("truncbody.sadj"));
        drain(bin);
      },
      IoError);
}

TEST_F(SadjCorruption, TruncatedMidVarintThrowsAtDecode) {
  // A wide neighbor delta encodes to a multi-byte varint, so dropping one
  // byte leaves the body above the eager minimum-size bound — only the
  // decoder itself can notice the varint running off the end.
  VecStream src({{0, {1000000}}}, 1000001, 1);
  write_sadj(src, path("wide.sadj"));
  std::ifstream in(path("wide.sadj"), std::ios::binary);
  std::vector<char> bytes(std::istreambuf_iterator<char>(in), {});
  in.close();
  bytes.pop_back();
  write_bytes(path("widetrunc.sadj"), bytes);
  BinaryAdjacencyStream bin(path("widetrunc.sadj"));
  EXPECT_THROW(drain(bin), IoError);
}

TEST_F(SadjCorruption, BadMagicThrows) {
  auto bytes = valid_bytes();
  bytes[0] = 'X';
  write_bytes(path("magic.sadj"), bytes);
  EXPECT_THROW(BinaryAdjacencyStream(path("magic.sadj")), IoError);
}

TEST_F(SadjCorruption, VersionMismatchThrows) {
  auto bytes = valid_bytes();
  bytes[8] = static_cast<char>(sadj::kVersion + 1);
  write_bytes(path("version.sadj"), bytes);
  EXPECT_THROW(BinaryAdjacencyStream(path("version.sadj")), IoError);
}

TEST_F(SadjCorruption, NonZeroFlagsThrow) {
  auto bytes = valid_bytes();
  bytes[12] = 1;
  write_bytes(path("flags.sadj"), bytes);
  EXPECT_THROW(BinaryAdjacencyStream(path("flags.sadj")), IoError);
}

TEST_F(SadjCorruption, TrailingBytesThrow) {
  auto bytes = valid_bytes();
  bytes.push_back(0);
  write_bytes(path("trailing.sadj"), bytes);
  BinaryAdjacencyStream bin(path("trailing.sadj"));
  EXPECT_THROW(drain(bin), IoError);
}

TEST_F(SadjCorruption, TextFileRejectedAtConstruction) {
  std::ofstream out(path("text.sadj"));
  out << "# V 3 E 3\n0 1 2\n1 2\n2\n";
  out.close();
  EXPECT_THROW(BinaryAdjacencyStream(path("text.sadj")), IoError);
}

// ---------------------------------------------------------- text readers --
// Literal expected records for the edge cases of the adj and edge-list text
// formats.

// The suite keeps the name it had when these cases compared two readers, so
// its test ids stay stable.
class MmapParity : public TempDirTest {};

TEST_F(MmapParity, AdjacencyMatchesBufferedReader) {
  std::ofstream out(path("g.adj"));
  out << "# a comment\n# V 4 E 5\n0 1 2\n\n1 3\n# mid comment\n2 3 0\n3\n";
  out.close();
  FileAdjacencyStream stream(path("g.adj"));
  EXPECT_EQ(stream.num_vertices(), 4u);
  EXPECT_EQ(stream.num_edges(), 5u);
  expect_same_records(drain(stream), {{0, {1, 2}}, {1, {3}}, {2, {3, 0}}, {3, {}}});
}

TEST_F(MmapParity, AdjacencyInfersCountsWithoutHeader) {
  std::ofstream out(path("nh.adj"));
  out << "0 1\n1 0 2\n2\n";
  out.close();
  FileAdjacencyStream stream(path("nh.adj"));
  EXPECT_EQ(stream.num_vertices(), 3u);
  EXPECT_EQ(stream.num_edges(), 3u);
}

TEST_F(MmapParity, AdjacencyNoTrailingNewline) {
  std::ofstream out(path("nt.adj"));
  out << "0 1\n1 0";  // final line unterminated
  out.close();
  FileAdjacencyStream stream(path("nt.adj"));
  expect_same_records(drain(stream), {{0, {1}}, {1, {0}}});
}

TEST_F(MmapParity, AdjacencyCarriageReturnsTolerated) {
  std::ofstream out(path("crlf.adj"));
  out << "0 1\r\n1 0\r\n";
  out.close();
  FileAdjacencyStream stream(path("crlf.adj"));
  expect_same_records(drain(stream), {{0, {1}}, {1, {0}}});
}

TEST_F(MmapParity, AdjacencyMalformedLineThrows) {
  std::ofstream out(path("bad.adj"));
  out << "# V 2 E 1\n0 xyz\n";
  out.close();
  FileAdjacencyStream stream(path("bad.adj"));
  EXPECT_THROW(stream.next(), std::runtime_error);
}

TEST_F(MmapParity, AdjacencyQuarantineMatchesBuffered) {
  std::ofstream out(path("q.adj"));
  out << "0 1\nnot a line at all x\n1 0\n2 bogus!\n";
  out.close();
  StreamHardeningOptions hardening;
  hardening.max_bad_records = 4;
  FileAdjacencyStream stream(path("q.adj"), hardening);
  expect_same_records(drain(stream), {{0, {1}}, {1, {0}}});
  EXPECT_EQ(stream.bad_records(), 2u);
}

TEST_F(MmapParity, AdjacencyQuarantineBoundEnforced) {
  std::ofstream out(path("qb.adj"));
  out << "0 1\nbad one x\nbad two y\n1 0\n";
  out.close();
  StreamHardeningOptions hardening;
  hardening.max_bad_records = 1;
  FileAdjacencyStream stream(path("qb.adj"), hardening);
  EXPECT_THROW(drain(stream), std::runtime_error);
}

TEST_F(MmapParity, EdgeListMatchesBufferedReader) {
  std::ofstream out(path("g.el"));
  out << "# comment\n0 1\n0 2\n2 0\n2 3\n";
  out.close();
  EdgeListAdjacencyStream stream(path("g.el"));
  EXPECT_EQ(stream.num_vertices(), 4u);
  EXPECT_EQ(stream.num_edges(), 4u);
  // Vertices with no out-edges (1, 3) are emitted as empty records.
  expect_same_records(drain(stream), {{0, {1, 2}}, {1, {}}, {2, {0, 3}}, {3, {}}});
}

TEST_F(MmapParity, EdgeListRejectsUnsortedSources) {
  std::ofstream out(path("us.el"));
  out << "1 0\n0 1\n";
  out.close();
  EXPECT_THROW(EdgeListAdjacencyStream(path("us.el")), std::runtime_error);
}

TEST_F(MmapParity, EdgeListRejectsMalformedLines) {
  std::ofstream out(path("ml.el"));
  out << "0 1 2\n";
  out.close();
  EXPECT_THROW(EdgeListAdjacencyStream(path("ml.el")), std::runtime_error);
}

TEST_F(MmapParity, EmptyFileYieldsEmptyStream) {
  std::ofstream(path("empty.adj")).close();
  FileAdjacencyStream stream(path("empty.adj"));
  EXPECT_EQ(stream.num_vertices(), 0u);
  EXPECT_FALSE(stream.next().has_value());
}

TEST_F(MmapParity, MissingFileThrows) {
  EXPECT_THROW(FileAdjacencyStream(path("nope.adj")), std::runtime_error);
}

TEST_F(MmapParity, ResetReplaysAndRecounts) {
  std::ofstream out(path("r.adj"));
  out << "0 1\nzz\n1 0\n";
  out.close();
  FileAdjacencyStream stream(path("r.adj"), {.max_bad_records = 4, .quarantine_log = {}});
  expect_same_records(drain(stream), {{0, {1}}, {1, {0}}});
  EXPECT_EQ(stream.bad_records(), 1u);
  stream.reset();
  EXPECT_EQ(stream.bad_records(), 0u);
  expect_same_records(drain(stream), {{0, {1}}, {1, {0}}});
  EXPECT_EQ(stream.bad_records(), 1u);
}

// ------------------------------------------------- route identity (fuzz) --

class RouteIdentity : public TempDirTest {
 protected:
  static std::vector<PartitionId> route_of(AdjacencyStream& stream,
                                           PartitionId k) {
    PartitionConfig config;
    config.num_partitions = k;
    SpnlPartitioner partitioner(stream.num_vertices(), stream.num_edges(),
                                config);
    return run_streaming(stream, partitioner).route;
  }
};

TEST_F(RouteIdentity, AllReadersProduceByteIdenticalRoutes) {
  // The ingestion contract, fuzzed: random graphs through the text reader
  // and the binary reader converted from it must yield byte-identical SPNL
  // routes.
  std::mt19937 rng(20260807);
  for (int round = 0; round < 6; ++round) {
    const VertexId n = 50 + static_cast<VertexId>(rng() % 400);
    const double deg = 1.0 + static_cast<double>(rng() % 60) / 10.0;
    const Graph g = generate_webcrawl(
        {.num_vertices = n, .avg_out_degree = deg,
         .seed = static_cast<std::uint64_t>(rng())});
    const std::string text = path("fuzz" + std::to_string(round) + ".adj");
    const std::string bin = path("fuzz" + std::to_string(round) + ".sadj");
    write_adjacency_list(g, text);
    {
      FileAdjacencyStream src(text);
      write_sadj(src, bin);
    }

    FileAdjacencyStream buffered(text);
    BinaryAdjacencyStream binary(bin);
    const PartitionId k = 2 + static_cast<PartitionId>(rng() % 7);
    const auto base = route_of(buffered, k);
    EXPECT_EQ(route_of(binary, k), base) << "binary route diverged, round "
                                         << round;
  }
}

}  // namespace
}  // namespace spnl
