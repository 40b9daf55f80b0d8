// The parse-ahead text reader (FileAdjacencyStream) against the serial
// mmap reader on files that span many slices: comments, blank lines, CRLF,
// an unterminated last line, lines longer than a slice, malformed lines
// placed exactly at a slice boundary (strict and quarantined), reset() and
// destruction mid-pass. The helpers run on real threads here, so the
// ThreadSanitizer smoke covers them. Also |V| agreement between the
// pre-scans, materialize and the stream metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "graph/mmap_stream.hpp"
#include "partition/metrics.hpp"
#include "util/rng.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

constexpr std::size_t kSlice = FileAdjacencyStream::kSliceBytes;

class TextReader : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = unique_test_dir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::vector<OwnedVertexRecord> drain(AdjacencyStream& stream) {
  std::vector<OwnedVertexRecord> records;
  while (auto record = stream.next()) records.push_back(OwnedVertexRecord::from(*record));
  return records;
}

// Drains until the stream throws; returns the records handed out before.
std::vector<OwnedVertexRecord> drain_until_throw(AdjacencyStream& stream, bool& threw) {
  std::vector<OwnedVertexRecord> records;
  threw = false;
  try {
    while (auto record = stream.next()) records.push_back(OwnedVertexRecord::from(*record));
  } catch (const std::runtime_error&) {
    threw = true;
  }
  return records;
}

void expect_same(const std::vector<OwnedVertexRecord>& a,
                 const std::vector<OwnedVertexRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << "record " << i;
    ASSERT_EQ(a[i].out, b[i].out) << "record " << i;
  }
}

std::string read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Adjacency lines for ids [first, first+count) with mixed separators, CRLF
// endings, comments and blank lines sprinkled in.
void append_lines(std::string& text, VertexId first, VertexId count, VertexId n,
                  SplitMix64& rng) {
  for (VertexId v = first; v < first + count; ++v) {
    const std::uint64_t pick = rng.next() % 64;
    if (pick == 0) text += "# comment line " + std::to_string(v) + "\n";
    if (pick == 1) text += "\n";
    if (pick == 2) text += " \t \r\n";
    text += std::to_string(v);
    const std::uint64_t degree = rng.next() % 12;
    for (std::uint64_t d = 0; d < degree; ++d) {
      text += (d % 5 == 4) ? '\t' : ' ';
      text += std::to_string(rng.next() % n);
    }
    text += (pick == 3) ? "\r\n" : "\n";
  }
}

// Writes `text` and checks the file spans more than `slices` slices.
void write_text(const std::string& p, const std::string& text, std::size_t slices) {
  ASSERT_GT(text.size(), slices * kSlice);
  std::ofstream out(p, std::ios::binary);
  out << text;
}

// Pads `text` with a comment so the next line starts at exactly `offset`.
void pad_to(std::string& text, std::size_t offset) {
  ASSERT_GE(offset, text.size() + 2);
  text += '#';
  text.append(offset - text.size() - 1, 'x');
  text += '\n';
  ASSERT_EQ(text.size(), offset);
}

// A header file whose line at `offset` (a slice boundary) is `bad`, with
// other malformed lines inside slices.
std::string boundary_file(std::size_t offset, const std::string& bad) {
  const VertexId n = 300000;
  SplitMix64 rng(17);
  std::string text = "# V " + std::to_string(n) + " E 0\n";
  VertexId v = 0;
  while (text.size() + 200 < offset) append_lines(text, v++, 1, n, rng);
  text += "mid-slice junk\n";
  pad_to(text, offset);
  text += bad + "\n";
  while (text.size() < offset + 2 * kSlice) append_lines(text, v++, 1, n, rng);
  text += "7 8 nine\n";
  append_lines(text, v, 5, n, rng);
  return text;
}

TEST_F(TextReader, MatchesMmapReaderAcrossManySlices) {
  const VertexId n = 400000;
  SplitMix64 rng(5);
  std::string text = "# generated\n# V " + std::to_string(n) + " E 123\n";
  append_lines(text, 0, n, n, rng);
  text += "400000 1 2";  // unterminated last line
  write_text(path("g.adj"), text, 4);
  FileAdjacencyStream file(path("g.adj"));
  MmapAdjacencyStream mapped(path("g.adj"));
  EXPECT_EQ(file.num_vertices(), n);
  EXPECT_EQ(file.num_edges(), 123u);
  const auto records = drain(file);
  expect_same(records, drain(mapped));
  EXPECT_EQ(records.size(), n + 1);
  EXPECT_EQ(records.back().out, (std::vector<VertexId>{1, 2}));
  EXPECT_TRUE(file.next() == std::nullopt);  // stays at end
}

TEST_F(TextReader, HeaderlessCountsMatchMmapReader) {
  const VertexId n = 300000;
  SplitMix64 rng(9);
  std::string text;
  append_lines(text, 0, n, n + 50, rng);  // neighbors past the last line id
  write_text(path("nh.adj"), text, 3);
  FileAdjacencyStream file(path("nh.adj"));
  MmapAdjacencyStream mapped(path("nh.adj"));
  EXPECT_EQ(file.num_vertices(), mapped.num_vertices());
  EXPECT_EQ(file.num_edges(), mapped.num_edges());
  EXPECT_GE(file.num_vertices(), n);
  expect_same(drain(file), drain(mapped));
}

TEST_F(TextReader, LineLongerThanASlice) {
  std::string text = "0 1\n1";
  for (std::size_t i = 0; text.size() < 3 * kSlice; ++i) text += " " + std::to_string(i % 7);
  text += "\n2 0\n3\n4 3";
  write_text(path("long.adj"), text, 3);
  FileAdjacencyStream file(path("long.adj"));
  MmapAdjacencyStream mapped(path("long.adj"));
  EXPECT_EQ(file.num_vertices(), 7u);  // neighbor 6 has no line of its own
  EXPECT_EQ(file.num_vertices(), mapped.num_vertices());
  EXPECT_EQ(file.num_edges(), mapped.num_edges());
  const auto records = drain(file);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_GT(records[1].out.size(), kSlice / 2);
  expect_same(records, drain(mapped));
}

TEST_F(TextReader, MalformedLineAtSliceBoundaryThrowsAfterEveryEarlierRecord) {
  for (const std::size_t offset : {kSlice, 2 * kSlice, kSlice - 1, kSlice + 1}) {
    SCOPED_TRACE(offset);
    write_text(path("b.adj"), boundary_file(offset, "12 x13"), 2);
    FileAdjacencyStream file(path("b.adj"));
    MmapAdjacencyStream mapped(path("b.adj"));
    bool file_threw = false;
    bool mapped_threw = false;
    const auto file_records = drain_until_throw(file, file_threw);
    const auto mapped_records = drain_until_throw(mapped, mapped_threw);
    EXPECT_TRUE(file_threw);
    EXPECT_TRUE(mapped_threw);
    // The mid-slice junk line before the boundary is the first bad line.
    expect_same(file_records, mapped_records);
    // The stream resumes after the bad line, like a buffered reader.
    const auto more = drain_until_throw(file, file_threw);
    const auto more_mapped = drain_until_throw(mapped, mapped_threw);
    EXPECT_TRUE(file_threw);
    expect_same(more, more_mapped);
  }
}

TEST_F(TextReader, QuarantineAtSliceBoundaryCountsAndLogsInOrder) {
  for (const std::size_t offset : {kSlice, 2 * kSlice}) {
    SCOPED_TRACE(offset);
    write_text(path("q.adj"), boundary_file(offset, "bad\tline @ boundary"), 2);
    const StreamHardeningOptions file_opts{.max_bad_records = 10,
                                           .quarantine_log = path("file.log")};
    const StreamHardeningOptions mapped_opts{.max_bad_records = 10,
                                             .quarantine_log = path("mapped.log")};
    FileAdjacencyStream file(path("q.adj"), file_opts);
    MmapAdjacencyStream mapped(path("q.adj"), mapped_opts);
    expect_same(drain(file), drain(mapped));
    EXPECT_EQ(file.bad_records(), 3u);
    EXPECT_EQ(mapped.bad_records(), 3u);
    EXPECT_EQ(read_file(path("file.log")), read_file(path("mapped.log")));
    EXPECT_EQ(read_file(path("file.log")),
              "mid-slice junk\nbad\tline @ boundary\n7 8 nine\n");
  }
}

TEST_F(TextReader, QuarantineBoundThrowsAtTheSameRecordAsMmap) {
  write_text(path("qb.adj"), boundary_file(kSlice, "boundary junk"), 2);
  FileAdjacencyStream file(path("qb.adj"), {.max_bad_records = 1, .quarantine_log = {}});
  MmapAdjacencyStream mapped(path("qb.adj"), {.max_bad_records = 1, .quarantine_log = {}});
  bool file_threw = false;
  bool mapped_threw = false;
  expect_same(drain_until_throw(file, file_threw), drain_until_throw(mapped, mapped_threw));
  EXPECT_TRUE(file_threw);
  EXPECT_TRUE(mapped_threw);
  EXPECT_EQ(file.bad_records(), 2u);
}

TEST_F(TextReader, HeaderlessStrictPrescanThrowsOnBoundaryLine) {
  std::string text = boundary_file(kSlice, "zz");
  text.erase(0, text.find('\n') + 1);  // drop the header
  write_text(path("h.adj"), text, 2);
  EXPECT_THROW(FileAdjacencyStream(path("h.adj")), std::runtime_error);
  EXPECT_THROW(MmapAdjacencyStream(path("h.adj")), std::runtime_error);
  FileAdjacencyStream quarantined(path("h.adj"), {.max_bad_records = 5, .quarantine_log = {}});
  MmapAdjacencyStream mapped(path("h.adj"), {.max_bad_records = 5, .quarantine_log = {}});
  EXPECT_EQ(quarantined.num_vertices(), mapped.num_vertices());
  EXPECT_EQ(quarantined.num_edges(), mapped.num_edges());
  expect_same(drain(quarantined), drain(mapped));
  EXPECT_EQ(quarantined.bad_records(), 3u);
}

TEST_F(TextReader, ResetMidPassRestartsFromTheTop) {
  write_text(path("r.adj"), boundary_file(kSlice, "reset junk"), 2);
  const StreamHardeningOptions opts{.max_bad_records = 10, .quarantine_log = path("r.log")};
  FileAdjacencyStream file(path("r.adj"), opts);
  MmapAdjacencyStream mapped(path("r.adj"), {.max_bad_records = 10, .quarantine_log = {}});
  const auto full = drain(mapped);
  for (std::size_t stop : {std::size_t{1}, std::size_t{5000}, full.size() / 2}) {
    for (std::size_t i = 0; i < stop; ++i) ASSERT_TRUE(file.next().has_value());
    file.reset();
    EXPECT_EQ(file.bad_records(), 0u);
  }
  expect_same(drain(file), full);
  EXPECT_EQ(file.bad_records(), 3u);
  EXPECT_EQ(read_file(path("r.log")), "mid-slice junk\nreset junk\n7 8 nine\n");
  file.reset();
  expect_same(drain(file), full);
}

TEST_F(TextReader, DestructionMidPassJoinsCleanly) {
  const VertexId n = 300000;
  SplitMix64 rng(3);
  std::string text = "# V " + std::to_string(n) + " E 0\n";
  append_lines(text, 0, n, n, rng);
  write_text(path("d.adj"), text, 3);
  for (std::size_t stop : {std::size_t{0}, std::size_t{1}, std::size_t{70000},
                           std::size_t{n - 1}}) {
    FileAdjacencyStream file(path("d.adj"));
    for (std::size_t i = 0; i < stop; ++i) ASSERT_TRUE(file.next().has_value());
    if (stop > 0) {
      EXPECT_GT(file.memory_footprint_bytes(), 0u);
    }
  }
}

// |V| from the pre-scans, materialize and the stream metrics agree on sinks
// that have no line of their own, on both readers, with and without header.
TEST_F(TextReader, SinkWithoutLineCountsAsVertexWithoutHeader) {
  {
    std::ofstream out(path("s.adj"));
    out << "0 5\n1 0\n";
  }
  FileAdjacencyStream file(path("s.adj"));
  MmapAdjacencyStream mapped(path("s.adj"));
  for (AdjacencyStream* stream : {static_cast<AdjacencyStream*>(&file),
                                  static_cast<AdjacencyStream*>(&mapped)}) {
    EXPECT_EQ(stream->num_vertices(), 6u);
    EXPECT_EQ(stream->num_edges(), 2u);
    const Graph graph = materialize(*stream);
    EXPECT_EQ(graph.num_vertices(), 6u);
    stream->reset();
    const std::vector<PartitionId> route{0, 1, 0, 1, 0, 1};
    const QualityMetrics from_stream = evaluate_partition(*stream, route, 2);
    EXPECT_EQ(from_stream.cut_edges, evaluate_partition(graph, route, 2).cut_edges);
    EXPECT_EQ(from_stream.cut_edges, 2u);
  }
}

TEST_F(TextReader, NeighborPastHeaderCountIsRejected) {
  {
    std::ofstream out(path("h.adj"));
    out << "# V 3 E 2\n0 5\n1 0\n";
  }
  FileAdjacencyStream file(path("h.adj"));
  MmapAdjacencyStream mapped(path("h.adj"));
  for (AdjacencyStream* stream : {static_cast<AdjacencyStream*>(&file),
                                  static_cast<AdjacencyStream*>(&mapped)}) {
    EXPECT_EQ(stream->num_vertices(), 3u);
    EXPECT_THROW(materialize(*stream), std::runtime_error);
    stream->reset();
    EXPECT_THROW(evaluate_partition(*stream, {0, 1, 0}, 2), std::invalid_argument);
  }
}

}  // namespace
}  // namespace spnl
