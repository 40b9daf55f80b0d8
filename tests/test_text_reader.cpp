// The parse-ahead text reader (FileAdjacencyStream) against the records and
// malformed lines each test wrote, on files that span many slices: comments,
// blank lines, CRLF, an unterminated last line, lines longer than a slice,
// malformed lines placed exactly at a slice boundary (strict and
// quarantined), reset() and destruction mid-pass. The helpers run on real
// threads here, so the ThreadSanitizer smoke covers them. Also |V|
// agreement between the pre-scan, materialize and the stream metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/adjacency_stream.hpp"
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

// What a generated file holds: its records in file order, and its malformed
// lines, each with the index of the record that follows it.
struct Written {
  std::vector<OwnedVertexRecord> records;
  std::vector<std::string> bad_lines;
  std::vector<std::size_t> bad_before;

  void add_bad(std::string& text, const std::string& line) {
    text += line + "\n";
    bad_lines.push_back(line);
    bad_before.push_back(records.size());
  }
  std::vector<OwnedVertexRecord> records_before(std::size_t bad) const {
    return {records.begin(), records.begin() + bad_before[bad]};
  }
  // The counts a header-less pre-scan infers: |V| one past the largest id
  // or neighbor, |E| the sum of the degrees.
  VertexId num_vertices() const {
    VertexId n = 0;
    for (const OwnedVertexRecord& record : records) {
      n = std::max(n, record.id + 1);
      for (VertexId u : record.out) n = std::max(n, u + 1);
    }
    return n;
  }
  EdgeId num_edges() const {
    EdgeId m = 0;
    for (const OwnedVertexRecord& record : records) m += record.out.size();
    return m;
  }
};

// Adjacency lines for ids [first, first+count) with mixed separators, CRLF
// endings, comments and blank lines sprinkled in; appends the records to
// `written`.
void append_lines(std::string& text, VertexId first, VertexId count, VertexId n,
                  SplitMix64& rng, Written& written) {
  for (VertexId v = first; v < first + count; ++v) {
    const std::uint64_t pick = rng.next() % 64;
    if (pick == 0) text += "# comment line " + std::to_string(v) + "\n";
    if (pick == 1) text += "\n";
    if (pick == 2) text += " \t \r\n";
    text += std::to_string(v);
    OwnedVertexRecord record{v, {}};
    const std::uint64_t degree = rng.next() % 12;
    for (std::uint64_t d = 0; d < degree; ++d) {
      text += (d % 5 == 4) ? '\t' : ' ';
      record.out.push_back(static_cast<VertexId>(rng.next() % n));
      text += std::to_string(record.out.back());
    }
    text += (pick == 3) ? "\r\n" : "\n";
    written.records.push_back(std::move(record));
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
std::string boundary_file(std::size_t offset, const std::string& bad, Written& written) {
  const VertexId n = 300000;
  SplitMix64 rng(17);
  std::string text = "# V " + std::to_string(n) + " E 0\n";
  VertexId v = 0;
  while (text.size() + 200 < offset) append_lines(text, v++, 1, n, rng, written);
  written.add_bad(text, "mid-slice junk");
  pad_to(text, offset);
  written.add_bad(text, bad);
  while (text.size() < offset + 2 * kSlice) append_lines(text, v++, 1, n, rng, written);
  written.add_bad(text, "7 8 nine");
  append_lines(text, v, 5, n, rng, written);
  return text;
}

TEST_F(TextReader, MatchesWrittenRecordsAcrossManySlices) {
  const VertexId n = 400000;
  SplitMix64 rng(5);
  Written written;
  std::string text = "# generated\n# V " + std::to_string(n) + " E 123\n";
  append_lines(text, 0, n, n, rng, written);
  text += "400000 1 2";  // unterminated last line
  written.records.push_back({400000, {1, 2}});
  write_text(path("g.adj"), text, 4);
  FileAdjacencyStream file(path("g.adj"));
  EXPECT_EQ(file.num_vertices(), n);
  EXPECT_EQ(file.num_edges(), 123u);
  expect_same(drain(file), written.records);
  EXPECT_TRUE(file.next() == std::nullopt);  // stays at end
}

TEST_F(TextReader, HeaderlessCountsMatchWrittenRecords) {
  const VertexId n = 300000;
  SplitMix64 rng(9);
  Written written;
  std::string text;
  append_lines(text, 0, n, n + 50, rng, written);  // neighbors past the last line id
  write_text(path("nh.adj"), text, 3);
  FileAdjacencyStream file(path("nh.adj"));
  EXPECT_EQ(file.num_vertices(), written.num_vertices());
  EXPECT_EQ(file.num_edges(), written.num_edges());
  EXPECT_GE(file.num_vertices(), n);
  expect_same(drain(file), written.records);
}

TEST_F(TextReader, LineLongerThanASlice) {
  std::vector<OwnedVertexRecord> expected{{0, {1}}, {1, {}}, {2, {0}}, {3, {}}, {4, {3}}};
  std::string text = "0 1\n1";
  for (std::size_t i = 0; text.size() < 3 * kSlice; ++i) {
    text += " " + std::to_string(i % 7);
    expected[1].out.push_back(static_cast<VertexId>(i % 7));
  }
  text += "\n2 0\n3\n4 3";
  write_text(path("long.adj"), text, 3);
  FileAdjacencyStream file(path("long.adj"));
  EXPECT_EQ(file.num_vertices(), 7u);  // neighbor 6 has no line of its own
  EXPECT_EQ(file.num_edges(), expected[1].out.size() + 3);
  const auto records = drain(file);
  EXPECT_GT(records[1].out.size(), kSlice / 2);
  expect_same(records, expected);
}

TEST_F(TextReader, MalformedLineAtSliceBoundaryThrowsAfterEveryEarlierRecord) {
  for (const std::size_t offset : {kSlice, 2 * kSlice, kSlice - 1, kSlice + 1}) {
    SCOPED_TRACE(offset);
    Written written;
    write_text(path("b.adj"), boundary_file(offset, "12 x13", written), 2);
    FileAdjacencyStream file(path("b.adj"));
    bool threw = false;
    // The mid-slice junk line before the boundary is the first bad line.
    expect_same(drain_until_throw(file, threw), written.records_before(0));
    EXPECT_TRUE(threw);
    // The stream resumes after the bad line, like a buffered reader.
    const auto more = drain_until_throw(file, threw);
    EXPECT_TRUE(threw);
    expect_same(more, {written.records.begin() + written.bad_before[0],
                       written.records.begin() + written.bad_before[1]});
  }
}

TEST_F(TextReader, QuarantineAtSliceBoundaryCountsAndLogsInOrder) {
  for (const std::size_t offset : {kSlice, 2 * kSlice}) {
    SCOPED_TRACE(offset);
    Written written;
    write_text(path("q.adj"), boundary_file(offset, "bad\tline @ boundary", written), 2);
    FileAdjacencyStream file(path("q.adj"),
                             {.max_bad_records = 10, .quarantine_log = path("file.log")});
    expect_same(drain(file), written.records);
    EXPECT_EQ(file.bad_records(), 3u);
    EXPECT_EQ(read_file(path("file.log")),
              "mid-slice junk\nbad\tline @ boundary\n7 8 nine\n");
  }
}

TEST_F(TextReader, QuarantineBoundThrowsAtTheSecondBadLine) {
  Written written;
  write_text(path("qb.adj"), boundary_file(kSlice, "boundary junk", written), 2);
  FileAdjacencyStream file(path("qb.adj"), {.max_bad_records = 1, .quarantine_log = {}});
  bool threw = false;
  // The first bad line is quarantined; the second one is past the bound.
  expect_same(drain_until_throw(file, threw), written.records_before(1));
  EXPECT_TRUE(threw);
  EXPECT_EQ(file.bad_records(), 2u);
}

TEST_F(TextReader, HeaderlessStrictPrescanThrowsOnBoundaryLine) {
  Written written;
  std::string text = boundary_file(kSlice, "zz", written);
  text.erase(0, text.find('\n') + 1);  // drop the header
  write_text(path("h.adj"), text, 2);
  EXPECT_THROW(FileAdjacencyStream(path("h.adj")), std::runtime_error);
  FileAdjacencyStream quarantined(path("h.adj"), {.max_bad_records = 5, .quarantine_log = {}});
  EXPECT_EQ(quarantined.num_vertices(), written.num_vertices());
  EXPECT_EQ(quarantined.num_edges(), written.num_edges());
  expect_same(drain(quarantined), written.records);
  EXPECT_EQ(quarantined.bad_records(), 3u);
}

TEST_F(TextReader, ResetMidPassRestartsFromTheTop) {
  Written written;
  write_text(path("r.adj"), boundary_file(kSlice, "reset junk", written), 2);
  const StreamHardeningOptions opts{.max_bad_records = 10, .quarantine_log = path("r.log")};
  FileAdjacencyStream file(path("r.adj"), opts);
  const auto& full = written.records;
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
  Written written;
  std::string text = "# V " + std::to_string(n) + " E 0\n";
  append_lines(text, 0, n, n, rng, written);
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

// The end of the stream frees the pass's slices; reset() opens a new pass
// that hands out the same records.
TEST_F(TextReader, EndOfStreamFreesThePassAndResetReplays) {
  const VertexId n = 300000;
  SplitMix64 rng(11);
  Written written;
  std::string text = "# V " + std::to_string(n) + " E 0\n";
  append_lines(text, 0, n, n, rng, written);
  write_text(path("e.adj"), text, 3);
  FileAdjacencyStream file(path("e.adj"));
  ASSERT_TRUE(file.next().has_value());
  EXPECT_GT(file.memory_footprint_bytes(), 0u);
  file.reset();
  const std::vector<OwnedVertexRecord> first = drain(file);
  EXPECT_EQ(file.memory_footprint_bytes(), 0u);
  EXPECT_TRUE(file.next() == std::nullopt);  // stays at end
  expect_same(first, written.records);
  file.reset();
  expect_same(drain(file), first);
  EXPECT_EQ(file.memory_footprint_bytes(), 0u);
}

// |V| from the pre-scan, materialize and the stream metrics agree on sinks
// that have no line of their own, without a header.
TEST_F(TextReader, SinkWithoutLineCountsAsVertexWithoutHeader) {
  {
    std::ofstream out(path("s.adj"));
    out << "0 5\n1 0\n";
  }
  FileAdjacencyStream stream(path("s.adj"));
  EXPECT_EQ(stream.num_vertices(), 6u);
  EXPECT_EQ(stream.num_edges(), 2u);
  const Graph graph = materialize(stream);
  EXPECT_EQ(graph.num_vertices(), 6u);
  stream.reset();
  const std::vector<PartitionId> route{0, 1, 0, 1, 0, 1};
  const QualityMetrics from_stream = evaluate_partition(stream, route, 2);
  EXPECT_EQ(from_stream.cut_edges, evaluate_partition(graph, route, 2).cut_edges);
  EXPECT_EQ(from_stream.cut_edges, 2u);
}

TEST_F(TextReader, NeighborPastHeaderCountIsRejected) {
  {
    std::ofstream out(path("h.adj"));
    out << "# V 3 E 2\n0 5\n1 0\n";
  }
  FileAdjacencyStream stream(path("h.adj"));
  EXPECT_EQ(stream.num_vertices(), 3u);
  EXPECT_THROW(materialize(stream), std::runtime_error);
  stream.reset();
  EXPECT_THROW(evaluate_partition(stream, {0, 1, 0}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace spnl
