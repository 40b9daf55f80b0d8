// Storage-fault injection: the faultfs plan grammar, the hardened writers'
// behavior under ENOSPC / EINTR storms / short writes / failed fsync+rename,
// crash-atomic publish of checkpoints and sadj conversions, quarantine-log
// drop counting, and the input readers (a file truncated while streamed
// surfaces as a typed IoError; injected open/read faults are typed errors or
// absorbed retries), also in the sadj segment readers the metrics open and
// on the read-ahead helper the 2PS prepass reads its scans through.
#include "util/fault_fs.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/read_ahead_stream.hpp"
#include "graph/stream_binary.hpp"
#include "partition/metrics.hpp"
#include "prepass/two_phase.hpp"
#include "util/checked_io.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faultfs::disarm();
    dir_ = unique_test_dir();
  }
  void TearDown() override {
    faultfs::disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static StateWriter payload(std::uint64_t tag) {
    StateWriter w;
    w.put_u64(tag);
    w.put_string("payload-" + std::to_string(tag));
    std::vector<std::uint32_t> body(1000, static_cast<std::uint32_t>(tag));
    w.put_vec(body);
    return w;
  }

  static std::uint64_t read_tag(const std::string& p) {
    StateReader r = read_checkpoint_file(p);
    return r.get_u64();
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Plan grammar.

TEST_F(FaultFsTest, GrammarRejectsMalformedPlans) {
  EXPECT_THROW(faultfs::configure("bogus"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("fail:write"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("fail:teleport@1"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("fail:write@0"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("fail:write@abc"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("fail:write@1@ebogus"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("short:fsync@1"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("enospc:notbytes"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("kill:write"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("seed:xyz,fail:write@r4"), std::runtime_error);
  EXPECT_THROW(faultfs::configure("wat:write@1"), std::runtime_error);
  EXPECT_FALSE(faultfs::armed());  // a rejected plan never arms
}

TEST_F(FaultFsTest, EmptySpecDisarms) {
  faultfs::configure("fail:write@1");
  EXPECT_TRUE(faultfs::armed());
  faultfs::configure("");
  EXPECT_FALSE(faultfs::armed());
}

TEST_F(FaultFsTest, OperationsAreCountedOnlyWhileArmed) {
  // An index far past anything this test performs: armed but never firing.
  faultfs::configure("fail:write@1000000");
  FdWriter w(path("counted.txt"));
  w.append("hello");
  w.flush();
  w.close();
  EXPECT_GE(faultfs::op_count(faultfs::Op::kOpen), 1u);
  EXPECT_GE(faultfs::op_count(faultfs::Op::kWrite), 1u);
  EXPECT_EQ(faultfs::injected_faults(), 0u);
  faultfs::disarm();
  EXPECT_EQ(faultfs::op_count(faultfs::Op::kOpen), 0u);
}

TEST_F(FaultFsTest, SeededRandomIndicesAreDeterministic) {
  // `rN` draws at parse time from the plan's seed: the same plan string must
  // name the same schedule on every run — that is what makes a torture-matrix
  // failure reproducible from its log line.
  auto failing_write_index = [&](const std::string& spec) -> std::uint64_t {
    faultfs::configure(spec);
    std::uint64_t index = 0;
    FdWriter w(path("det.txt"));
    for (std::uint64_t i = 1; i <= 64; ++i) {
      try {
        w.append("0123456789abcdef");
        w.flush();
      } catch (const IoError&) {
        index = i;
        break;
      }
    }
    faultfs::disarm();
    return index;
  };
  const std::uint64_t first = failing_write_index("seed:42,fail:write@r16");
  const std::uint64_t second = failing_write_index("seed:42,fail:write@r16");
  const std::uint64_t third = failing_write_index("seed:43,fail:write@r16");
  ASSERT_GT(first, 0u);
  ASSERT_LE(first, 16u);
  EXPECT_EQ(first, second);
  // Different seed: almost always a different draw; equal draws are legal,
  // so only assert the bound.
  ASSERT_GT(third, 0u);
  ASSERT_LE(third, 16u);
}

// ---------------------------------------------------------------------------
// Checkpoint writer under storage faults.

TEST_F(FaultFsTest, CheckpointSurvivesEintrStorm) {
  const std::string p = path("ckpt.bin");
  faultfs::configure("eintr:write@1@5,eintr:fsync@2@2");
  write_checkpoint_file(p, payload(7));
  EXPECT_GE(faultfs::injected_faults(), 5u);
  faultfs::disarm();
  EXPECT_EQ(read_tag(p), 7u);
}

TEST_F(FaultFsTest, CheckpointSurvivesShortWrites) {
  const std::string p = path("ckpt.bin");
  faultfs::configure("short:write@1@4,short:write@2@3");
  write_checkpoint_file(p, payload(9));
  faultfs::disarm();
  EXPECT_EQ(read_tag(p), 9u);
}

TEST_F(FaultFsTest, CheckpointEnospcPreservesOldSnapshot) {
  const std::string p = path("ckpt.bin");
  write_checkpoint_file(p, payload(1));
  faultfs::configure("enospc:64");  // disk fills 64 bytes into the tmp file
  EXPECT_THROW(write_checkpoint_file(p, payload(2)), CheckpointError);
  faultfs::disarm();
  EXPECT_EQ(read_tag(p), 1u);  // old snapshot intact
  EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));  // partial tmp removed
}

TEST_F(FaultFsTest, CheckpointFailedFsyncPreservesOldSnapshot) {
  const std::string p = path("ckpt.bin");
  write_checkpoint_file(p, payload(1));
  faultfs::configure("fail:fsync@1@eio");
  EXPECT_THROW(write_checkpoint_file(p, payload(2)), CheckpointError);
  faultfs::disarm();
  EXPECT_EQ(read_tag(p), 1u);
  EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));
}

TEST_F(FaultFsTest, CheckpointFailedRenamePreservesOldSnapshot) {
  const std::string p = path("ckpt.bin");
  write_checkpoint_file(p, payload(1));
  faultfs::configure("fail:rename@1@eio");
  EXPECT_THROW(write_checkpoint_file(p, payload(2)), CheckpointError);
  faultfs::disarm();
  EXPECT_EQ(read_tag(p), 1u);
  EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));
}

TEST_F(FaultFsTest, CheckpointFailedOpenIsTyped) {
  faultfs::configure("fail:open@1@eacces");
  EXPECT_THROW(write_checkpoint_file(path("ckpt.bin"), payload(1)),
               CheckpointError);
}

// ---------------------------------------------------------------------------
// sadj conversion: crash-atomic overwrite.

TEST_F(FaultFsTest, SadjOverwriteFailureLeavesOldFileParseable) {
  const Graph old_graph = generate_webcrawl(
      {.num_vertices = 300, .avg_out_degree = 4.0, .seed = 5});
  const Graph new_graph = generate_webcrawl(
      {.num_vertices = 500, .avg_out_degree = 4.0, .seed = 6});
  const std::string p = path("graph.sadj");
  {
    InMemoryStream s(old_graph);
    write_sadj(s, p);
  }
  faultfs::configure("enospc:512");
  {
    InMemoryStream s(new_graph);
    EXPECT_THROW(write_sadj(s, p), IoError);
  }
  faultfs::disarm();
  EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));
  BinaryAdjacencyStream reader(p);
  EXPECT_EQ(reader.num_vertices(), old_graph.num_vertices());
  const Graph round = materialize(reader);
  EXPECT_EQ(round.num_edges(), old_graph.num_edges());
}

// ---------------------------------------------------------------------------
// Graph/route writers: unchecked-ofstream bug class.

TEST_F(FaultFsTest, RouteWriterSurfacesEnospc) {
  // The old ofstream writer reported full-disk success; FdWriter must throw.
  std::vector<PartitionId> route(10000, 1);
  faultfs::configure("enospc:128");
  EXPECT_THROW(write_route_table(route, path("route.txt")), IoError);
  faultfs::disarm();
}

TEST_F(FaultFsTest, ChunkedRouteWriterSurfacesWriteFaults) {
  // Many chunks formatted in parallel (over 2 MiB of text, so several
  // writes), each fault on the one writer.
  std::vector<PartitionId> route(300000, 7);
  ASSERT_GT(route.size(), 10 * kRouteChunkVertices);
  for (const char* plan : {"fail:write@1@enospc", "fail:write@2@eio", "enospc:4096"}) {
    SCOPED_TRACE(plan);
    faultfs::configure(plan);
    EXPECT_THROW(write_route_table(route, path("route.txt")), IoError);
    faultfs::disarm();
  }
  write_route_table(route, path("route.txt"));
  EXPECT_EQ(read_route_table(path("route.txt")), route);
}

TEST_F(FaultFsTest, GraphWritersSurfaceWriteFailures) {
  const Graph g = generate_webcrawl(
      {.num_vertices = 2000, .avg_out_degree = 6.0, .seed = 3});
  faultfs::configure("fail:write@1@enospc");
  EXPECT_THROW(write_adjacency_list(g, path("g.adj")), IoError);
  faultfs::configure("fail:write@1@eio");
  EXPECT_THROW(write_edge_list(g, path("g.el")), IoError);
  faultfs::configure("fail:write@1@enospc");
  EXPECT_THROW(write_binary(g, path("g.bin")), IoError);
  faultfs::disarm();
  // And with no plan armed all three succeed and round-trip.
  write_binary(g, path("g.bin"));
  EXPECT_EQ(read_binary(path("g.bin")).num_edges(), g.num_edges());
}

// ---------------------------------------------------------------------------
// Quarantine log: write failures are counted drops, not aborts.

TEST_F(FaultFsTest, QuarantineLogWriteFailuresAreCountedNotFatal) {
  const std::string input = path("dirty.adj");
  {
    FdWriter w(input);
    w.append("0 1 2\nzzz\n1 0\n??\n2 0 1\n");
    w.close();
  }
  // enospc:0 — every log write fails, but the log OPEN still succeeds, so
  // construction passes and the failure lands mid-stream where it used to
  // abort the run.
  faultfs::configure("enospc:0");
  FileAdjacencyStream stream(
      input, {.max_bad_records = 10, .quarantine_log = path("bad.txt")});
  std::uint64_t records = 0;
  while (stream.next()) ++records;
  faultfs::disarm();
  EXPECT_EQ(records, 3u);
  EXPECT_EQ(stream.bad_records(), 2u);
  EXPECT_EQ(stream.quarantine_log_drops(), 2u);  // both lines lost, counted
}

TEST_F(FaultFsTest, QuarantineLogHealthyPathCountsNoDrops) {
  const std::string input = path("dirty.adj");
  {
    FdWriter w(input);
    w.append("0 1\nzzz\n1 0\n");
    w.close();
  }
  FileAdjacencyStream stream(
      input, {.max_bad_records = 10, .quarantine_log = path("bad.txt")});
  while (stream.next()) {
  }
  EXPECT_EQ(stream.bad_records(), 1u);
  EXPECT_EQ(stream.quarantine_log_drops(), 0u);
}

// ---------------------------------------------------------------------------
// Input readers never map the file: one that shrinks while streamed ends a
// read early, and the reader turns that short read into a typed IoError
// naming the truncation instead of ending the stream quietly.

constexpr std::size_t kPage = 4096;

// Writes an adjacency text file of one slice that spans well past `kPage`
// bytes, so the stream parses it inline at the first next().
std::string big_adj_file(const std::filesystem::path& dir) {
  const std::string p = (dir / "big.adj").string();
  FdWriter w(p);
  w.append("# V 3000 E 2999\n");
  for (int v = 0; v + 1 < 3000; ++v) {
    w.append_u64(static_cast<std::uint64_t>(v));
    w.append_char(' ');
    w.append_u64(static_cast<std::uint64_t>(v + 1));
    w.append_char('\n');
  }
  w.close();
  return p;
}

void expect_truncation_error(AdjacencyStream& stream) {
  bool threw = false;
  try {
    while (stream.next()) {
    }
  } catch (const IoError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(threw);
}

TEST_F(FaultFsTest, TextReaderSurvivesMidStreamTruncationAsIoError) {
  const std::string p = big_adj_file(dir_);
  ASSERT_GT(std::filesystem::file_size(p), 3 * kPage);
  ASSERT_LT(std::filesystem::file_size(p), FileAdjacencyStream::kSliceBytes);
  FileAdjacencyStream stream(p);
  ASSERT_EQ(::truncate(p.c_str(), static_cast<off_t>(kPage)), 0);
  expect_truncation_error(stream);
}

TEST_F(FaultFsTest, BinaryReaderSurvivesMidStreamTruncationAsIoError) {
  const Graph g = generate_webcrawl(
      {.num_vertices = 300000, .avg_out_degree = 6.0, .seed = 11});
  const std::string p = path("big.sadj");
  {
    InMemoryStream s(g);
    write_sadj(s, p);
  }
  ASSERT_GT(std::filesystem::file_size(p), 2 * BinaryAdjacencyStream::kWindowBytes);
  BinaryAdjacencyStream stream(p);  // header validated while file is whole
  ASSERT_TRUE(stream.next().has_value());
  ASSERT_EQ(::truncate(p.c_str(), static_cast<off_t>(kPage)), 0);
  expect_truncation_error(stream);
  EXPECT_THROW(stream.reset(), IoError);
}

TEST_F(FaultFsTest, EdgeListReaderSurvivesMidStreamTruncationAsIoError) {
  const std::string p = path("big.el");
  {
    FdWriter w(p);
    for (int v = 0; v + 1 < 3000; ++v) {
      w.append_u64(static_cast<std::uint64_t>(v));
      w.append_char(' ');
      w.append_u64(static_cast<std::uint64_t>(v + 1));
      w.append_char('\n');
    }
    w.close();
  }
  ASSERT_GT(std::filesystem::file_size(p), 3 * kPage);
  EdgeListAdjacencyStream stream(p);
  ASSERT_TRUE(stream.next().has_value());
  ASSERT_EQ(::truncate(p.c_str(), static_cast<off_t>(kPage)), 0);
  expect_truncation_error(stream);
  EXPECT_THROW(stream.reset(), IoError);
}

TEST_F(FaultFsTest, ResetOnShrunkFileFailsUpFrontWithoutTouchingPages) {
  const std::string p = big_adj_file(dir_);
  FileAdjacencyStream stream(p);
  ASSERT_EQ(::truncate(p.c_str(), static_cast<off_t>(kPage)), 0);
  // The size check against the pre-scan fires before any read.
  EXPECT_THROW(stream.reset(), IoError);
}

TEST_F(FaultFsTest, IntactFilesStreamIdenticallyWithGuardsInstalled) {
  // The truncation checks must be semantics-free on the happy path: a
  // healthy file streams every record, twice (reset between passes compares
  // the unchanged size).
  const std::string p = big_adj_file(dir_);
  FileAdjacencyStream stream(p);
  std::uint64_t first_pass = 0, second_pass = 0;
  while (stream.next()) ++first_pass;
  stream.reset();
  while (stream.next()) ++second_pass;
  EXPECT_EQ(first_pass, 2999u);
  EXPECT_EQ(first_pass, second_pass);
}

// ---------------------------------------------------------------------------
// Injected open/read faults on the sadj reader: failures are typed errors,
// short reads and EINTR storms are absorbed without changing a record.

TEST_F(FaultFsTest, InjectedOpenAndReadFailuresAreTyped) {
  const Graph g = generate_webcrawl(
      {.num_vertices = 2000, .avg_out_degree = 6.0, .seed = 4});
  const std::string p = path("g.sadj");
  {
    InMemoryStream s(g);
    write_sadj(s, p);
  }
  auto drain = [&] {
    BinaryAdjacencyStream stream(p);
    std::vector<OwnedVertexRecord> records;
    while (auto record = stream.next()) records.push_back(OwnedVertexRecord::from(*record));
    return records;
  };
  const std::vector<OwnedVertexRecord> expected = drain();
  ASSERT_EQ(expected.size(), g.num_vertices());
  for (const char* plan : {"fail:open@1@emfile", "fail:read@1@eio"}) {
    SCOPED_TRACE(plan);
    faultfs::configure(plan);
    EXPECT_THROW(drain(), IoError);
  }
  for (const char* plan : {"short:read@1", "eintr:read@1@5"}) {
    SCOPED_TRACE(plan);
    faultfs::configure(plan);
    const std::vector<OwnedVertexRecord> records = drain();
    EXPECT_GE(faultfs::injected_faults(), 1u);
    faultfs::disarm();
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i].id, expected[i].id) << "record " << i;
      ASSERT_EQ(records[i].out, expected[i].out) << "record " << i;
    }
  }
  // The plan grammar no longer knows a mapping operation.
  EXPECT_THROW(faultfs::configure("fail:mmap@1"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The 2PS prepass reads each scan through a ReadAheadStream, whose helper
// thread calls the file stream's next(): a read failure there must reach the
// caller as the reader's IoError, after every earlier record, and neither
// hang the caller nor terminate the process.

TEST_F(FaultFsTest, ReadFailureInAPrepassScanIsTypedIoError) {
  const Graph g = generate_webcrawl(
      {.num_vertices = 40000, .avg_out_degree = 8.0, .seed = 9});
  const std::string p = path("g.sadj");
  {
    InMemoryStream s(g);
    write_sadj(s, p);
  }
  const PartitionConfig config{.num_partitions = 8};
  BinaryAdjacencyStream reference(p);
  const PrepassResult expected = cluster_prepass(reference, config);
  // Reads of one scan: the file through the 128 KiB window.
  const std::uint64_t reads_per_scan =
      std::filesystem::file_size(p) / BinaryAdjacencyStream::kWindowBytes + 1;
  ASSERT_GE(reads_per_scan, 3u);
  // Mid-scan in the first scan, then in each refinement scan.
  for (const std::uint64_t index :
       {reads_per_scan / 2 + 1, reads_per_scan + 2, 2 * reads_per_scan + 2}) {
    SCOPED_TRACE(index);
    BinaryAdjacencyStream stream(p);
    faultfs::configure("fail:read@" + std::to_string(index) + "@eio");
    EXPECT_THROW(cluster_prepass(stream, config), IoError);
    EXPECT_EQ(faultfs::injected_faults(), 1u);
    faultfs::disarm();
    stream.reset();
    const PrepassResult again = cluster_prepass(stream, config);
    EXPECT_EQ(again.hints, expected.hints);
  }
}

/// Streams 0..n-1 with one out-neighbor each and throws IoError when asked
/// for record `fail_at`. Record `bad_id_at` carries an id out of range.
class FailingStream final : public AdjacencyStream {
 public:
  FailingStream(VertexId n, VertexId fail_at, VertexId bad_id_at = kInvalidVertex)
      : n_(n), fail_at_(fail_at), bad_id_at_(bad_id_at) {}
  std::optional<VertexRecord> next() override {
    if (cursor_ == fail_at_) throw IoError("FailingStream: injected at record " +
                                           std::to_string(cursor_));
    if (cursor_ == n_) return std::nullopt;
    target_ = (cursor_ + 1) % n_;
    const VertexId id = cursor_ == bad_id_at_ ? n_ + 7 : cursor_;
    ++cursor_;
    return VertexRecord{id, {&target_, 1}};
  }
  void reset() override { cursor_ = 0; }
  VertexId num_vertices() const override { return n_; }
  EdgeId num_edges() const override { return n_; }

 private:
  VertexId n_;
  VertexId fail_at_;
  VertexId bad_id_at_;
  VertexId cursor_ = 0;
  VertexId target_ = 0;
};

TEST_F(FaultFsTest, StreamErrorSurfacesOnlyAfterEveryEarlierRecord) {
  const VertexId n = 20000;
  // Inside a slab, at a slab boundary, and on the first record.
  for (const VertexId fail_at : {VertexId{5000}, VertexId{2048}, VertexId{0}}) {
    SCOPED_TRACE(fail_at);
    FailingStream inner(n, fail_at);
    ReadAheadStream ahead(inner);
    VertexId seen = 0;
    try {
      while (auto record = ahead.next()) {
        ASSERT_EQ(record->id, seen);
        ++seen;
      }
      ADD_FAILURE() << "no error surfaced";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("injected at record"), std::string::npos);
    }
    EXPECT_EQ(seen, fail_at);
  }
  // The prepass's own error for an earlier record wins over the stream's,
  // which wins over a later one.
  const PartitionConfig config{.num_partitions = 4};
  FailingStream bad_first(n, 6000, 5990);
  EXPECT_THROW(cluster_prepass(bad_first, config), std::invalid_argument);
  FailingStream fail_first(n, 5990, 6000);
  EXPECT_THROW(cluster_prepass(fail_first, config), IoError);
}

// ---------------------------------------------------------------------------
// The segment readers evaluate_partition opens over an indexed sadj stream:
// a file changed or shrunk after indexing, and injected read faults, are
// typed errors; short reads and EINTR storms leave the metrics unchanged.

class SegmentFaultTest : public FaultFsTest {
 protected:
  static constexpr VertexId kVertices = 300000;
  static constexpr PartitionId kK = 5;

  void SetUp() override {
    FaultFsTest::SetUp();
    graph_ = generate_webcrawl({.num_vertices = kVertices, .avg_out_degree = 6.0, .seed = 3});
    ASSERT_GE(graph_.num_edges(), kParallelMetricsMinEdges);
    file_ = path("g.sadj");
    InMemoryStream source(graph_);
    write_sadj(source, file_);
    route_.resize(kVertices);
    for (VertexId v = 0; v < kVertices; ++v) route_[v] = (v / 1000) % kK;
  }

  // A stream whose validated first pass built the seek-point index.
  std::unique_ptr<BinaryAdjacencyStream> indexed() const {
    auto stream = std::make_unique<BinaryAdjacencyStream>(file_);
    while (stream->next()) {
    }
    stream->reset();
    EXPECT_GE(stream->segments(), 4u);
    return stream;
  }

  // Overwrites one byte of the file in place.
  void poke(std::uint64_t offset, std::uint8_t byte) const {
    const int fd = ::open(file_.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(offset)), 1);
    ::close(fd);
  }

  Graph graph_;
  std::string file_;
  std::vector<PartitionId> route_;
};

TEST_F(SegmentFaultTest, FileTruncatedAfterIndexingIsIoError) {
  const auto stream = indexed();
  ASSERT_EQ(::truncate(file_.c_str(), static_cast<off_t>(kPage)), 0);
  try {
    evaluate_partition(*stream, route_, kK);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
}

TEST_F(SegmentFaultTest, FileChangedAfterIndexingIsIoError) {
  // The degree byte of the last record before the second seek point, found
  // by encoding the records ahead of it as the writer does.
  const VertexId last = static_cast<VertexId>(BinaryAdjacencyStream::kSeekStride - 1);
  ASSERT_GE(graph_.out_degree(last), 2u);
  ASSERT_LT(graph_.out_degree(last), 128u);
  std::vector<std::uint8_t> prefix;
  for (VertexId v = 0; v < last; ++v) {
    sadj::put_signed(prefix, 1);
    sadj::put_varint(prefix, graph_.out_degree(v));
    std::int64_t prev = v;
    for (VertexId u : graph_.out_neighbors(v)) {
      sadj::put_signed(prefix, static_cast<std::int64_t>(u) - prev);
      prev = u;
    }
  }
  sadj::put_signed(prefix, 1);
  const std::uint64_t degree_at = sadj::kHeaderBytes + prefix.size();

  const auto stream = indexed();
  poke(degree_at, static_cast<std::uint8_t>(graph_.out_degree(last) - 1));
  {
    const std::unique_ptr<AdjacencyStream> segment = stream->segment(0);
    try {
      while (segment->next()) {
      }
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("not at the next seek point"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(evaluate_partition(*stream, route_, kK), IoError);

  poke(16, 0xFF);  // V, in the header
  EXPECT_THROW(stream->segment(1), IoError);
}

TEST_F(SegmentFaultTest, InjectedReadFailureInASegmentReaderIsTyped) {
  const auto stream = indexed();
  for (const char* plan : {"fail:read@1", "fail:read@6@eio", "fail:read@r40"}) {
    SCOPED_TRACE(plan);
    faultfs::configure(plan);
    EXPECT_THROW(evaluate_partition(*stream, route_, kK), IoError);
    EXPECT_EQ(faultfs::injected_faults(), 1u);
    faultfs::disarm();
    EXPECT_GE(stream->segments(), 4u);
  }
}

TEST_F(SegmentFaultTest, ShortAndEintrReadsInSegmentReadersChangeNothing) {
  const auto stream = indexed();
  const QualityMetrics expected = evaluate_partition(graph_, route_, kK);
  for (const char* plan : {"short:read@1", "short:read@9@3", "eintr:read@2@5",
                           "short:read@4,eintr:read@12@2"}) {
    SCOPED_TRACE(plan);
    faultfs::configure(plan);
    const QualityMetrics metrics = evaluate_partition(*stream, route_, kK);
    EXPECT_GE(faultfs::injected_faults(), 1u);
    faultfs::disarm();
    EXPECT_EQ(metrics.cut_edges, expected.cut_edges);
    EXPECT_EQ(metrics.edges_per_partition, expected.edges_per_partition);
    EXPECT_EQ(metrics.vertices_per_partition, expected.vertices_per_partition);
    EXPECT_EQ(metrics.ecr, expected.ecr);
    EXPECT_EQ(metrics.delta_e, expected.delta_e);
  }
}

}  // namespace
}  // namespace spnl
