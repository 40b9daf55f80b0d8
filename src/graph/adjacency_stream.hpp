// The streaming model of the paper (Sec. II / IV): the graph arrives as a
// one-pass stream of adjacency lists (vertex id + out-neighbors), vertices
// consecutively numbered and — in the default order — streamed by increasing
// id. Partitioners consume this interface; they never see the whole graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace spnl {

class FdWriter;

/// Hardening knobs for the file-backed streams. By default a malformed
/// mid-stream record aborts the run (the seed behavior); with
/// max_bad_records > 0 up to that many malformed lines are skipped, counted
/// and (optionally) appended verbatim to quarantine_log — one more malformed
/// line past the bound is a hard error.
struct StreamHardeningOptions {
  std::uint64_t max_bad_records = 0;
  std::string quarantine_log;
};

/// Bounded quarantine shared by the file streams: skip + count + log, hard
/// error past the bound.
///
/// Storage-fault contract: a quarantine log that cannot be OPENED is a typed
/// startup error (operator asked for a log they cannot have), but a log
/// WRITE that fails mid-stream must not abort a multi-hour partitioning run
/// over a side-channel file — the bad line is dropped from the log, the drop
/// is counted, and the run's summary surfaces log_drops() so the loss is
/// visible instead of silent.
class BadRecordQuarantine {
 public:
  BadRecordQuarantine() = default;
  /// Throws IoError when a quarantine log is configured but not writable —
  /// discovered at startup, not at the first (silently lost) bad record.
  explicit BadRecordQuarantine(StreamHardeningOptions options);
  ~BadRecordQuarantine();

  bool enabled() const { return options_.max_bad_records > 0; }

  /// Records one malformed line (appends it to the quarantine log when
  /// configured; a failed log write counts toward log_drops() instead of
  /// throwing). Throws std::runtime_error when the count exceeds
  /// max_bad_records; `context` prefixes the message.
  void record(const std::string& line, const std::string& context);

  std::uint64_t count() const { return count_; }
  /// Quarantined lines that could NOT be appended to the log because the
  /// log write failed (disk full, I/O error). Cumulative across passes.
  std::uint64_t log_drops() const { return log_drops_; }
  /// Called from the owning stream's reset() so each pass recounts. Also
  /// rewinds the quarantine log: without this, re-streaming passes (two-pass
  /// wrappers, resume) appended every quarantined line again, so a log
  /// consumer saw each bad record once per pass instead of once. A reopen
  /// failure here is counted in log_drops(), not thrown — reset runs at pass
  /// boundaries deep inside partitioning loops.
  void reset_count();

 private:
  void ensure_log_writable();

  StreamHardeningOptions options_;
  std::uint64_t count_ = 0;
  std::uint64_t log_drops_ = 0;
  std::unique_ptr<FdWriter> log_;
};

/// One streamed record: a vertex and its out-adjacency list. The span points
/// into stream-owned storage and is invalidated by the next call to next().
struct VertexRecord {
  VertexId id = kInvalidVertex;
  std::span<const VertexId> out;
};

/// Owning variant used when records must outlive the stream (records the
/// RCT parks, records the watchdog holds for a rescue).
struct OwnedVertexRecord {
  VertexId id = kInvalidVertex;
  std::vector<VertexId> out;

  static OwnedVertexRecord from(const VertexRecord& r) {
    return {r.id, std::vector<VertexId>(r.out.begin(), r.out.end())};
  }
  VertexRecord view() const { return {id, out}; }
};

/// One-pass (rewindable for re-streaming) adjacency-list source.
class AdjacencyStream {
 public:
  virtual ~AdjacencyStream() = default;

  /// Next record, or nullopt at end of stream.
  virtual std::optional<VertexRecord> next() = 0;

  /// Rewind to the beginning (used by the re-streaming wrappers).
  virtual void reset() = 0;

  /// Total vertex count. Streaming partitioners need |V| up front to size
  /// capacities — the paper assumes it is known (graphs ship with metadata).
  virtual VertexId num_vertices() const = 0;

  /// Total edge count (for edge-balanced capacities).
  virtual EdgeId num_edges() const = 0;

  /// Heap bytes the stream itself owns (read windows, line and decode
  /// buffers). Charged to the resource governor's footprint alongside the
  /// partitioner's structures.
  virtual std::size_t memory_footprint_bytes() const { return 0; }

  /// Malformed records quarantined so far in the current pass (file-backed
  /// streams running with hardening; 0 for everything else).
  virtual std::uint64_t bad_records() const { return 0; }

  /// Quarantined lines lost because the quarantine LOG itself could not be
  /// written (storage fault on the side channel). Cumulative; 0 for streams
  /// without a quarantine log.
  virtual std::uint64_t quarantine_log_drops() const { return 0; }

  /// Independent readers this stream can open over consecutive runs of its
  /// records, which read one after another give the same records as one
  /// full pass. 0 (the default) when it cannot.
  virtual std::size_t segments() const { return 0; }

  /// Opens segment i < segments(). Safe to call from several threads while
  /// the stream itself is not read.
  virtual std::unique_ptr<AdjacencyStream> segment(std::size_t i) const {
    throw std::out_of_range("AdjacencyStream: no segment " + std::to_string(i));
  }
};

/// Streams an in-memory CSR graph in increasing vertex-id order.
class InMemoryStream final : public AdjacencyStream {
 public:
  /// The graph must outlive the stream.
  explicit InMemoryStream(const Graph& graph) : graph_(&graph) {}

  std::optional<VertexRecord> next() override;
  void reset() override { cursor_ = 0; }
  VertexId num_vertices() const override { return graph_->num_vertices(); }
  EdgeId num_edges() const override { return graph_->num_edges(); }

 private:
  const Graph* graph_;
  VertexId cursor_ = 0;
};

/// Streams an in-memory graph in a caller-given vertex order (ablations:
/// random order destroys the id-locality SPNL's window exploits).
class OrderedStream final : public AdjacencyStream {
 public:
  /// order must be a permutation of 0..n-1; validated on construction.
  OrderedStream(const Graph& graph, std::vector<VertexId> order);

  std::optional<VertexRecord> next() override;
  void reset() override { cursor_ = 0; }
  VertexId num_vertices() const override { return graph_->num_vertices(); }
  EdgeId num_edges() const override { return graph_->num_edges(); }

 private:
  const Graph* graph_;
  std::vector<VertexId> order_;
  std::size_t cursor_ = 0;
};

/// Streams a text adjacency-list file: one line per vertex,
/// "<id> <out1> <out2> ...". Lines beginning with '#' are comments. A header
/// comment "# V <n> E <m>" is honored; otherwise the file is pre-scanned once
/// for counts, taking |V| as one past the largest id on any line, neighbors
/// included (the partitioning pass itself stays single-scan, matching the
/// paper's PT definition which starts at the first adjacency-list load).
///
/// Each pass reads the file in kSliceBytes slices cut at line starts, with
/// pread into owned buffers (a mapping's pages would count in the peak RSS).
/// Helper threads, one per hardware thread, parse up to two slices each
/// ahead of next(); next() hands the records out in file order. A file of one
/// slice is parsed inline. Malformed lines are kept in the parsed slice and
/// handled by the consumer when it reaches them, so a strict stream throws
/// only after every earlier record, and quarantine counts and logs in file
/// order. A read that ends before the size the file had when the pass began,
/// or a reset() that finds the file shorter than the pre-scan saw, throws
/// IoError ("truncated").
class FileAdjacencyStream final : public AdjacencyStream {
 public:
  static constexpr std::size_t kSliceBytes = std::size_t{1} << 19;

  explicit FileAdjacencyStream(const std::string& path,
                               StreamHardeningOptions hardening = {});
  ~FileAdjacencyStream() override;

  std::optional<VertexRecord> next() override;
  void reset() override;
  VertexId num_vertices() const override { return num_vertices_; }
  EdgeId num_edges() const override { return num_edges_; }
  /// Raw and parsed slice buffers of the current pass; 0 once next() has
  /// returned the end of the stream, which frees them (reset() starts a new
  /// pass).
  std::size_t memory_footprint_bytes() const override;

  /// Malformed lines quarantined so far in the current pass.
  std::uint64_t bad_records() const override { return quarantine_.count(); }
  std::uint64_t quarantine_log_drops() const override {
    return quarantine_.log_drops();
  }

 private:
  struct Slice;
  class Pass;

  std::string path_;
  std::unique_ptr<Pass> pass_;
  const Slice* slice_ = nullptr;  // slice next() is handing out
  std::size_t record_ = 0;        // next record of slice_
  std::size_t event_ = 0;         // next malformed-line/header event of slice_
  std::uint64_t file_size_ = 0;   // bytes the pre-scan read
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  BadRecordQuarantine quarantine_;
};

/// Streams a SNAP-style edge-list file ("<from> <to>" per line, '#'
/// comments) that is sorted (grouped) by source — the format the public
/// datasets actually ship in. Consecutive lines with the same source are
/// assembled into one adjacency record; vertices with no out-edges are
/// emitted as empty records so every id 0..max appears exactly once.
/// Requires the grouping to be non-decreasing in the source id (validated).
/// Truncation throws IoError as for FileAdjacencyStream.
class EdgeListAdjacencyStream final : public AdjacencyStream {
 public:
  explicit EdgeListAdjacencyStream(const std::string& path,
                                   StreamHardeningOptions hardening = {});

  std::optional<VertexRecord> next() override;
  void reset() override;
  VertexId num_vertices() const override { return num_vertices_; }
  EdgeId num_edges() const override { return num_edges_; }
  std::size_t memory_footprint_bytes() const override {
    return line_.capacity() + buffer_.capacity() * sizeof(VertexId);
  }

  /// Malformed lines quarantined so far in the current pass.
  std::uint64_t bad_records() const override { return quarantine_.count(); }
  std::uint64_t quarantine_log_drops() const override {
    return quarantine_.log_drops();
  }

 private:
  /// Reads the next "from to" pair into pending_; false at EOF.
  bool read_pair();

  std::string path_;
  std::ifstream in_;
  std::uint64_t file_size_ = 0;  // bytes the pre-scan read
  std::uint64_t pass_size_ = 0;  // file size when this pass opened it
  std::uint64_t consumed_ = 0;   // bytes this pass has read
  std::string line_;
  std::vector<VertexId> buffer_;
  VertexId cursor_ = 0;  // next vertex id to emit
  bool have_pending_ = false;
  VertexId pending_from_ = 0;
  VertexId pending_to_ = 0;
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  BadRecordQuarantine quarantine_;
};

/// Drains a stream into a CSR graph. Every record id must be below
/// num_vertices() and appear at most once (ids with no record become empty
/// rows), and every neighbor must be below num_vertices(). While ids ascend,
/// rows are appended to the CSR in place; a stream that goes back to a
/// lower id is rebuilt through GraphBuilder.
Graph materialize(AdjacencyStream& stream);

}  // namespace spnl
