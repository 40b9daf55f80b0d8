// The "sadj" delta-compressed binary adjacency format and its reader.
//
// Layout (all integers little-endian):
//   offset  size  field
//        0     8  magic "SPNLSADJ"
//        8     4  version (currently 1)
//       12     4  flags (must be 0)
//       16     8  V  — num_vertices (capacity metadata, as in the text header)
//       24     8  E  — total out-edges across all records
//       32     8  R  — record count (text streams may emit fewer than V)
//       40     …  R records
//
// Each record:
//   zigzag-varint  id delta from the previous record id (previous starts at
//                  -1, so an id-ordered stream encodes every delta as +1 in
//                  one byte)
//   varint         out-degree d
//   d × zigzag-varint  neighbor deltas: the first from the record id, each
//                  subsequent from the previous neighbor — in the *original
//                  stream order*, never sorted, so duplicates (multigraphs),
//                  self-loops and order-sensitive float accumulation in the
//                  scoring kernel all survive a round-trip bit-exactly.
//
// The reader reads the file through a fixed window it owns and decodes lazily,
// one record per next() call, so resident set stays at the window plus the
// decode buffer — graphs larger than RAM stream fine. Structural validation
// is strict: bad magic, unknown version/flags, truncated varints, degree or
// record counts disagreeing with the header, trailing bytes, or a file that
// ends before the size it had when opened all throw IoError. A corrupt .sadj
// is a broken converter artifact, not line noise, so it is never quarantined.
//
// A pass that starts at the first record notes a seek point every
// kSeekStride records: the byte offset, the previous record id and the
// records and edges read so far. The index is trusted only once that pass
// has decoded the last record and passed the end-of-file checks; from then
// on, while the stream sits at its first record, segment(i) opens an
// independent reader over the records from seek point i to seek point i+1.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "util/checked_io.hpp"

namespace spnl {

namespace sadj {

inline constexpr char kMagic[8] = {'S', 'P', 'N', 'L', 'S', 'A', 'D', 'J'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 40;

/// Appends `value` as a LEB128 varint.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Appends `value` zigzag-mapped then varint-encoded.
void put_signed(std::vector<std::uint8_t>& out, std::int64_t value);

/// Decodes a varint from [p, end); advances p. False on truncation/overlong.
bool get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                std::uint64_t& value);

/// Decodes a zigzag varint from [p, end); advances p.
bool get_signed(const std::uint8_t*& p, const std::uint8_t* end,
                std::int64_t& value);

}  // namespace sadj

/// Drains `stream` (from its current position; call reset() first for a full
/// pass) into a .sadj file at `path`. Returns the number of records written.
/// The V/E header fields are taken from the stream's metadata; R is counted.
std::uint64_t write_sadj(AdjacencyStream& stream, const std::string& path);

/// Windowed reader for .sadj files. Validates the header eagerly (bad magic /
/// version / flags / impossible sizes throw IoError at construction) and the
/// body incrementally as records decode.
class BinaryAdjacencyStream final : public AdjacencyStream {
 public:
  /// Window capacity. It grows past this only for a record whose worst-case
  /// encoding (kMaxHeadBytes + 10 bytes per neighbor) does not fit.
  static constexpr std::size_t kWindowBytes = std::size_t{128} << 10;
  /// A segment reader's window; it grows for a wide record the same way.
  static constexpr std::size_t kSegmentWindowBytes = std::size_t{32} << 10;
  /// Records between two seek points.
  static constexpr std::uint64_t kSeekStride = std::uint64_t{1} << 16;
  /// Neighbors the decode buffer of a whole-file reader holds from
  /// construction; it grows past this only for a wider record.
  static constexpr std::size_t kDecodeReserve = 1024;
  /// Worst-case bytes of a record's id delta and degree (two 10-byte varints).
  static constexpr std::size_t kMaxHeadBytes = 20;

  explicit BinaryAdjacencyStream(const std::string& path);

  std::optional<VertexRecord> next() override;
  /// Rewinds to the first record (a segment: to its seek point). Throws
  /// IoError when the file is now shorter than it was when opened.
  void reset() override;
  VertexId num_vertices() const override { return num_vertices_; }
  EdgeId num_edges() const override { return num_edges_; }
  /// The read window and the decode buffer.
  std::size_t memory_footprint_bytes() const override {
    return window_.capacity() + buffer_.capacity() * sizeof(VertexId);
  }
  /// One segment per seek point once a validated full pass built the index,
  /// while the stream sits at its first record; 0 otherwise and for a
  /// segment reader.
  std::size_t segments() const override;
  /// Opens its own descriptor, checks the header and the file size against
  /// this stream (a shrunk file throws IoError) and reads the records of
  /// segment i. An inner segment must end exactly at the next seek point.
  std::unique_ptr<AdjacencyStream> segment(std::size_t i) const override;

  std::uint64_t num_records() const { return num_records_; }

 private:
  /// Where a pass or a segment starts or ends.
  struct SeekPoint {
    std::uint64_t offset = sadj::kHeaderBytes;
    std::int64_t prev_id = -1;
    std::uint64_t records = 0;
    std::uint64_t edges = 0;
  };

  /// A reader over segment i of an indexed `parent`.
  BinaryAdjacencyStream(const BinaryAdjacencyStream& parent, std::size_t i);

  [[noreturn]] void corrupt(const std::string& what) const;
  /// Throws IoError when the file is now shorter than file_size_.
  void check_size() const;
  /// Reads exactly `count` bytes at the descriptor's position.
  void read_fully(std::uint8_t* out, std::size_t count);
  /// Makes min(bytes, rest of the pass) bytes from cursor_ available in the
  /// window, moving the unread bytes to its front first.
  void fill(std::uint64_t bytes);
  /// Throws unless the pass ended where end_ says.
  void check_end() const;
  void note_seek_point();
  std::uint64_t offset_of(const std::uint8_t* p) const {
    return window_offset_ + static_cast<std::uint64_t>(p - window_.data());
  }

  std::string path_;
  ScopedFd fd_;
  std::uint64_t file_size_ = 0;
  std::array<std::uint8_t, sadj::kHeaderBytes> header_{};
  std::size_t window_bytes_ = kWindowBytes;
  std::vector<std::uint8_t> window_;
  std::uint64_t window_offset_ = 0;  // file offset of window_[0]
  const std::uint8_t* cursor_ = nullptr;
  const std::uint8_t* filled_ = nullptr;  // end of the bytes read into window_
  std::vector<VertexId> buffer_;
  std::int64_t prev_id_ = -1;
  std::uint64_t records_read_ = 0;
  std::uint64_t edges_read_ = 0;
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  std::uint64_t num_records_ = 0;
  // A pass runs from start_ to end_: the whole body, or one segment.
  SeekPoint start_;
  SeekPoint end_;
  bool is_segment_ = false;
  // The seek-point index; trusted once indexed_ is set.
  std::vector<SeekPoint> seek_points_;
  std::uint64_t next_seek_ = 0;  // record count at which the next one is noted
  bool indexed_ = false;
};

}  // namespace spnl
