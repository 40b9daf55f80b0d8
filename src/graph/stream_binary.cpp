#include "graph/stream_binary.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "graph/io.hpp"
#include "util/checked_io.hpp"
#include "util/fault_fs.hpp"

namespace spnl {

namespace sadj {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_signed(std::vector<std::uint8_t>& out, std::int64_t value) {
  const std::uint64_t zigzag =
      (static_cast<std::uint64_t>(value) << 1) ^
      static_cast<std::uint64_t>(value >> 63);
  put_varint(out, zigzag);
}

bool get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                std::uint64_t& value) {
  value = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    if (shift == 63 && (byte & 0x7E) != 0) return false;  // > 64 bits
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
    if (shift > 63) return false;  // overlong encoding
  }
  return false;  // truncated
}

bool get_signed(const std::uint8_t*& p, const std::uint8_t* end,
                std::int64_t& value) {
  std::uint64_t zigzag = 0;
  if (!get_varint(p, end, zigzag)) return false;
  value = static_cast<std::int64_t>(zigzag >> 1) ^
          -static_cast<std::int64_t>(zigzag & 1);
  return true;
}

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

}  // namespace sadj

namespace {

// next_seek_ of a pass that notes no seek points.
constexpr std::uint64_t kNoSeekPoint = std::numeric_limits<std::uint64_t>::max();

// Hot-path varint decode for next(): the one- and two-byte encodings (the
// overwhelming majority under delta compression — the benchmark crawl
// averages ~1.3 bytes per varint) decode with a single branch each; anything
// longer, and anything near the window's end, falls through to the fully
// validated sadj::get_varint. Semantics are identical: the fast paths can
// only accept encodings the slow path accepts too.
inline bool read_varint(const std::uint8_t*& p, const std::uint8_t* end,
                        std::uint64_t& value) {
  const std::ptrdiff_t avail = end - p;
  if (avail >= 1 && p[0] < 0x80) {
    value = p[0];
    ++p;
    return true;
  }
  if (avail >= 2 && p[1] < 0x80) {
    value = static_cast<std::uint64_t>(p[0] & 0x7F) |
            (static_cast<std::uint64_t>(p[1]) << 7);
    p += 2;
    return true;
  }
  return sadj::get_varint(p, end, value);
}

inline bool read_signed(const std::uint8_t*& p, const std::uint8_t* end,
                        std::int64_t& value) {
  std::uint64_t zigzag = 0;
  if (!read_varint(p, end, zigzag)) return false;
  value = static_cast<std::int64_t>(zigzag >> 1) ^
          -static_cast<std::int64_t>(zigzag & 1);
  return true;
}

}  // namespace

std::uint64_t write_sadj(AdjacencyStream& stream, const std::string& path) {
  // Crash-atomic publish (the PR-1 checkpoint protocol): bytes land in
  // <path>.tmp through the checked fault-injectable writer, R is patched
  // into the tmp header, and only a complete fsynced file is renamed over
  // the destination. A crash — or an injected kill-9 — at any syscall
  // boundary leaves the previous file intact; it is never truncated in
  // place while a half-written replacement streams out.
  AtomicFileWriter atomic(path);
  FdWriter& out = atomic.out();

  // Header with R = 0 for now; patched after the drain. E is trusted from
  // the stream's metadata and cross-checked against the edges actually
  // written — a mismatch means the source stream lied about its counts, and
  // baking the lie into a binary header would defeat the reader's validation.
  std::vector<std::uint8_t> buf;
  buf.insert(buf.end(), sadj::kMagic, sadj::kMagic + 8);
  sadj::put_u32(buf, sadj::kVersion);
  sadj::put_u32(buf, 0);  // flags
  sadj::put_u64(buf, stream.num_vertices());
  sadj::put_u64(buf, stream.num_edges());
  sadj::put_u64(buf, 0);  // R placeholder
  out.append(buf.data(), buf.size());

  std::uint64_t records = 0;
  std::uint64_t edges = 0;
  std::int64_t prev_id = -1;
  buf.clear();
  while (auto record = stream.next()) {
    sadj::put_signed(buf, static_cast<std::int64_t>(record->id) - prev_id);
    prev_id = static_cast<std::int64_t>(record->id);
    sadj::put_varint(buf, record->out.size());
    std::int64_t prev_nbr = prev_id;
    for (VertexId nbr : record->out) {
      sadj::put_signed(buf, static_cast<std::int64_t>(nbr) - prev_nbr);
      prev_nbr = static_cast<std::int64_t>(nbr);
    }
    edges += record->out.size();
    ++records;
    if (buf.size() >= (1u << 20)) {
      out.append(buf.data(), buf.size());
      buf.clear();
    }
  }
  if (!buf.empty()) out.append(buf.data(), buf.size());
  if (edges != stream.num_edges()) {
    throw IoError("write_sadj: stream metadata says " +
                  std::to_string(stream.num_edges()) + " edges but " +
                  std::to_string(edges) + " were streamed");
  }

  // Patch R into the tmp file, then publish.
  buf.clear();
  sadj::put_u64(buf, records);
  out.patch(32, buf.data(), 8);
  atomic.commit();
  return records;
}

BinaryAdjacencyStream::BinaryAdjacencyStream(const std::string& path)
    : path_(path), fd_(faultfs::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
  struct stat st {};
  if (fd_.fd < 0 || ::fstat(fd_.fd, &st) != 0) {
    const int err = errno;
    corrupt(std::string("cannot open: ") + std::strerror(err));
  }
  if (!S_ISREG(st.st_mode)) corrupt("not a regular file");
  file_size_ = static_cast<std::uint64_t>(st.st_size);
  if (file_size_ < sadj::kHeaderBytes) {
    corrupt("file shorter than the 40-byte header");
  }
  read_fully(header_.data(), header_.size());
  const std::uint8_t* const base = header_.data();
  if (std::memcmp(base, sadj::kMagic, 8) != 0) {
    corrupt("bad magic (not a .sadj file)");
  }
  const std::uint32_t version = sadj::get_u32(base + 8);
  if (version != sadj::kVersion) {
    corrupt("unsupported version " + std::to_string(version) + " (expected " +
            std::to_string(sadj::kVersion) + ")");
  }
  const std::uint32_t flags = sadj::get_u32(base + 12);
  if (flags != 0) {
    corrupt("unknown flags 0x" + std::to_string(flags));
  }
  const std::uint64_t v = sadj::get_u64(base + 16);
  num_edges_ = sadj::get_u64(base + 24);
  num_records_ = sadj::get_u64(base + 32);
  if (v > std::numeric_limits<VertexId>::max()) {
    corrupt("vertex count overflows VertexId");
  }
  num_vertices_ = static_cast<VertexId>(v);
  if (num_records_ > v) {
    corrupt("record count exceeds vertex count");
  }
  // Every record costs at least 2 bytes (id delta + degree), every edge at
  // least 1 — a header promising more than the body could hold is truncation.
  // (num_records_ <= v < 2^32 here, so the arithmetic cannot overflow once
  // num_edges_ is known to fit in the body.)
  const std::uint64_t body = file_size_ - sadj::kHeaderBytes;
  if (num_edges_ > body || num_records_ * 2 + num_edges_ > body) {
    corrupt("truncated: body smaller than the header's counts imply");
  }
  end_ = {file_size_, 0, num_records_, num_edges_};
  // Reserved here rather than grown by next(), so that a stream another
  // thread reads on (the 2PS read-ahead's helper) keeps them on the opening
  // thread's heap; only a record wider than kDecodeReserve neighbors grows
  // the decode buffer on the reading thread. The read window is allocated at
  // the first fill(): an mmap here added about 10 us, a quarter, to the open.
  buffer_.reserve(static_cast<std::size_t>(std::min<EdgeId>(num_edges_, kDecodeReserve)));
  seek_points_.reserve(num_records_ / kSeekStride + 1);
  reset();
}

BinaryAdjacencyStream::BinaryAdjacencyStream(const BinaryAdjacencyStream& parent,
                                             std::size_t i)
    : path_(parent.path_),
      fd_(faultfs::open(parent.path_.c_str(), O_RDONLY | O_CLOEXEC)),
      file_size_(parent.file_size_),
      header_(parent.header_),
      window_bytes_(kSegmentWindowBytes),
      num_vertices_(parent.num_vertices_),
      num_edges_(parent.num_edges_),
      num_records_(parent.num_records_),
      start_(parent.seek_points_[i]),
      end_(i + 1 < parent.seek_points_.size() ? parent.seek_points_[i + 1]
                                              : parent.end_),
      is_segment_(true) {
  if (fd_.fd < 0) corrupt(std::string("cannot open: ") + std::strerror(errno));
  std::array<std::uint8_t, sadj::kHeaderBytes> header{};
  read_fully(header.data(), header.size());
  if (header != header_) corrupt("header changed since the stream was indexed");
  reset();
}

void BinaryAdjacencyStream::reset() {
  // A multi-pass caller restarting on a file that was truncated between
  // passes gets a typed error here rather than partway through the pass.
  check_size();
  if (::lseek(fd_.fd, static_cast<off_t>(start_.offset), SEEK_SET) < 0) {
    corrupt(std::string("cannot seek: ") + std::strerror(errno));
  }
  window_offset_ = start_.offset;
  cursor_ = window_.data();
  filled_ = window_.data();
  prev_id_ = start_.prev_id;
  records_read_ = start_.records;
  edges_read_ = start_.edges;
  // Until a pass has been validated to the end, every pass from the first
  // record builds the index afresh; a segment reader builds none.
  if (!indexed_) seek_points_.clear();
  next_seek_ = indexed_ || is_segment_ ? kNoSeekPoint : 0;
}

std::size_t BinaryAdjacencyStream::segments() const {
  return indexed_ && records_read_ == 0 ? seek_points_.size() : 0;
}

std::unique_ptr<AdjacencyStream> BinaryAdjacencyStream::segment(std::size_t i) const {
  if (i >= segments()) {
    throw std::out_of_range("BinaryAdjacencyStream: no segment " + std::to_string(i));
  }
  return std::unique_ptr<AdjacencyStream>(new BinaryAdjacencyStream(*this, i));
}

void BinaryAdjacencyStream::corrupt(const std::string& what) const {
  throw IoError("BinaryAdjacencyStream: " + path_ + ": " + what);
}

void BinaryAdjacencyStream::check_size() const {
  struct stat st {};
  if (::fstat(fd_.fd, &st) != 0) {
    corrupt(std::string("cannot stat: ") + std::strerror(errno));
  }
  if (static_cast<std::uint64_t>(st.st_size) < file_size_) {
    corrupt("truncated: " + std::to_string(st.st_size) + " of " +
            std::to_string(file_size_) + " bytes remain");
  }
}

void BinaryAdjacencyStream::check_end() const {
  const bool inner = end_.records != num_records_;
  if (offset_of(cursor_) != end_.offset) {
    corrupt(inner ? "segment ends at byte " + std::to_string(offset_of(cursor_)) +
                        ", not at the next seek point's byte " +
                        std::to_string(end_.offset)
                  : std::string("trailing bytes after the last record"));
  }
  if (edges_read_ != end_.edges) {
    corrupt(inner ? "segment edge count disagrees with the seek-point index"
                  : "edge count disagrees with the header");
  }
}

void BinaryAdjacencyStream::note_seek_point() {
  seek_points_.push_back({offset_of(cursor_), prev_id_, records_read_, edges_read_});
  next_seek_ += kSeekStride;
}

void BinaryAdjacencyStream::read_fully(std::uint8_t* out, std::size_t count) {
  std::size_t done = 0;
  while (done < count) {
    const ssize_t n = faultfs::read(fd_.fd, out + done, count - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      corrupt(std::string("read error: ") + std::strerror(errno));
    }
    if (n == 0) {
      corrupt("truncated: the file ended before the " + std::to_string(file_size_) +
              " bytes it had when opened");
    }
    done += static_cast<std::size_t>(n);
  }
}

void BinaryAdjacencyStream::fill(std::uint64_t bytes) {
  const std::uint64_t left = end_.offset - offset_of(cursor_);
  bytes = std::min(bytes, left);
  const std::size_t kept = static_cast<std::size_t>(filled_ - cursor_);
  if (kept >= bytes) return;
  window_offset_ = offset_of(cursor_);
  if (kept > 0) std::memmove(window_.data(), cursor_, kept);
  const std::size_t capacity = static_cast<std::size_t>(
      std::max(bytes, std::min<std::uint64_t>(window_bytes_, left)));
  if (window_.size() < capacity) window_.resize(capacity);
  const std::size_t want =
      static_cast<std::size_t>(std::min<std::uint64_t>(window_.size(), left));
  read_fully(window_.data() + kept, want - kept);
  cursor_ = window_.data();
  filled_ = window_.data() + want;
}

std::optional<VertexRecord> BinaryAdjacencyStream::next() {
  if (records_read_ == end_.records) {
    check_end();
    return std::nullopt;
  }
  if (records_read_ == next_seek_) [[unlikely]] note_seek_point();
  // The window holds each record whole, or the rest of the file: a record
  // decodes from bytes in memory exactly as it would from the whole file.
  if (static_cast<std::size_t>(filled_ - cursor_) < kMaxHeadBytes) {
    fill(kMaxHeadBytes);
  }

  // Decode through a local pointer so the compiler keeps it in a register
  // across the neighbor loop; committed back to cursor_ only on success.
  const std::uint8_t* p = cursor_;
  std::int64_t delta = 0;
  if (!read_signed(p, filled_, delta)) corrupt("truncated record id");
  const std::int64_t id = prev_id_ + delta;
  if (id < 0 || id > std::numeric_limits<VertexId>::max()) {
    corrupt("record id out of range");
  }
  prev_id_ = id;

  std::uint64_t degree = 0;
  if (!read_varint(p, filled_, degree)) corrupt("truncated degree");
  if (degree > num_edges_ - edges_read_) {
    corrupt("degree exceeds the header's remaining edge budget");
  }
  // 10 * degree cannot overflow: the ctor bounds degree by num_edges_,
  // which it bounds by the body size (< 2^60 for any real file).
  const std::size_t head = static_cast<std::size_t>(p - cursor_);
  if (static_cast<std::uint64_t>(filled_ - p) < 10 * degree) {
    fill(head + 10 * degree);
    p = cursor_ + head;
  }
  const std::uint8_t* const end = filled_;

  // The buffer only ever grows to the max degree seen; neighbors are written
  // by index to skip push_back's per-element capacity check.
  if (buffer_.size() < degree) buffer_.resize(degree);
  VertexId* dst = buffer_.data();
  std::int64_t prev_nbr = id;
  constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max();
  // A varint occupies at most 10 bytes, so when the window holds 10 bytes
  // per neighbor no decode in this record can run off the end — skip the
  // per-byte bounds checks entirely. Only the file's tail (or a truncated
  // body) takes the checked loop. The negative-id test folds into one
  // unsigned compare: a negative nbr casts to > kMaxId.
  if (static_cast<std::uint64_t>(end - p) >= 10 * degree) {
    for (std::uint64_t i = 0; i < degree; ++i) {
      // Branchless 1-/2-byte decode: the delta mix makes "is this varint
      // two bytes?" a coin flip, so a data dependency beats a mispredicted
      // branch. `two` selects whether p[1] contributes (masked add) and how
      // far to advance; only the rare >= 3-byte delta takes a real branch,
      // and that one predicts not-taken essentially always.
      const std::uint64_t b0 = p[0];
      const std::uint64_t b1 = p[1];
      const std::uint64_t two = b0 >> 7;
      std::uint64_t zigzag =
          (b0 & 0x7F) | ((b1 << 7) & (0 - two));
      p += 1 + two;
      if (two & (b1 >> 7)) [[unlikely]] {
        p -= 2;  // wide delta: re-decode fully validated
        if (!sadj::get_varint(p, end, zigzag)) corrupt("truncated neighbor");
      }
      const std::int64_t nbr =
          prev_nbr + (static_cast<std::int64_t>(zigzag >> 1) ^
                      -static_cast<std::int64_t>(zigzag & 1));
      if (static_cast<std::uint64_t>(nbr) > kMaxId) [[unlikely]] {
        corrupt("neighbor id out of range");
      }
      dst[i] = static_cast<VertexId>(nbr);
      prev_nbr = nbr;
    }
  } else {
    for (std::uint64_t i = 0; i < degree; ++i) {
      if (!read_signed(p, end, delta)) corrupt("truncated neighbor");
      const std::int64_t nbr = prev_nbr + delta;
      if (static_cast<std::uint64_t>(nbr) > kMaxId) {
        corrupt("neighbor id out of range");
      }
      dst[i] = static_cast<VertexId>(nbr);
      prev_nbr = nbr;
    }
  }
  cursor_ = p;
  edges_read_ += degree;
  ++records_read_;
  if (records_read_ == end_.records) {
    check_end();
    // The pass from the first record passed the end-of-file checks: its
    // seek points can be trusted.
    if (next_seek_ != kNoSeekPoint) {
      indexed_ = true;
      next_seek_ = kNoSeekPoint;
    }
  }
  return VertexRecord{static_cast<VertexId>(id),
                      std::span<const VertexId>(buffer_.data(), degree)};
}

}  // namespace spnl
