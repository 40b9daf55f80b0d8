#include "graph/adjacency_stream.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "graph/io.hpp"
#include "util/checked_io.hpp"
#include "util/ordered_prefetch.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

std::optional<VertexRecord> InMemoryStream::next() {
  if (cursor_ >= graph_->num_vertices()) return std::nullopt;
  VertexRecord record{cursor_, graph_->out_neighbors(cursor_)};
  ++cursor_;
  return record;
}

OrderedStream::OrderedStream(const Graph& graph, std::vector<VertexId> order)
    : graph_(&graph), order_(std::move(order)) {
  if (order_.size() != graph.num_vertices()) {
    throw std::invalid_argument("OrderedStream: order size != |V|");
  }
  std::vector<bool> seen(order_.size(), false);
  for (VertexId v : order_) {
    if (v >= order_.size() || seen[v]) {
      throw std::invalid_argument("OrderedStream: order is not a permutation");
    }
    seen[v] = true;
  }
}

std::optional<VertexRecord> OrderedStream::next() {
  if (cursor_ >= order_.size()) return std::nullopt;
  const VertexId v = order_[cursor_++];
  return VertexRecord{v, graph_->out_neighbors(v)};
}

namespace {

// Parses whitespace-separated unsigned ints from `line` into `out`.
// Returns false on any malformed token.
bool parse_ids(const std::string& line, std::vector<VertexId>& out) {
  out.clear();
  const char* p = line.data();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p >= end) break;
    VertexId value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc()) return false;
    out.push_back(value);
    p = next;
  }
  return true;
}

}  // namespace

BadRecordQuarantine::BadRecordQuarantine(StreamHardeningOptions options)
    : options_(std::move(options)) {
  ensure_log_writable();
}

BadRecordQuarantine::~BadRecordQuarantine() = default;

void BadRecordQuarantine::ensure_log_writable() {
  // Fail fast at construction: an unwritable quarantine log used to be
  // discovered only at the first bad record — and then silently ignored,
  // losing the very records the operator asked to keep. Opening (and
  // truncating) eagerly turns a bad --quarantine-log path into a typed
  // startup error instead of silent data loss mid-stream.
  if (!enabled() || options_.quarantine_log.empty() || log_) return;
  try {
    log_ = std::make_unique<FdWriter>(options_.quarantine_log);
  } catch (const IoError&) {
    throw IoError("quarantine log not writable: " + options_.quarantine_log);
  }
}

void BadRecordQuarantine::reset_count() {
  // Pass boundary: rewind the log along with the counter. Truncate-and-reopen
  // (rather than append with a marker) keeps the log a verbatim copy of the
  // *latest* pass's bad lines — every pass sees the same input, so earlier
  // passes carry no extra information, only duplicates. A reopen failure is a
  // storage fault on the side channel, not the stream: count it as a drop and
  // keep partitioning (record() then counts every subsequent loss too).
  if (count_ > 0 && log_) {
    try {
      log_.reset();
      log_ = std::make_unique<FdWriter>(options_.quarantine_log);
    } catch (const IoError&) {
      ++log_drops_;
    }
  }
  count_ = 0;
}

void BadRecordQuarantine::record(const std::string& line,
                                 const std::string& context) {
  ++count_;
  if (log_) {
    try {
      log_->append(line);
      log_->append_char('\n');
      log_->flush();  // bad records are rare; the log must survive a crash
    } catch (const IoError&) {
      // The LOG failed, not the stream: dropping this line from the log is
      // recoverable, aborting a multi-hour run over a side-channel file is
      // not. FdWriter::flush discarded the buffered bytes, so later records
      // retry cleanly if the disk recovers. The drop count is surfaced in
      // the run summary.
      ++log_drops_;
    }
  } else if (!options_.quarantine_log.empty()) {
    // Log was configured but is gone (reopen failed at a pass boundary).
    ++log_drops_;
  }
  if (count_ > options_.max_bad_records) {
    throw std::runtime_error(context + ": too many malformed records (" +
                             std::to_string(count_) + " > bound of " +
                             std::to_string(options_.max_bad_records) + ")");
  }
}

// One parsed slice: the records whose lines start inside it, plus the
// malformed lines and "# V <n> E <m>" headers among them, each placed before
// the record that follows it in the file.
struct FileAdjacencyStream::Slice {
  struct Event {
    std::size_t before = 0;  // index of the record after this line
    bool header = false;
    VertexId n = 0;          // header counts
    EdgeId m = 0;
    std::string line;        // malformed line, verbatim
  };

  std::vector<char> bytes;          // raw text, one byte of lookbehind
  std::vector<VertexId> ids;
  std::vector<std::size_t> ends;    // row r is targets[ends[r-1], ends[r])
  std::vector<VertexId> targets;
  std::vector<Event> events;
  std::size_t accounted_bytes = 0;  // capacity last added to the footprint

  std::size_t row_begin(std::size_t r) const { return r == 0 ? 0 : ends[r - 1]; }
  std::size_t capacity_bytes() const {
    return bytes.capacity() + ids.capacity() * sizeof(VertexId) +
           ends.capacity() * sizeof(std::size_t) +
           targets.capacity() * sizeof(VertexId);
  }
};

// One pass over the file: its descriptor and the helpers parsing slices
// ahead of the consumer.
class FileAdjacencyStream::Pass {
 public:
  /// The pre-scan stops parsing a slice at its first header, the only line
  /// it still needs.
  Pass(const std::string& path, const char* open_error, bool prescan)
      : path_(path), prescan_(prescan), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    struct stat st {};
    if (fd_.fd < 0 || ::fstat(fd_.fd, &st) != 0) {
      throw std::runtime_error(std::string("FileAdjacencyStream: ") + open_error +
                               " " + path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    const std::size_t slices = (size_ + kSliceBytes - 1) / kSliceBytes;
    slices_.emplace(slices, prefetch_helpers(),
                    [this](std::size_t index, Slice& slice) { parse(index, slice); });
  }

  ~Pass() { stop_.store(true, std::memory_order_relaxed); }

  /// The next slice in file order, nullptr at EOF. Throws IoError on a read
  /// error in that slice, or when the file ends before its size at open.
  const Slice* next_slice() { return slices_->next(); }

  std::uint64_t size() const { return size_; }

  std::size_t footprint_bytes() const {
    return footprint_.load(std::memory_order_relaxed);
  }

 private:
  // Reads up to `size` bytes at `offset`; fewer only at EOF, which must not
  // come before the size the file had when the pass opened it.
  std::size_t read_at(char* out, std::size_t size, std::uint64_t offset) const {
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd_.fd, out + done, size - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw IoError("FileAdjacencyStream: read error: " + path_ + ": " +
                      std::strerror(errno));
      }
      if (n == 0) {
        if (offset + done < size_) {
          throw IoError("FileAdjacencyStream: " + path_ + ": truncated: read ended at byte " +
                        std::to_string(offset + done) + " of " + std::to_string(size_));
        }
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    return done;
  }

  // Fills slice.bytes with the lines that start in [begin, end) of the file,
  // the last one read up to its newline past `end`, and returns the offset
  // in slice.bytes of the first of them (bytes.size() when none starts
  // here: a line longer than a slice belongs to the slice it starts in).
  std::size_t read_slice(std::size_t index, Slice& slice) const {
    const std::uint64_t begin = index * kSliceBytes;
    const std::uint64_t end = std::min<std::uint64_t>(begin + kSliceBytes, size_);
    const std::uint64_t from = begin == 0 ? 0 : begin - 1;
    slice.bytes.resize(end - from);
    slice.bytes.resize(read_at(slice.bytes.data(), slice.bytes.size(), from));
    std::size_t first = 0;
    if (begin > 0) {
      // A line starts at o iff byte o-1 is '\n'; o must lie in [begin, end).
      const std::size_t look = slice.bytes.empty() ? 0 : slice.bytes.size() - 1;
      const void* nl = std::memchr(slice.bytes.data(), '\n', look);
      if (nl == nullptr) return slice.bytes.size();
      first = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                       slice.bytes.data()) + 1;
    }
    if (slice.bytes.size() < end - from ||
        (!slice.bytes.empty() && slice.bytes.back() == '\n')) {
      return first;
    }
    // Finish the last line from the next slice's bytes.
    constexpr std::size_t kTail = 64 * 1024;
    std::uint64_t offset = from + slice.bytes.size();
    for (;;) {
      const std::size_t old = slice.bytes.size();
      slice.bytes.resize(old + kTail);
      const std::size_t got = read_at(slice.bytes.data() + old, kTail, offset);
      const void* nl = std::memchr(slice.bytes.data() + old, '\n', got);
      if (nl != nullptr) {
        slice.bytes.resize(static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                    slice.bytes.data()) + 1);
        return first;
      }
      slice.bytes.resize(old + got);
      if (got < kTail) return first;  // EOF
      offset += got;
    }
  }

  void parse(std::size_t index, Slice& slice) {
    slice.ids.clear();
    slice.ends.clear();
    slice.targets.clear();
    slice.events.clear();
    const std::size_t first = read_slice(index, slice);
    const char* p = slice.bytes.data() + first;
    const char* const end = slice.bytes.data() + slice.bytes.size();
    while (p < end && !stop_.load(std::memory_order_relaxed)) {
      const char* nl = static_cast<const char*>(std::memchr(p, '\n', end - p));
      const char* const line_end = nl == nullptr ? end : nl;
      parse_line(p, line_end, slice);
      if (prescan_ && !slice.events.empty() && slice.events.back().header) break;
      p = nl == nullptr ? end : nl + 1;
    }
    const std::size_t capacity = slice.capacity_bytes();
    footprint_.fetch_add(capacity - slice.accounted_bytes, std::memory_order_relaxed);
    slice.accounted_bytes = capacity;
  }

  // Same grammar as parse_ids: ' ', '\t' and '\r' separate unsigned ids;
  // a line of separators only is blank; anything else is malformed.
  static void parse_line(const char* p, const char* end, Slice& slice) {
    if (p == end) return;
    if (*p == '#') {
      unsigned long long n = 0, m = 0;
      if (std::sscanf(std::string(p, end).c_str(), "# V %llu E %llu", &n, &m) == 2) {
        slice.events.push_back({slice.ids.size(), true, static_cast<VertexId>(n), m, {}});
      }
      return;
    }
    const std::size_t mark = slice.targets.size();
    const char* q = p;
    bool have_id = false;
    VertexId id = 0;
    for (;;) {
      while (q < end && (*q == ' ' || *q == '\t' || *q == '\r')) ++q;
      if (q >= end) break;
      VertexId value = 0;
      const auto [next, ec] = std::from_chars(q, end, value);
      if (ec != std::errc()) {
        slice.targets.resize(mark);
        slice.events.push_back({slice.ids.size(), false, 0, 0, std::string(p, end)});
        return;
      }
      if (have_id) {
        slice.targets.push_back(value);
      } else {
        id = value;
        have_id = true;
      }
      q = next;
    }
    if (!have_id) return;  // blank
    slice.ids.push_back(id);
    slice.ends.push_back(slice.targets.size());
  }

  const std::string path_;
  const bool prescan_;
  const ScopedFd fd_;
  std::uint64_t size_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> footprint_{0};
  std::optional<OrderedPrefetch<Slice>> slices_;  // last: joined first
};

FileAdjacencyStream::FileAdjacencyStream(const std::string& path,
                                         StreamHardeningOptions hardening)
    : path_(path), quarantine_(std::move(hardening)) {
  // A "# V <n> E <m>" header comment ends the pre-scan and sets the counts;
  // without one, every line is counted. In quarantine mode malformed lines
  // are skipped silently here — the streaming pass is the one that counts
  // and logs them, so the counts stay consistent with what next() will emit.
  {
    Pass scan(path_, "cannot open", /*prescan=*/true);
    file_size_ = scan.size();
    bool have_header = false;
    while (const Slice* slice = have_header ? nullptr : scan.next_slice()) {
      std::size_t r = 0;
      auto count_records = [&](std::size_t upto) {
        if (r == upto) return;
        for (std::size_t i = r; i < upto; ++i) {
          num_vertices_ = std::max(num_vertices_, slice->ids[i] + 1);
        }
        const std::size_t begin = slice->row_begin(r);
        const std::size_t end = slice->ends[upto - 1];
        for (std::size_t e = begin; e < end; ++e) {
          num_vertices_ = std::max(num_vertices_, slice->targets[e] + 1);
        }
        num_edges_ += end - begin;
        r = upto;
      };
      for (const Slice::Event& event : slice->events) {
        count_records(event.before);
        if (event.header) {
          num_vertices_ = event.n;
          num_edges_ = event.m;
          have_header = true;
          break;
        }
        if (!quarantine_.enabled()) {
          throw std::runtime_error("FileAdjacencyStream: malformed line in " + path_ +
                                   ": " + event.line);
        }
      }
      if (!have_header) count_records(slice->ids.size());
    }
  }
  reset();
}

FileAdjacencyStream::~FileAdjacencyStream() = default;

void FileAdjacencyStream::reset() {
  slice_ = nullptr;
  pass_.reset();
  auto pass = std::make_unique<Pass>(path_, "cannot reopen", /*prescan=*/false);
  if (pass->size() < file_size_) {
    throw IoError("FileAdjacencyStream: " + path_ + ": truncated: " +
                  std::to_string(pass->size()) + " of " + std::to_string(file_size_) +
                  " bytes remain");
  }
  pass_ = std::move(pass);
  quarantine_.reset_count();
}

std::size_t FileAdjacencyStream::memory_footprint_bytes() const {
  return pass_ ? pass_->footprint_bytes() : 0;
}

std::optional<VertexRecord> FileAdjacencyStream::next() {
  for (;;) {
    if (slice_ != nullptr) {
      while (event_ < slice_->events.size() &&
             slice_->events[event_].before == record_) {
        const Slice::Event& event = slice_->events[event_++];
        if (event.header) continue;
        if (!quarantine_.enabled()) {
          throw std::runtime_error("FileAdjacencyStream: malformed line in " + path_);
        }
        quarantine_.record(event.line, "FileAdjacencyStream: " + path_);
      }
      if (record_ < slice_->ids.size()) {
        const std::size_t r = record_++;
        const std::size_t begin = slice_->row_begin(r);
        return VertexRecord{slice_->ids[r],
                            std::span<const VertexId>(slice_->targets.data() + begin,
                                                      slice_->ends[r] - begin)};
      }
    }
    slice_ = pass_ ? pass_->next_slice() : nullptr;  // null past the end or a failed reopen
    record_ = 0;
    event_ = 0;
    if (slice_ == nullptr) {
      pass_.reset();  // the pass's buffers are not needed past its end
      return std::nullopt;
    }
  }
}

EdgeListAdjacencyStream::EdgeListAdjacencyStream(const std::string& path,
                                                 StreamHardeningOptions hardening)
    : path_(path), quarantine_(std::move(hardening)) {
  std::ifstream scan(path_);
  if (!scan) throw std::runtime_error("EdgeListAdjacencyStream: cannot open " + path_);
  std::string line;
  std::vector<VertexId> ids;
  VertexId last_from = 0;
  bool first = true;
  while (std::getline(scan, line)) {
    file_size_ += line.size() + (scan.eof() ? 0 : 1);
    if (line.empty() || line[0] == '#') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!parse_ids(line, ids) || ids.size() != 2) {
      // Quarantine mode: skip silently in the pre-scan; read_pair() is the
      // pass that counts and logs, keeping counts in step with the stream.
      if (quarantine_.enabled()) continue;
      throw std::runtime_error("EdgeListAdjacencyStream: malformed line in " + path_);
    }
    if (!first && ids[0] < last_from) {
      throw std::runtime_error(
          "EdgeListAdjacencyStream: edges not grouped by source in " + path_);
    }
    first = false;
    last_from = ids[0];
    num_vertices_ = std::max({num_vertices_, ids[0] + 1, ids[1] + 1});
    ++num_edges_;
  }
  reset();
}

void EdgeListAdjacencyStream::reset() {
  in_ = std::ifstream(path_);
  std::error_code error;
  pass_size_ = std::filesystem::file_size(path_, error);
  if (!in_ || error) {
    throw std::runtime_error("EdgeListAdjacencyStream: cannot reopen " + path_);
  }
  if (pass_size_ < file_size_) {
    throw IoError("EdgeListAdjacencyStream: " + path_ + ": truncated: " +
                  std::to_string(pass_size_) + " of " + std::to_string(file_size_) +
                  " bytes remain");
  }
  consumed_ = 0;
  cursor_ = 0;
  have_pending_ = false;
  quarantine_.reset_count();
}

bool EdgeListAdjacencyStream::read_pair() {
  std::vector<VertexId> ids;
  while (std::getline(in_, line_)) {
    consumed_ += line_.size() + (in_.eof() ? 0 : 1);
    if (line_.empty() || line_[0] == '#') continue;
    if (line_.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!parse_ids(line_, ids) || ids.size() != 2) {
      if (quarantine_.enabled()) {
        quarantine_.record(line_, "EdgeListAdjacencyStream: " + path_);
        continue;
      }
      throw std::runtime_error("EdgeListAdjacencyStream: malformed line in " + path_);
    }
    pending_from_ = ids[0];
    pending_to_ = ids[1];
    return true;
  }
  if (consumed_ < pass_size_) {
    throw IoError("EdgeListAdjacencyStream: " + path_ + ": truncated: read ended at byte " +
                  std::to_string(consumed_) + " of " + std::to_string(pass_size_));
  }
  return false;
}

std::optional<VertexRecord> EdgeListAdjacencyStream::next() {
  if (cursor_ >= num_vertices_) return std::nullopt;
  if (!have_pending_) have_pending_ = read_pair();

  buffer_.clear();
  const VertexId v = cursor_++;
  while (have_pending_ && pending_from_ == v) {
    buffer_.push_back(pending_to_);
    have_pending_ = read_pair();
  }
  return VertexRecord{v, std::span<const VertexId>(buffer_)};
}

Graph materialize(AdjacencyStream& stream) {
  const VertexId n = stream.num_vertices();
  auto check = [n](const VertexRecord& record, const std::vector<bool>& seen) {
    if (record.id >= n || seen[record.id]) {
      throw std::runtime_error("materialize: duplicate or out-of-range vertex record");
    }
    for (VertexId u : record.out) {
      if (u >= n) {
        throw std::runtime_error("materialize: neighbor " + std::to_string(u) +
                                 " of vertex " + std::to_string(record.id) +
                                 " out of range");
      }
    }
  };
  // A lying header must not turn the reservation into a huge allocation.
  constexpr EdgeId kMaxReservedEdges = EdgeId{1} << 27;
  std::vector<bool> seen(n, false);
  std::vector<EdgeId> offsets;
  offsets.reserve(static_cast<std::size_t>(n) + 1);
  advise_huge_pages(offsets);
  offsets.push_back(0);
  std::vector<VertexId> targets;
  targets.reserve(std::min(stream.num_edges(), kMaxReservedEdges));
  advise_huge_pages(targets);
  // In place while ids ascend: rows 0..offsets.size()-2 are final.
  std::optional<VertexRecord> record;
  while ((record = stream.next())) {
    check(*record, seen);
    if (record->id + 1 < offsets.size()) break;  // id went back: rebuild below
    seen[record->id] = true;
    offsets.resize(static_cast<std::size_t>(record->id) + 1, targets.size());
    targets.insert(targets.end(), record->out.begin(), record->out.end());
    offsets.push_back(targets.size());
  }
  if (!record) {
    offsets.resize(static_cast<std::size_t>(n) + 1, targets.size());
    return Graph(std::move(offsets), std::move(targets));
  }
  GraphBuilder builder(n);
  for (VertexId v = 0; v + 1 < offsets.size(); ++v) {
    if (seen[v]) {
      builder.add_vertex(v, std::span<const VertexId>(targets.data() + offsets[v],
                                                      offsets[v + 1] - offsets[v]));
    }
  }
  offsets = {};
  targets = {};
  do {
    check(*record, seen);
    seen[record->id] = true;
    builder.add_vertex(record->id, record->out);
  } while ((record = stream.next()));
  return builder.finish();
}

}  // namespace spnl
