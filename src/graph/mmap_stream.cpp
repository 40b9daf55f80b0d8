#include "graph/mmap_stream.hpp"

#include <algorithm>
#include <charconv>
#include <csetjmp>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "graph/io.hpp"
#include "util/sigbus_guard.hpp"

namespace spnl {

namespace {

// Jump target for a SigbusGuard trip: the mapped text file shrank under the
// reader and a parse touched a page past the new EOF.
[[noreturn]] void truncated_under_reader(const std::string& path,
                                         const SigbusGuard& guard) {
  throw IoError(path + ": mapping faulted (SIGBUS) at offset " +
                std::to_string(guard.fault_offset()) +
                " — file truncated while streamed");
}

// Returns the next line [p, '\n') as a view and advances p past the
// newline. The view aliases the mapping — valid until the file is unmapped.
inline std::string_view take_line(const char*& p, const char* end) {
  const char* begin = p;
  while (p < end && *p != '\n') ++p;
  std::string_view line(begin, static_cast<std::size_t>(p - begin));
  if (p < end) ++p;  // consume '\n'
  return line;
}

// Same token grammar as the buffered readers' parse_ids: whitespace-separated
// unsigned ints, ' '/'\t'/'\r' separators, false on any malformed token.
bool parse_ids_view(std::string_view line, std::vector<VertexId>& out) {
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

inline bool is_blank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

// "# V <n> E <m>" header comment (same pattern FileAdjacencyStream honors).
bool parse_header(std::string_view line, VertexId& n_out, EdgeId& m_out) {
  unsigned long long n = 0, m = 0;
  // Comments are rare; a bounded copy for sscanf keeps the grammar identical
  // to the buffered reader's.
  std::string copy(line);
  if (std::sscanf(copy.c_str(), "# V %llu E %llu", &n, &m) != 2) return false;
  n_out = static_cast<VertexId>(n);
  m_out = m;
  return true;
}

}  // namespace

MmapAdjacencyStream::MmapAdjacencyStream(const std::string& path,
                                         StreamHardeningOptions hardening)
    : map_(path), quarantine_(std::move(hardening)) {
  // Header or pre-scan, with the same quarantine rule as the buffered
  // reader: malformed lines are skipped silently here — next() is the pass
  // that counts and logs them, so counts stay in step with the stream.
  // Without a header |V| is one past the largest id on any line, neighbors
  // included, so a sink with no line of its own is still a vertex.
  const char* p = map_.begin();
  const char* end = map_.end();
  std::vector<VertexId> ids;
  bool have_header = false;
  // SIGBUS-safe pre-scan: truncation under the mapping becomes a typed
  // IoError. All scan state lives in pre-declared locals (siglongjmp skips
  // destructors of objects constructed after the setjmp).
  SigbusGuard guard(map_.data(), map_.size());
  if (sigsetjmp(guard.env(), 0) != 0) truncated_under_reader(map_.path(), guard);
  while (p < end) {
    std::string_view line = take_line(p, end);
    if (!line.empty() && line[0] == '#') {
      if (parse_header(line, num_vertices_, num_edges_)) {
        have_header = true;
        break;
      }
      continue;
    }
    if (!parse_ids_view(line, ids) || ids.empty()) {
      if (is_blank(line)) continue;
      if (quarantine_.enabled()) continue;
      throw std::runtime_error("MmapAdjacencyStream: malformed line in " +
                               map_.path() + ": " + std::string(line));
    }
    for (VertexId id : ids) num_vertices_ = std::max(num_vertices_, id + 1);
    num_edges_ += ids.size() - 1;
  }
  (void)have_header;
  reset();
}

void MmapAdjacencyStream::reset() {
  map_.throw_if_shrunk();
  cursor_ = map_.begin();
  quarantine_.reset_count();
}

std::optional<VertexRecord> MmapAdjacencyStream::next() {
  const char* end = map_.end();
  SigbusGuard guard(map_.data(), map_.size());
  if (sigsetjmp(guard.env(), 0) != 0) truncated_under_reader(map_.path(), guard);
  while (cursor_ < end) {
    std::string_view line = take_line(cursor_, end);
    if (line.empty() || line[0] == '#') continue;
    if (is_blank(line)) continue;
    if (!parse_ids_view(line, buffer_) || buffer_.empty()) {
      if (quarantine_.enabled()) {
        quarantine_.record(std::string(line),
                           "MmapAdjacencyStream: " + map_.path());
        continue;
      }
      throw std::runtime_error("MmapAdjacencyStream: malformed line in " +
                               map_.path());
    }
    VertexRecord record;
    record.id = buffer_[0];
    record.out =
        std::span<const VertexId>(buffer_.data() + 1, buffer_.size() - 1);
    return record;
  }
  return std::nullopt;
}

MmapEdgeListStream::MmapEdgeListStream(const std::string& path,
                                       StreamHardeningOptions hardening)
    : map_(path), quarantine_(std::move(hardening)) {
  const char* p = map_.begin();
  const char* end = map_.end();
  std::vector<VertexId> ids;
  VertexId last_from = 0;
  bool first = true;
  SigbusGuard guard(map_.data(), map_.size());
  if (sigsetjmp(guard.env(), 0) != 0) truncated_under_reader(map_.path(), guard);
  while (p < end) {
    std::string_view line = take_line(p, end);
    if (line.empty() || line[0] == '#') continue;
    if (is_blank(line)) continue;
    if (!parse_ids_view(line, ids) || ids.size() != 2) {
      // Quarantine mode: skip silently in the pre-scan; read_pair() is the
      // pass that counts and logs, keeping counts in step with the stream.
      if (quarantine_.enabled()) continue;
      throw std::runtime_error("MmapEdgeListStream: malformed line in " +
                               map_.path());
    }
    if (!first && ids[0] < last_from) {
      throw std::runtime_error(
          "MmapEdgeListStream: edges not grouped by source in " + map_.path());
    }
    first = false;
    last_from = ids[0];
    num_vertices_ = std::max({num_vertices_, ids[0] + 1, ids[1] + 1});
    ++num_edges_;
  }
  reset();
}

void MmapEdgeListStream::reset() {
  map_.throw_if_shrunk();
  pair_cursor_ = map_.begin();
  cursor_ = 0;
  have_pending_ = false;
  quarantine_.reset_count();
}

bool MmapEdgeListStream::read_pair() {
  const char* end = map_.end();
  std::vector<VertexId> ids;
  SigbusGuard guard(map_.data(), map_.size());
  if (sigsetjmp(guard.env(), 0) != 0) truncated_under_reader(map_.path(), guard);
  while (pair_cursor_ < end) {
    std::string_view line = take_line(pair_cursor_, end);
    if (line.empty() || line[0] == '#') continue;
    if (is_blank(line)) continue;
    if (!parse_ids_view(line, ids) || ids.size() != 2) {
      if (quarantine_.enabled()) {
        quarantine_.record(std::string(line),
                           "MmapEdgeListStream: " + map_.path());
        continue;
      }
      throw std::runtime_error("MmapEdgeListStream: malformed line in " +
                               map_.path());
    }
    pending_from_ = ids[0];
    pending_to_ = ids[1];
    return true;
  }
  return false;
}

std::optional<VertexRecord> MmapEdgeListStream::next() {
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

}  // namespace spnl
