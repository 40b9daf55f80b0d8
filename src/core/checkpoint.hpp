// Checkpoint/resume subsystem: versioned, CRC-checked binary snapshots of
// partitioner state, written with atomic rename-on-write so a crash mid-write
// never corrupts the previous snapshot.
//
// A streaming partitioner makes irrevocable placements from a local view
// (Sec. II) — a crash mid-stream would otherwise lose the Γ tables, loads and
// logical-assignment state and force a full re-partition. The contract here
// is strict determinism: a run interrupted at any placement and resumed from
// the latest snapshot produces a byte-identical route to an uninterrupted
// run (enforced by tests/test_checkpoint.cpp).
//
// File container layout (all little-endian native, same-machine restarts):
//   u64 magic "SPNLCKP1" | u32 version | u64 payload_size | u32 crc32(payload)
//   | payload bytes
// The payload is a flat field stream produced by StateWriter; every consumer
// validates structural guards (counts, dimensions) before trusting contents.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace spnl {

/// Typed error for every checkpoint failure mode: missing/truncated file,
/// CRC mismatch, version skew, or a snapshot that does not match the
/// configuration it is being restored into.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected). `seed` chains partial updates.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Append-only binary field stream. Vectors are length-prefixed; strings are
/// u32-length-prefixed UTF-8 bytes.
class StateWriter {
 public:
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    put_span(std::span<const T>(v));
  }

  /// The same bytes put_vec writes for a vector with these elements.
  template <typename T>
  void put_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(v.size());
    put_raw(v.data(), v.size() * sizeof(T));
  }

  void put_raw(const void* data, std::size_t size) {
    if (size == 0) return;  // empty vector's data() may be null
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a payload; every underflow or guard mismatch
/// throws CheckpointError (never reads out of bounds).
class StateReader {
 public:
  explicit StateReader(std::vector<std::uint8_t> bytes) : buf_(std::move(bytes)) {}

  std::uint32_t get_u32() { return get_pod<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_pod<std::uint64_t>(); }
  double get_f64() { return get_pod<double>(); }

  std::string get_string() {
    const std::uint32_t size = get_u32();
    need(size);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), size);
    pos_ += size;
    return s;
  }

  template <typename T>
  std::vector<T> get_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = get_u64();
    if (count > buf_.size() / sizeof(T)) {
      throw CheckpointError("checkpoint: vector length exceeds payload");
    }
    need(count * sizeof(T));
    std::vector<T> v(count);
    if (count > 0) {  // empty vector's data() may be null (UB for memcpy)
      std::memcpy(v.data(), buf_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return v;
  }

  /// Reads a put_vec/put_span field into `out`, whose length it must have
  /// (throws "<what> size mismatch" otherwise).
  template <typename T>
  void get_span(std::span<T> out, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (get_u64() != out.size()) {
      throw CheckpointError(std::string(what) + " size mismatch");
    }
    need(out.size() * sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), buf_.data() + pos_, out.size() * sizeof(T));
    pos_ += out.size() * sizeof(T);
  }

  /// Reads a u32/u64/string and throws (naming `what`) unless it equals the
  /// expected value — the structural-guard primitive of every restore path.
  void expect_u32(std::uint32_t expected, const char* what);
  void expect_u64(std::uint64_t expected, const char* what);
  void expect_string(const std::string& expected, const char* what);

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  template <typename T>
  T get_pod() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t size) const {
    if (size > buf_.size() - pos_) {
      throw CheckpointError("checkpoint: truncated payload");
    }
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Writes `payload` to `path` atomically: the bytes land in `path + ".tmp"`
/// first and are renamed over `path` only after a successful flush, so an
/// interrupted write leaves the previous snapshot intact.
void write_checkpoint_file(const std::string& path, const StateWriter& payload);

/// Reads and validates a checkpoint container (magic, version, size, CRC);
/// returns a reader positioned at the start of the payload.
StateReader read_checkpoint_file(const std::string& path);

/// Snapshot cadence policy: "snapshot every N placements into `path`".
class Checkpointer {
 public:
  Checkpointer() = default;
  Checkpointer(std::string path, std::uint64_t every)
      : path_(std::move(path)), every_(every) {}

  bool enabled() const { return every_ > 0 && !path_.empty(); }

  /// True when a snapshot is owed at `placements` total placements.
  bool due(std::uint64_t placements) const {
    return enabled() && placements > 0 && placements % every_ == 0;
  }

  /// Crossing-aware variant for counters that advance in strides (the
  /// parallel reader's publish points), where "is an exact multiple" would
  /// skip boundaries inside a stride. True when [prev, now] crossed at least
  /// one multiple of `every`. Equivalent to due(now) when now == prev + 1.
  bool due(std::uint64_t prev, std::uint64_t now) const {
    return enabled() && now / every_ > prev / every_;
  }

  void write(const StateWriter& payload) {
    write_checkpoint_file(path_, payload);
    ++taken_;
  }

  const std::string& path() const { return path_; }
  std::uint64_t every() const { return every_; }
  std::uint64_t snapshots_taken() const { return taken_; }

 private:
  std::string path_;
  std::uint64_t every_ = 0;
  std::uint64_t taken_ = 0;
};

}  // namespace spnl
