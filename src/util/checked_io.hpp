// Hardened, fault-injectable file writers.
//
// Every durable artifact the partitioner produces (checkpoints, sadj
// conversions, route tables, graph exports, the quarantine log) used to go
// through its own ad-hoc ofstream or fd loop — several of which never
// checked stream state, so a full disk "succeeded". These two classes give
// all of them one write path with the properties storage faults demand:
//
//  * every byte is written through faultfs::write with short-write and EINTR
//    retry, so an injected EINTR storm or a genuinely interrupted syscall is
//    absorbed, and a persistent error (ENOSPC, EIO) surfaces as a typed
//    IoError naming the file and the errno — never a silent success;
//  * close() checks the final flush AND the close itself (NFS and
//    quota-on-close failures land there);
//  * AtomicFileWriter implements the PR-1 crash-atomic publish protocol —
//    write <path>.tmp, fsync, close, rename over <path>, fsync the parent
//    directory — so a crash (or an injected kill-9) at ANY syscall boundary
//    leaves either the old file intact or the new one complete, never a torn
//    artifact at the published path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spnl {

/// Owns a file descriptor (negative: none) and closes it on destruction.
struct ScopedFd {
  int fd;
  explicit ScopedFd(int f) : fd(f) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd();
};

/// Buffered append-only writer over a raw fd. All errors throw IoError
/// (graph/io.hpp) with the path and strerror text. The destructor closes
/// best-effort without throwing — call close() explicitly to observe
/// errors (writers that skip it are fire-and-forget by design, like the
/// quarantine log's drop-counting wrapper).
class FdWriter {
 public:
  /// Opens `path` for writing (O_CREAT, truncating by default).
  explicit FdWriter(const std::string& path, bool append = false);
  ~FdWriter();

  FdWriter(const FdWriter&) = delete;
  FdWriter& operator=(const FdWriter&) = delete;

  void append(const void* data, std::size_t size);
  void append(std::string_view text) { append(text.data(), text.size()); }
  void append_char(char c);
  /// Decimal text, no allocation (std::to_chars).
  void append_u64(std::uint64_t value);

  /// Drains the buffer to the fd (short-write/EINTR-retrying). On a write
  /// error the buffered bytes are discarded before throwing, so a caller
  /// that swallows the error (quarantine log) doesn't re-fail forever on
  /// the same bytes.
  void flush();

  /// Flush, then overwrite `size` bytes at absolute `offset` (pwrite): the
  /// sadj writer patches its record count into the header after the body.
  void patch(std::uint64_t offset, const void* data, std::size_t size);

  void fsync();

  /// Flush + close, checking both. Idempotent.
  void close();

  const std::string& path() const { return path_; }
  /// Bytes successfully handed to the kernel so far (excludes buffered).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  [[noreturn]] void fail(const std::string& what, int err) const;

  std::string path_;
  int fd_ = -1;
  std::vector<char> buffer_;
  std::uint64_t bytes_written_ = 0;
};

/// Crash-atomic file publish: writes to `<path>.tmp` and renames into place
/// only after the data is on stable storage. Abandoning the object (scope
/// exit without commit(), e.g. after a mid-write throw) unlinks the tmp file
/// best-effort; the published path is never touched until commit().
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  FdWriter& out() { return writer_; }

  /// flush + fsync + close + rename(tmp, path) + fsync(parent dir).
  /// Throws IoError on any failure; the destructor then removes the partial
  /// tmp file (a crash that skips the destructor leaves a stale tmp, which
  /// the next publish simply overwrites).
  void commit();

  bool committed() const { return committed_; }

 private:
  std::string path_;
  std::string tmp_;
  FdWriter writer_;
  bool committed_ = false;
};

/// fsyncs the directory containing `path` so a just-renamed file survives a
/// power cut (best-effort: some filesystems reject directory fsync, which
/// leaves us no worse than before).
void fsync_parent_dir(const std::string& path);

}  // namespace spnl
