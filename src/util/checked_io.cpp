#include "util/checked_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "graph/io.hpp"
#include "util/fault_fs.hpp"

namespace spnl {

namespace {

// Flush threshold: large enough that the text writers see a handful of
// syscalls per megabyte, small enough that a torn-write fault plan can
// target meaningful boundaries.
constexpr std::size_t kFlushBytes = 1u << 20;

}  // namespace

ScopedFd::~ScopedFd() {
  if (fd >= 0) ::close(fd);
}

FdWriter::FdWriter(const std::string& path, bool append) : path_(path) {
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (append ? O_APPEND : O_TRUNC);
  fd_ = faultfs::open(path.c_str(), flags, 0644);
  if (fd_ < 0) fail("cannot open for write", errno);
  buffer_.reserve(kFlushBytes);
}

FdWriter::~FdWriter() {
  if (fd_ >= 0) {
    // Destructor path: best-effort, never throws. Callers that care about
    // the final flush call close() explicitly.
    ::close(fd_);
    fd_ = -1;
  }
}

void FdWriter::fail(const std::string& what, int err) const {
  throw IoError(what + ": " + path_ + ": " + std::strerror(err));
}

void FdWriter::append(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
  if (buffer_.size() >= kFlushBytes) flush();
}

void FdWriter::append_char(char c) {
  buffer_.push_back(c);
  if (buffer_.size() >= kFlushBytes) flush();
}

void FdWriter::append_u64(std::uint64_t value) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value);
  (void)ec;  // uint64 always fits in 20 digits
  append(digits, static_cast<std::size_t>(end - digits));
}

void FdWriter::flush() {
  if (fd_ < 0) fail("write after close", EBADF);
  std::size_t done = 0;
  while (done < buffer_.size()) {
    const ssize_t n =
        faultfs::write(fd_, buffer_.data() + done, buffer_.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      buffer_.clear();  // don't re-fail forever on the same bytes
      fail("write error", err);
    }
    done += static_cast<std::size_t>(n);
    bytes_written_ += static_cast<std::uint64_t>(n);
  }
  buffer_.clear();
}

void FdWriter::patch(std::uint64_t offset, const void* data, std::size_t size) {
  flush();
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = faultfs::pwrite(fd_, p + done, size - done,
                                      static_cast<std::int64_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("patch write error", errno);
    }
    done += static_cast<std::size_t>(n);
  }
}

void FdWriter::fsync() {
  flush();
  while (faultfs::fsync(fd_) != 0) {
    if (errno != EINTR) fail("fsync failed", errno);
  }
}

void FdWriter::close() {
  if (fd_ < 0) return;
  flush();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) fail("close failed", errno);
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

AtomicFileWriter::AtomicFileWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp"), writer_(tmp_) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) {
    // Abandoned mid-write (an exception is unwinding): drop the partial tmp
    // so a later reader can't mistake it for anything. Best-effort — a
    // crash before this line leaves a stale tmp, which the next publish
    // simply overwrites.
    ::unlink(tmp_.c_str());
  }
}

void AtomicFileWriter::commit() {
  if (committed_) return;
  writer_.fsync();
  writer_.close();
  if (faultfs::rename(tmp_.c_str(), path_.c_str()) != 0) {
    throw IoError("rename failed: " + tmp_ + " -> " + path_ + ": " +
                  std::strerror(errno));
  }
  committed_ = true;
  fsync_parent_dir(path_);
}

}  // namespace spnl
