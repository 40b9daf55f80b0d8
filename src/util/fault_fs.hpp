// Process-global, seeded storage-fault injector for the file I/O layer.
//
// Every durable write path in the tree (checkpoint writer, sadj writer,
// route/graph writers, quarantine log) and the sadj reader route their
// syscalls through the thin wrappers below. With no plan armed the wrappers
// are the raw syscalls behind one relaxed atomic-bool test (the PerfStats
// pattern: a disabled run pays a single predictable branch per call and the
// call sites never change shape). With a plan armed — `--inject-io-faults=`
// on spnl_partition / spnl_convert / spnl_server / spnl_client — operations
// are counted per kind and the plan's deterministic fault schedule fires at
// exact operation indices, so an ENOSPC at the third checkpoint write or a
// SIGKILL inside the sadj body is a reproducible test vector, not a chaos
// monkey.
//
// Plan grammar (comma-separated items; N is a 1-based operation index of the
// named kind, or `rN` for a seeded uniform draw from [1, N]):
//
//   seed:S            seed for the rN draws (default 1; parse-time, so a plan
//                     is fully determined by its string)
//   fail:OP@N[@ERR]   the Nth OP fails once with ERR (default eio; names:
//                     eio enospc eintr eacces emfile enosys, or a number)
//   eintr:OP@N[@R]    EINTR storm: attempts N..N+R-1 of OP return EINTR
//                     (default R=3); a retrying caller then succeeds
//   short:OP@N[@D]    the Nth read/write transfers only ceil(count/D) bytes
//                     (default D=2) — a short transfer, not an error
//   enospc:BYTES      writes succeed until BYTES total bytes (K/M/G suffixes)
//                     have been written, the crossing write is short, and
//                     every later write fails ENOSPC — a filling disk
//   torn:N[@BYTES]    the Nth write writes only min(BYTES, count) bytes
//                     (default half) and the process _exit()s — a torn write
//                     followed by a crash, the classic fsync-ordering trap
//   kill:OP@N         raise SIGKILL immediately before the Nth OP — the
//                     crash-consistency harness's deterministic kill-9 sites
//
// OP is one of: open read write fsync rename.
//
// Faults are injected at the wrapper, so callers exercise their REAL error
// handling: retry loops see genuine EINTR returns, ENOSPC propagates through
// whatever typing the call site applies, and a kill is indistinguishable
// from a power cut at that syscall boundary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>

namespace spnl {
namespace faultfs {

/// Operation kinds the injector schedules against.
enum class Op : unsigned {
  kOpen = 0,
  kRead,
  kWrite,
  kFsync,
  kRename,
};
inline constexpr std::size_t kOpCount = 5;

/// Stable lower-case name ("open", "write", ...) used by the plan grammar
/// and error messages.
const char* op_name(Op op);

/// Exit status used by `torn:` plans (distinguishable from a SIGKILL death
/// in the harness's waitpid bookkeeping).
inline constexpr int kTornExitCode = 86;

/// Parses `spec` and arms the injector. Throws std::runtime_error on bad
/// grammar. An empty spec disarms. Not thread-safe against in-flight I/O —
/// call during startup (the tools configure before opening anything).
void configure(const std::string& spec);

/// Disarms and clears all counters.
void disarm();

namespace detail {
extern std::atomic<bool> g_armed;
}

/// True when a plan is armed. Inline relaxed load — the only cost the
/// wrappers add to an uninstrumented process.
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Total faults injected since configure() (EINTRs, failures, short
/// transfers; kills obviously don't return to be counted).
std::uint64_t injected_faults();

/// Operations of `op` attempted since configure() (counted only while
/// armed).
std::uint64_t op_count(Op op);

// ---------------------------------------------------------------------------
// Syscall wrappers. Signatures mirror POSIX; error returns set errno exactly
// as the raw syscalls do, so call sites keep their existing errno handling.

int open(const char* path, int flags, unsigned mode = 0644);
ssize_t read(int fd, void* buf, std::size_t count);
ssize_t write(int fd, const void* buf, std::size_t count);
ssize_t pwrite(int fd, const void* buf, std::size_t count, std::int64_t offset);
int fsync(int fd);
int rename(const char* from, const char* to);

}  // namespace faultfs
}  // namespace spnl
