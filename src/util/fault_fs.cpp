#include "util/fault_fs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/resource_governor.hpp"  // parse_byte_size

namespace spnl {
namespace faultfs {

namespace detail {
std::atomic<bool> g_armed{false};
}

namespace {

struct FailEntry {
  Op op;
  std::uint64_t nth;
  int err;
};

struct EintrEntry {
  Op op;
  std::uint64_t start;
  std::uint64_t len;
};

struct ShortEntry {
  Op op;
  std::uint64_t nth;
  std::uint64_t divisor;
};

struct TornEntry {
  std::uint64_t nth;       // write index
  std::uint64_t max_bytes;  // UINT64_MAX = half of the requested count
};

struct KillEntry {
  Op op;
  std::uint64_t nth;
};

// The armed plan. Entries are immutable after configure(); only the counters
// mutate, and those are atomics, so concurrent I/O (server handler threads,
// the parallel pipeline's checkpoint thread) consults the plan race-free.
struct Plan {
  std::vector<FailEntry> fails;
  std::vector<EintrEntry> eintrs;
  std::vector<ShortEntry> shorts;
  std::vector<TornEntry> torn;
  std::vector<KillEntry> kills;
  std::uint64_t enospc_budget = UINT64_MAX;  // total write bytes allowed
};

Plan g_plan;
std::array<std::atomic<std::uint64_t>, kOpCount> g_attempts{};
std::atomic<std::uint64_t> g_bytes_written{0};
std::atomic<std::uint64_t> g_injected{0};

[[noreturn]] void grammar_error(const std::string& what) {
  throw std::runtime_error("--inject-io-faults: " + what);
}

Op parse_op(const std::string& name) {
  for (unsigned i = 0; i < kOpCount; ++i) {
    if (name == op_name(static_cast<Op>(i))) return static_cast<Op>(i);
  }
  grammar_error("unknown operation '" + name +
                "' (want open|read|write|fsync|rename)");
}

int parse_errno(const std::string& name) {
  if (name == "eio") return EIO;
  if (name == "enospc") return ENOSPC;
  if (name == "eintr") return EINTR;
  if (name == "eacces") return EACCES;
  if (name == "emfile") return EMFILE;
  if (name == "enosys") return ENOSYS;
  try {
    std::size_t used = 0;
    const int value = std::stoi(name, &used);
    if (used != name.size() || value <= 0) grammar_error("bad errno '" + name + "'");
    return value;
  } catch (const std::logic_error&) {
    grammar_error("bad errno '" + name + "'");
  }
}

// Operation index: a plain integer, or "rN" for a seeded uniform draw from
// [1, N]. Draws consume `rng` in item order, so a plan string (with its
// seed) names one exact schedule.
std::uint64_t parse_index(const std::string& token, std::mt19937_64& rng) {
  std::string digits = token;
  bool randomized = false;
  if (!token.empty() && token[0] == 'r') {
    randomized = true;
    digits = token.substr(1);
  }
  std::uint64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoull(digits, &used);
    if (used != digits.size()) grammar_error("bad operation index '" + token + "'");
  } catch (const std::logic_error&) {
    grammar_error("bad operation index '" + token + "'");
  }
  if (value == 0) grammar_error("operation indices are 1-based: '" + token + "'");
  if (!randomized) return value;
  return std::uniform_int_distribution<std::uint64_t>(1, value)(rng);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t next = text.find(sep, pos);
    if (next == std::string::npos) next = text.size();
    out.push_back(text.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

void reset_counters() {
  for (auto& a : g_attempts) a.store(0, std::memory_order_relaxed);
  g_bytes_written.store(0, std::memory_order_relaxed);
  g_injected.store(0, std::memory_order_relaxed);
}

// Consults the armed plan for attempt `n` of `op`. Returns an errno to
// inject (0 = proceed), and via `clamp` an optional byte cap for the
// transfer. May not return at all (kill/torn).
int consult(Op op, std::uint64_t n, const void* buf, std::size_t count, int fd,
            std::size_t* clamp) {
  for (const KillEntry& k : g_plan.kills) {
    if (k.op == op && k.nth == n) {
      // A real SIGKILL: the process dies at this syscall boundary exactly as
      // it would under `kill -9`, with no atexit handlers, no stream
      // flushing, no unwinding.
      ::raise(SIGKILL);
    }
  }
  for (const FailEntry& f : g_plan.fails) {
    if (f.op == op && f.nth == n) {
      g_injected.fetch_add(1, std::memory_order_relaxed);
      return f.err;
    }
  }
  for (const EintrEntry& e : g_plan.eintrs) {
    if (e.op == op && n >= e.start && n < e.start + e.len) {
      g_injected.fetch_add(1, std::memory_order_relaxed);
      return EINTR;
    }
  }
  if (op == Op::kWrite) {
    for (const TornEntry& t : g_plan.torn) {
      if (t.nth == n) {
        std::size_t keep = t.max_bytes == UINT64_MAX
                               ? count / 2
                               : static_cast<std::size_t>(
                                     t.max_bytes < count ? t.max_bytes : count);
        // Tear the write, then die without flushing anything else: the bytes
        // that made it are whatever the kernel got, the rest never existed.
        if (keep > 0) {
          const ssize_t rc = ::write(fd, buf, keep);
          (void)rc;
        }
        ::_exit(kTornExitCode);
      }
    }
    const std::uint64_t budget = g_plan.enospc_budget;
    if (budget != UINT64_MAX) {
      const std::uint64_t used = g_bytes_written.load(std::memory_order_relaxed);
      if (used >= budget) {
        g_injected.fetch_add(1, std::memory_order_relaxed);
        return ENOSPC;
      }
      const std::uint64_t room = budget - used;
      if (room < count && clamp != nullptr) {
        g_injected.fetch_add(1, std::memory_order_relaxed);
        *clamp = static_cast<std::size_t>(room);
      }
    }
  }
  if (op == Op::kRead || op == Op::kWrite) {
    for (const ShortEntry& s : g_plan.shorts) {
      if (s.op == op && s.nth == n && count > 1 && clamp != nullptr) {
        g_injected.fetch_add(1, std::memory_order_relaxed);
        const std::size_t cut = (count + s.divisor - 1) / s.divisor;
        if (cut < *clamp) *clamp = cut;
      }
    }
  }
  return 0;
}

// Shared prologue: count the attempt and consult the plan. Returns false
// (with errno set) when the op must fail.
bool admit(Op op, const void* buf, std::size_t count, int fd,
           std::size_t* clamp) {
  const std::uint64_t n =
      g_attempts[static_cast<std::size_t>(op)].fetch_add(
          1, std::memory_order_relaxed) +
      1;
  const int err = consult(op, n, buf, count, fd, clamp);
  if (err != 0) {
    errno = err;
    return false;
  }
  return true;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kFsync: return "fsync";
    case Op::kRename: return "rename";
  }
  return "?";
}

void configure(const std::string& spec) {
  disarm();
  if (spec.empty()) return;

  // Two passes: the seed must be known before any rN draw, wherever it
  // appears in the string.
  std::uint64_t seed = 1;
  for (const std::string& item : split(spec, ',')) {
    if (item.rfind("seed:", 0) == 0) {
      const std::string value = item.substr(5);
      try {
        std::size_t used = 0;
        seed = std::stoull(value, &used);
        if (used != value.size()) grammar_error("bad seed '" + value + "'");
      } catch (const std::logic_error&) {
        grammar_error("bad seed '" + value + "'");
      }
    }
  }
  std::mt19937_64 rng(seed);

  Plan plan;
  for (const std::string& item : split(spec, ',')) {
    if (item.empty() || item.rfind("seed:", 0) == 0) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      grammar_error("expected key:value in '" + item + "'");
    }
    const std::string key = item.substr(0, colon);
    const std::vector<std::string> parts = split(item.substr(colon + 1), '@');
    if (key == "fail") {
      if (parts.size() < 2 || parts.size() > 3) grammar_error("fail wants OP@N[@ERR]");
      plan.fails.push_back({parse_op(parts[0]), parse_index(parts[1], rng),
                            parts.size() == 3 ? parse_errno(parts[2]) : EIO});
    } else if (key == "eintr") {
      if (parts.size() < 2 || parts.size() > 3) grammar_error("eintr wants OP@N[@R]");
      EintrEntry e{parse_op(parts[0]), parse_index(parts[1], rng), 3};
      if (parts.size() == 3) e.len = parse_index(parts[2], rng);
      plan.eintrs.push_back(e);
    } else if (key == "short") {
      if (parts.size() < 2 || parts.size() > 3) grammar_error("short wants OP@N[@D]");
      ShortEntry s{parse_op(parts[0]), parse_index(parts[1], rng), 2};
      if (parts.size() == 3) s.divisor = parse_index(parts[2], rng);
      if (s.op != Op::kRead && s.op != Op::kWrite) {
        grammar_error("short applies to read|write only");
      }
      plan.shorts.push_back(s);
    } else if (key == "enospc") {
      if (parts.size() != 1) grammar_error("enospc wants BYTES");
      try {
        plan.enospc_budget = parse_byte_size(parts[0]);
      } catch (const std::invalid_argument& e) {
        grammar_error(e.what());
      }
    } else if (key == "torn") {
      if (parts.size() < 1 || parts.size() > 2) grammar_error("torn wants N[@BYTES]");
      TornEntry t{parse_index(parts[0], rng), UINT64_MAX};
      if (parts.size() == 2) {
        try {
          t.max_bytes = parse_byte_size(parts[1]);
        } catch (const std::invalid_argument& e) {
          grammar_error(e.what());
        }
      }
      plan.torn.push_back(t);
    } else if (key == "kill") {
      if (parts.size() != 2) grammar_error("kill wants OP@N");
      plan.kills.push_back({parse_op(parts[0]), parse_index(parts[1], rng)});
    } else {
      grammar_error("unknown key '" + key + "'");
    }
  }

  g_plan = std::move(plan);
  reset_counters();
  detail::g_armed.store(true, std::memory_order_release);
}

void disarm() {
  detail::g_armed.store(false, std::memory_order_release);
  g_plan = Plan{};
  reset_counters();
}

std::uint64_t injected_faults() {
  return g_injected.load(std::memory_order_relaxed);
}

std::uint64_t op_count(Op op) {
  return g_attempts[static_cast<std::size_t>(op)].load(std::memory_order_relaxed);
}

int open(const char* path, int flags, unsigned mode) {
  if (armed()) {
    if (!admit(Op::kOpen, nullptr, 0, -1, nullptr)) return -1;
  }
  return ::open(path, flags, static_cast<mode_t>(mode));
}

ssize_t read(int fd, void* buf, std::size_t count) {
  if (armed()) {
    std::size_t clamp = count;
    if (!admit(Op::kRead, buf, count, fd, &clamp)) return -1;
    return ::read(fd, buf, clamp);
  }
  return ::read(fd, buf, count);
}

ssize_t write(int fd, const void* buf, std::size_t count) {
  if (armed()) {
    std::size_t clamp = count;
    if (!admit(Op::kWrite, buf, count, fd, &clamp)) return -1;
    const ssize_t n = ::write(fd, buf, clamp);
    if (n > 0) {
      g_bytes_written.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
    }
    return n;
  }
  return ::write(fd, buf, count);
}

ssize_t pwrite(int fd, const void* buf, std::size_t count, std::int64_t offset) {
  if (armed()) {
    std::size_t clamp = count;
    if (!admit(Op::kWrite, buf, count, fd, &clamp)) return -1;
    const ssize_t n = ::pwrite(fd, buf, clamp, static_cast<off_t>(offset));
    if (n > 0) {
      g_bytes_written.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
    }
    return n;
  }
  return ::pwrite(fd, buf, count, static_cast<off_t>(offset));
}

int fsync(int fd) {
  if (armed()) {
    if (!admit(Op::kFsync, nullptr, 0, fd, nullptr)) return -1;
  }
  return ::fsync(fd);
}

int rename(const char* from, const char* to) {
  if (armed()) {
    if (!admit(Op::kRename, nullptr, 0, -1, nullptr)) return -1;
  }
  return ::rename(from, to);
}

}  // namespace faultfs
}  // namespace spnl
