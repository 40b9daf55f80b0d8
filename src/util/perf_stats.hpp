// Hot-path instrumentation for the streaming pipeline.
//
// The per-record place() path is the product of this library (the paper's PT
// claim lives or dies there), so the drivers can attribute wall-clock time to
// the stages of every placement: scoring, Γ increments, window advancement,
// commit bookkeeping, and queue/stream wait. Instrumentation is opt-in via a
// nullable PerfStats*: a disabled run pays exactly one predictable
// null-pointer test per stage and touches no clock — the scoring kernel
// itself is unchanged either way.
//
// PerfStats is deliberately NOT thread-safe: single-threaded call sites use
// one instance directly, and the parallel driver gives each worker a private
// instance and merge()s them after join (no atomics or shared cache lines on
// the hot path). report() renders a human table; to_json() a machine-readable
// object for BENCH_*.json trajectories.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace spnl {

/// Stages of the streaming hot path, in per-record execution order.
enum class PerfStage : unsigned {
  kQueueWait = 0,    ///< waiting for the record: the stream, or a claim
  kWindowAdvance,    ///< Γ window slide (slot retirement)
  kScore,            ///< Eq. 5/6 scoring + partition selection
  kCommit,           ///< route/load bookkeeping after the decision
  kGammaIncrement,   ///< Γ row bumps for the placed vertex's out-neighbors
};

inline constexpr std::size_t kPerfStageCount = 5;

/// Stable lower-case stage name (used by report() and to_json()).
const char* perf_stage_name(PerfStage stage);

class PerfStats {
 public:
  void add(PerfStage stage, std::uint64_t nanos, std::uint64_t calls = 1) {
    auto& cell = cells_[static_cast<std::size_t>(stage)];
    cell.nanos += nanos;
    cell.calls += calls;
  }

  std::uint64_t nanos(PerfStage stage) const {
    return cells_[static_cast<std::size_t>(stage)].nanos;
  }
  std::uint64_t calls(PerfStage stage) const {
    return cells_[static_cast<std::size_t>(stage)].calls;
  }

  /// Sum of all stage times (the instrumented fraction of the run).
  std::uint64_t total_nanos() const;

  /// Accumulate another instance (used to fold per-worker stats together;
  /// callers synchronize).
  void merge(const PerfStats& other);

  void reset();

  /// Human-readable per-stage table (time, calls, mean ns/call, share).
  std::string report() const;

  /// One-line JSON object:
  ///   {"total_nanos":N,"stages":[{"stage":"score","calls":C,"nanos":N,
  ///    "mean_nanos":M},...]}
  std::string to_json() const;

 private:
  struct Cell {
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;
  };
  std::array<Cell, kPerfStageCount> cells_{};
};

/// RAII stage timer. With stats == nullptr the constructor and destructor
/// reduce to one branch each — safe to leave in the hot path permanently.
class PerfScope {
 public:
  PerfScope(PerfStats* stats, PerfStage stage) noexcept
      : stats_(stats), stage_(stage) {
    if (stats_ != nullptr) start_ = Clock::now();
  }
  ~PerfScope() {
    if (stats_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - start_)
                          .count();
      stats_->add(stage_, static_cast<std::uint64_t>(ns));
    }
  }

  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  PerfStats* stats_;
  PerfStage stage_;
  Clock::time_point start_;
};

}  // namespace spnl
