// Resource governor: enforced memory/deadline budgets with graceful quality
// degradation for the streaming drivers.
//
// The paper's sliding Γ window exists precisely to bound memory (Sec. V-A,
// Table IV) — but a bound that is merely configured is advisory, not
// enforced. The governor makes it enforced: the drivers sample the
// partitioner's precise footprint (memory_footprint_bytes(), the MC metric)
// and process RSS at window-slide boundaries, and on a breach step down a
// degradation ladder instead of OOMing or blowing the deadline:
//
//   kShrinkWindow   halve the Γ window (repeatable until one row)
//   kCoarseSlide    fine -> coarse slide mode (cheaper bookkeeping)
//   kHashFallback   capacity-weighted hash scoring for the rest of the
//                   stream; the Γ window is released entirely
//
// Every applied transition is recorded as a typed DegradationEvent and
// surfaced in RunResult / ParallelRunResult / --perf-json. The ladder trades
// quality for staying up — the partitioner keeps answering and the run
// finishes with a full valid route, which is what a production streaming
// partitioner owes its callers under pressure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace spnl {

/// Rungs of the degradation ladder, ordered from mildest to harshest.
/// kNone means "undegraded"; partitioners report false from
/// apply_degradation() for rungs they have exhausted or do not support.
enum class DegradationStage : std::uint8_t {
  kNone = 0,
  kShrinkWindow = 1,
  kCoarseSlide = 2,
  kHashFallback = 3,
};

const char* degradation_stage_name(DegradationStage stage);

/// Fixed seed for the kHashFallback rung's mix64 vote: the degraded run stays
/// deterministic (and kill-and-resume reproducible) without threading a seed
/// through every partitioner constructor.
inline constexpr std::uint64_t kDegradedHashSeed = 0x9E3779B97F4A7C15ull;

/// What the governor does when a budget is breached.
enum class DegradePolicy : std::uint8_t {
  kLadder,  ///< step down the ladder (default)
  kAbort,   ///< throw BudgetExceededError (caller wants the budget hard)
  kOff,     ///< observe + record samples only, never intervene
};

/// Thrown under DegradePolicy::kAbort when a budget is breached.
class BudgetExceededError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One applied ladder transition.
struct DegradationEvent {
  DegradationStage stage = DegradationStage::kNone;
  std::uint64_t at_placement = 0;
  /// Footprint observed at the triggering sample / after the step applied.
  std::size_t partitioner_bytes = 0;
  std::size_t post_bytes = 0;
  /// Process RSS at the triggering sample (0 when unreadable even through
  /// the getrusage fallback).
  std::size_t rss_bytes = 0;
  std::size_t budget_bytes = 0;
  double elapsed_seconds = 0.0;
  /// "memory" or "deadline".
  std::string reason;
};

/// Compact JSON array of events, spliced into --perf-json by the CLI.
std::string degradation_events_json(const std::vector<DegradationEvent>& events);

/// Parses "4096", "64K", "12M", "1.5G" into bytes. Throws
/// std::invalid_argument on malformed input.
std::size_t parse_byte_size(const std::string& text);

/// Budget enforcement + ladder bookkeeping. Thread-safe: in the parallel
/// driver the reader samples while the watchdog monitor may be recording
/// rescue-driven events.
class ResourceGovernor {
 public:
  struct Options {
    /// Budget on the partitioner's own structures (the MC metric). 0 = off.
    std::size_t memory_budget_bytes = 0;
    /// Wall-clock deadline from governor construction. 0 = off.
    double deadline_seconds = 0.0;
    DegradePolicy policy = DegradePolicy::kLadder;
    /// Placements between samples; footprint accounting is a few adds but
    /// the RSS read walks /proc, so sampling is amortized.
    std::uint64_t sample_interval = 256;
  };

  /// One breach observation handed back to the driver, which passes it to
  /// respond() with callbacks into its partitioner.
  struct Breach {
    bool over_memory = false;
    bool over_deadline = false;
    std::size_t partitioner_bytes = 0;
    std::size_t rss_bytes = 0;
    double elapsed_seconds = 0.0;
  };

  ResourceGovernor() = default;
  explicit ResourceGovernor(const Options& options);

  bool enabled() const {
    return options_.memory_budget_bytes > 0 || options_.deadline_seconds > 0.0;
  }
  bool due(std::uint64_t placements) const {
    return enabled() && placements > 0 && placements % options_.sample_interval == 0;
  }

  /// Crossing-aware variant for counters that advance in strides (see
  /// Checkpointer::due):
  /// true when [prev, now] crossed at least one sample boundary.
  bool due(std::uint64_t prev, std::uint64_t now) const {
    return enabled() && now / options_.sample_interval > prev / options_.sample_interval;
  }

  /// Records a sample; returns the breach descriptor when a budget is
  /// exceeded (nullopt = within budget). Under DegradePolicy::kAbort a
  /// breach throws BudgetExceededError instead of returning.
  std::optional<Breach> sample(std::size_t partitioner_bytes);

  /// True while `partitioner_bytes` exceeds the memory budget (used by the
  /// drivers' enforcement loop after each applied ladder step).
  bool over_memory_budget(std::size_t partitioner_bytes) const {
    return options_.memory_budget_bytes > 0 &&
           partitioner_bytes > options_.memory_budget_bytes;
  }

  /// A breach should step the ladder: policy kLadder and rungs left to try.
  bool ladder_open() const {
    return options_.policy == DegradePolicy::kLadder && !exhausted();
  }

  /// Breach response under DegradePolicy::kLadder, for both drivers. A
  /// memory breach keeps stepping within this one sample until `bytes()` is
  /// back under budget (or the ladder runs dry), so the budget is honoured
  /// at every sample point; a deadline breach steps one rung per sample —
  /// speed, not space, is the problem, so the escalation is paced.
  /// `apply_rung` applies one rung to the partitioner (false = nothing left
  /// to give there, try the next); `bytes` measures the same footprint the
  /// sample was charged (it becomes each event's post_bytes). Callers check
  /// ladder_open() first.
  void respond(const Breach& breach, std::uint64_t at_placement,
               const std::function<bool(DegradationStage)>& apply_rung,
               const std::function<std::size_t()>& bytes);

  /// Ladder cursor: the harshest stage applied so far / the rung to try
  /// next. next_stage(kNone) == kShrinkWindow; next_stage(kHashFallback) ==
  /// kNone (exhausted).
  static DegradationStage next_stage(DegradationStage after);
  DegradationStage stage() const;
  void set_stage(DegradationStage stage);

  /// The ladder ran out while still over budget; recorded once so the
  /// drivers stop retrying every sample.
  bool exhausted() const;
  void mark_exhausted();

  void record_event(DegradationEvent event);
  std::vector<DegradationEvent> events() const;

  std::uint64_t samples_taken() const;
  std::size_t peak_partitioner_bytes() const;
  const Options& options() const { return options_; }
  double elapsed_seconds() const { return timer_.seconds(); }

 private:
  /// Applies exactly one successful ladder step (retrying the current rung
  /// first when `repeat_current` — kShrinkWindow halves repeatedly), records
  /// it, and advances breach.partitioner_bytes to the post-step footprint.
  /// Returns false with the ladder marked exhausted when no rung has
  /// anything left to give.
  bool step_ladder(Breach& breach, std::uint64_t at_placement, const char* reason,
                   bool repeat_current,
                   const std::function<bool(DegradationStage)>& apply_rung,
                   const std::function<std::size_t()>& bytes);

  Options options_;
  Timer timer_;
  mutable std::mutex mutex_;
  std::vector<DegradationEvent> events_;
  DegradationStage stage_ = DegradationStage::kNone;
  bool exhausted_ = false;
  std::uint64_t samples_ = 0;
  std::size_t peak_partitioner_bytes_ = 0;
};

}  // namespace spnl
