// Pipeline watchdog for the parallel streaming driver (robustness layer).
//
// Every worker owns a slot with an atomic heartbeat and a small state
// machine over its in-flight record:
//
//   kIdle ──publish──▶ kPublished ──claim──▶ kProcessing ──complete──▶ kIdle
//                          │
//                      (monitor, heartbeat older than the timeout)
//                          ▼
//                       kStolen ──▶ record rescued by the monitor thread
//
// A worker PUBLISHES the stream index of each record before touching shared
// state and then CLAIMS it; the claim is a CAS, so a worker that wedges
// between publish and claim loses the race to the monitor, which hands the
// index to the rescue callback to place — the stream completes without the
// sick worker. The watchdog holds no record: the caller keeps the record
// readable until the rescue is done with it. A worker that wedges INSIDE a
// placement (kProcessing) cannot be stolen from — rescuing would
// double-place — so the monitor marks it stalled; when every worker is
// wedged that way the pipeline cannot make progress and the monitor aborts
// the run instead of hanging: the driver's waits (the reader's and the
// workers') all poll aborted(), and on_abort can wake any other waiter.
//
// Every slot is atomics only; the monitor is a single thread, so rescues
// never race each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace spnl {

class PipelineWatchdog {
 public:
  struct Options {
    /// A slot whose heartbeat is older than this is stalled. <= 0 disables
    /// monitoring entirely (publish/claim/complete become cheap bookkeeping).
    /// The monitor polls every timeout/4, clamped to [1 ms, 250 ms].
    double timeout_seconds = 5.0;
  };

  /// Called from the monitor thread with the index of a stolen record; must
  /// place it (typically under the pipeline's shared lock).
  using RescueFn = std::function<void(unsigned worker, std::uint64_t index)>;
  /// Called once when the pipeline is declared dead (all workers wedged).
  using AbortFn = std::function<void()>;

  PipelineWatchdog(unsigned num_workers, const Options& options, RescueFn rescue,
                   AbortFn on_abort);
  ~PipelineWatchdog();

  PipelineWatchdog(const PipelineWatchdog&) = delete;
  PipelineWatchdog& operator=(const PipelineWatchdog&) = delete;

  /// Launch / join the monitor thread. stop() is idempotent and also runs
  /// from the destructor.
  void start();
  void stop();

  /// Worker-side protocol (all bump the heartbeat).
  /// `index` names the record to the rescue; below 2^62.
  void publish(unsigned worker, std::uint64_t index);
  /// False = the monitor stole the record while the worker stalled; the
  /// rescue places it, so the worker skips it.
  bool claim(unsigned worker);
  void complete(unsigned worker);
  void heartbeat(unsigned worker);

  /// Fault-injection/test helper: block until this worker's in-flight record
  /// is stolen, the pipeline aborts, or `max_seconds` passes. Returns true if
  /// the record was stolen.
  bool wait_until_stolen(unsigned worker, double max_seconds) const;
  /// Fault-injection/test helper: block until the pipeline aborts or
  /// `max_seconds` passes. Returns aborted().
  bool wait_until_aborted(double max_seconds) const;

  void request_abort(const std::string& reason);
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  std::string abort_reason() const;

  /// Distinct workers ever declared stalled / records rescued by the monitor.
  std::uint64_t stalled_workers() const {
    return stalled_workers_.load(std::memory_order_relaxed);
  }
  std::uint64_t rescued_records() const {
    return rescued_records_.load(std::memory_order_relaxed);
  }

 private:
  // Slot states: the low two bits of Slot::word. The bits above hold the
  // published record's index, so the steal CAS takes the state and the index
  // together and cannot pair a steal with the worker's next publish.
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kPublished = 1;
  static constexpr std::uint64_t kProcessing = 2;
  static constexpr std::uint64_t kStolen = 3;
  static constexpr std::uint64_t kStateMask = 3;
  static constexpr int kIndexShift = 2;

  // Cache-line aligned: each worker hammers its own heartbeat on every
  // commit, and the monitor polls all of them — without the alignment the
  // slots would share lines and every heartbeat would ping-pong the others.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> word{kIdle};
    std::atomic<std::int64_t> heartbeat_nanos{0};
    /// Counted into stalled_workers() at most once.
    std::atomic<bool> ever_stalled{false};
  };

  static std::int64_t now_nanos();
  void monitor_loop();
  void mark_stalled(Slot& slot);

  Options options_;
  RescueFn rescue_;
  AbortFn on_abort_;
  std::vector<Slot> slots_;

  std::thread monitor_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  std::atomic<bool> aborted_{false};
  mutable std::mutex reason_mutex_;
  std::string abort_reason_;

  std::atomic<std::uint64_t> stalled_workers_{0};
  std::atomic<std::uint64_t> rescued_records_{0};
};

}  // namespace spnl
