#include "core/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace spnl {

PipelineWatchdog::PipelineWatchdog(unsigned num_workers, const Options& options,
                                   RescueFn rescue, AbortFn on_abort)
    : options_(options),
      rescue_(std::move(rescue)),
      on_abort_(std::move(on_abort)),
      slots_(std::max(num_workers, 1u)) {
  const std::int64_t now = now_nanos();
  for (auto& slot : slots_) {
    slot.heartbeat_nanos.store(now, std::memory_order_relaxed);
  }
}

PipelineWatchdog::~PipelineWatchdog() { stop(); }

std::int64_t PipelineWatchdog::now_nanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PipelineWatchdog::start() {
  if (options_.timeout_seconds <= 0.0) return;  // monitoring disabled
  if (started_.exchange(true)) return;
  stop_.store(false, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });
}

void PipelineWatchdog::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  started_.store(false, std::memory_order_release);
}

void PipelineWatchdog::heartbeat(unsigned worker) {
  slots_[worker].heartbeat_nanos.store(now_nanos(), std::memory_order_release);
}

void PipelineWatchdog::publish(unsigned worker, std::uint64_t index) {
  Slot& slot = slots_[worker];
  slot.heartbeat_nanos.store(now_nanos(), std::memory_order_release);
  slot.word.store(index << kIndexShift | kPublished, std::memory_order_release);
}

bool PipelineWatchdog::claim(unsigned worker) {
  Slot& slot = slots_[worker];
  slot.heartbeat_nanos.store(now_nanos(), std::memory_order_release);
  std::uint64_t word = slot.word.load(std::memory_order_acquire);
  if ((word & kStateMask) == kPublished &&
      slot.word.compare_exchange_strong(word, word - kPublished + kProcessing,
                                        std::memory_order_acq_rel)) {
    return true;
  }
  // Lost to the monitor: the rescue owns the record now. Reset the slot so
  // the worker can publish its next pop.
  slot.word.store(kIdle, std::memory_order_release);
  return false;
}

void PipelineWatchdog::complete(unsigned worker) {
  Slot& slot = slots_[worker];
  slot.heartbeat_nanos.store(now_nanos(), std::memory_order_release);
  slot.word.store(kIdle, std::memory_order_release);
}

bool PipelineWatchdog::wait_until_stolen(unsigned worker, double max_seconds) const {
  const Slot& slot = slots_[worker];
  const std::int64_t deadline =
      now_nanos() + static_cast<std::int64_t>(max_seconds * 1e9);
  for (;;) {
    if ((slot.word.load(std::memory_order_acquire) & kStateMask) == kStolen) return true;
    if (aborted() || now_nanos() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool PipelineWatchdog::wait_until_aborted(double max_seconds) const {
  const std::int64_t deadline =
      now_nanos() + static_cast<std::int64_t>(max_seconds * 1e9);
  while (!aborted() && now_nanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return aborted();
}

void PipelineWatchdog::request_abort(const std::string& reason) {
  if (aborted_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(reason_mutex_);
    abort_reason_ = reason;
  }
  if (on_abort_) on_abort_();
}

std::string PipelineWatchdog::abort_reason() const {
  std::lock_guard lock(reason_mutex_);
  return abort_reason_;
}

void PipelineWatchdog::mark_stalled(Slot& slot) {
  if (!slot.ever_stalled.exchange(true, std::memory_order_acq_rel)) {
    stalled_workers_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PipelineWatchdog::monitor_loop() {
  const double poll = std::clamp(options_.timeout_seconds / 4.0, 0.001, 0.25);
  const auto poll_interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(poll * 1e9));
  const double timeout = options_.timeout_seconds;

  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll_interval);
    if (stop_.load(std::memory_order_acquire)) break;

    const std::int64_t now = now_nanos();
    std::size_t wedged_processing = 0;
    for (unsigned w = 0; w < slots_.size(); ++w) {
      Slot& slot = slots_[w];
      const std::uint64_t word = slot.word.load(std::memory_order_acquire);
      const std::uint64_t state = word & kStateMask;
      if (state != kPublished && state != kProcessing) continue;
      const double age =
          static_cast<double>(now - slot.heartbeat_nanos.load(
                                        std::memory_order_acquire)) *
          1e-9;
      if (age <= timeout) continue;

      if (state == kPublished) {
        // Steal: the CAS is the ownership handoff. If the worker claims (or
        // moves on to its next record) concurrently, exactly one wins.
        std::uint64_t expected = word;
        if (!slot.word.compare_exchange_strong(expected, word - kPublished + kStolen,
                                               std::memory_order_acq_rel)) {
          continue;  // worker woke up and claimed first
        }
        mark_stalled(slot);
        if (rescue_) {
          rescue_(w, word >> kIndexShift);
          rescued_records_.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // Wedged mid-placement: stealing would double-place. Count it; if
        // every worker is wedged this way the pipeline is dead.
        mark_stalled(slot);
        ++wedged_processing;
      }
    }
    if (wedged_processing == slots_.size() && !slots_.empty()) {
      request_abort("all " + std::to_string(slots_.size()) +
                    " workers stalled mid-placement past " +
                    std::to_string(timeout) + "s watchdog timeout");
      break;
    }
  }
}

}  // namespace spnl
