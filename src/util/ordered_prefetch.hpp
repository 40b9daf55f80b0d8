// Ordered parallel prefetch: helper threads produce items 0..count-1 into a
// ring of reusable slots, at most `window` items ahead of the consumer, and
// the consumer takes them back in index order.
//
// The text reader parses file slices ahead of next() with it, and the
// metrics and the route writer fold or write vertex chunks in order. It is
// Parsa's ProducerConsumer reader with several producers: item indices go
// out on one BoundedQueue, and each slot has a capacity-1 BoundedQueue that
// carries "item i is ready" back. The window is two items per helper. Slot
// i % window is handed out again only after the consumer has moved past
// item i, so memory is `window` slots whatever `count` is, and slots keep
// their buffers across items.
//
// A produce() that throws does not stop the other helpers: the exception
// travels with its item, and next() rethrows it when the consumer reaches
// that index, so errors surface in order, after every earlier item. With no
// helpers (small inputs) next() produces each item inline on the calling
// thread. Destruction mid-run aborts both queues and joins the helpers; an
// item a helper has started is finished first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"

namespace spnl {

/// Helper threads for a prefetch on this machine: one per hardware thread,
/// capped because the consumer cannot use more.
inline std::size_t prefetch_helpers() {
  constexpr std::size_t kMaxHelpers = 8;
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores, 1, kMaxHelpers);
}

template <typename T>
class OrderedPrefetch {
 public:
  /// Fills `slot` with item `index`. Called concurrently from the helpers.
  using Produce = std::function<void(std::size_t index, T& slot)>;

  /// helpers == 0, or count <= 1, produces inline in next().
  OrderedPrefetch(std::size_t count, std::size_t helpers, Produce produce)
      : count_(count),
        helpers_(count <= 1 ? 0 : std::min(helpers, count)),
        window_(helpers_ == 0 ? 1 : std::min(2 * helpers_, count)),
        produce_(std::move(produce)),
        slots_(window_),
        todo_(window_) {
    if (helpers_ == 0) return;
    for (std::size_t s = 0; s < window_; ++s) {
      ready_.push_back(std::make_unique<BoundedQueue<std::exception_ptr>>(1));
    }
    for (std::size_t i = 0; i < window_; ++i) schedule(i);
    threads_.reserve(helpers_);
    try {
      for (std::size_t h = 0; h < helpers_; ++h) threads_.emplace_back([this] { run(); });
    } catch (...) {
      stop();  // a thread that failed to start must not leave the others unjoined
      throw;
    }
  }

  ~OrderedPrefetch() { stop(); }

  OrderedPrefetch(const OrderedPrefetch&) = delete;
  OrderedPrefetch& operator=(const OrderedPrefetch&) = delete;

  /// The next item in index order, or nullptr after the last. The returned
  /// slot stays valid until the next call, which recycles it. Rethrows what
  /// produce() threw for this item.
  T* next() {
    if (helpers_ == 0) {
      if (next_ == count_) return nullptr;
      produce_(next_++, slots_[0]);
      return &slots_[0];
    }
    if (next_ > 0) schedule(next_ - 1 + window_);
    if (next_ == count_) return nullptr;
    const std::size_t index = next_++;
    const std::optional<std::exception_ptr> error = ready_[index % window_]->pop();
    if (error && *error) std::rethrow_exception(*error);
    return &slots_[index % window_];
  }

 private:
  void schedule(std::size_t index) {
    if (index >= count_) return;
    todo_.push(index);
    if (index + 1 == count_) todo_.close();
  }

  void stop() {
    todo_.abort();
    for (auto& ready : ready_) ready->abort();
    for (auto& thread : threads_) thread.join();
  }

  void run() {
    while (const std::optional<std::size_t> index = todo_.pop()) {
      std::exception_ptr error;
      try {
        produce_(*index, slots_[*index % window_]);
      } catch (...) {
        error = std::current_exception();
      }
      if (!ready_[*index % window_]->push(std::move(error))) return;
    }
  }

  const std::size_t count_;
  const std::size_t helpers_;
  const std::size_t window_;
  const Produce produce_;
  std::vector<T> slots_;
  BoundedQueue<std::size_t> todo_;
  std::vector<std::unique_ptr<BoundedQueue<std::exception_ptr>>> ready_;
  std::vector<std::thread> threads_;
  std::size_t next_ = 0;
};

}  // namespace spnl
