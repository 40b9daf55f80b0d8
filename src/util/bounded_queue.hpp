// Bounded blocking multi-producer/multi-consumer queue. OrderedPrefetch
// (util/ordered_prefetch.hpp) hands item indices to its helper threads
// through one and carries "item i is ready" back through capacity-1 ones.
//
// Wakeup protocol: a push or pop wakes one waiter of the other side with
// notify_one after the lock is released; waiters re-check their predicate
// under the lock, so no wakeup is lost. close() and abort() wake everyone.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace spnl {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false if the queue was closed
  /// or aborted (the item is dropped — pushing after close is a caller bug
  /// but must not deadlock).
  bool push(T item) {
    {
      std::unique_lock lock(mutex_);
      not_full_.wait(lock, [&] { return items_.size() < capacity_ || done_(); });
      if (done_()) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  /// After abort() returns nullopt immediately, dropping undelivered items.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      std::unique_lock lock(mutex_);
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_ || aborted_; });
      if (aborted_ || items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop; nullopt if empty (regardless of closed state).
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      std::lock_guard lock(mutex_);
      if (aborted_ || items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// Ends the stream: blocked consumers wake up and drain remaining items;
  /// subsequent pops return nullopt once empty.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Kills the stream: every waiter (producers AND consumers) wakes up,
  /// pending items are discarded, pushes fail. Unlike close(), nothing is
  /// drained.
  void abort() {
    {
      std::lock_guard lock(mutex_);
      aborted_ = true;
      items_.clear();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  bool aborted() const {
    std::lock_guard lock(mutex_);
    return aborted_;
  }

  /// No item will ever be delivered again: aborted, or closed and drained.
  bool finished() const {
    std::lock_guard lock(mutex_);
    return aborted_ || (closed_ && items_.empty());
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  bool done_() const { return closed_ || aborted_; }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace spnl
