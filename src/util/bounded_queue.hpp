// Bounded blocking multi-producer/multi-consumer queue.
//
// Used by the parallel streaming driver (Sec. V-B of the paper): one producer
// thread pushes adjacency-list records in vertex-id order; M worker threads
// pop and compute placement scores. close() signals end-of-stream; pop()
// returns nullopt once the queue is both closed and drained.
// The timed push_batch_for and abort() exist for the pipeline watchdog: with
// them the producer never blocks on the queue unboundedly — a wedged peer
// surfaces as a timeout the caller can act on — and abort() tears the whole
// pipeline down, waking every waiter and discarding undelivered items
// (unlike close(), which drains them).
//
// Micro-batched handoff: push_batch / pop_batch move whole record batches
// under one lock acquisition, amortizing the mutex + condvar traffic by the
// batch size. The drain path needs no special casing — close() wakes
// consumers, which take whatever partial batch remains.
//
// Wakeup protocol (audited for the batched variant):
//  * Every state transition that can unblock exactly one waiter class uses
//    notify_one on the matching condvar, issued after the lock is released
//    (legal, and avoids the woken thread immediately blocking on the mutex).
//  * Batched operations pass a baton instead of broadcasting: pop_batch
//    re-notifies not_empty_ when items remain after its take, and the push
//    paths re-notify not_full_ when free space remains after their insert,
//    so k items / k slots wake a chain of waiters without notify_all storms
//    or lost wakeups under multiple producers/consumers.
//  * notify_all is reserved for close() and abort(), the only transitions
//    that must wake EVERY waiter on both condvars.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace spnl {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false if the queue was closed
  /// (the item is dropped — pushing after close is a caller bug but must not
  /// deadlock).
  bool push(T item) {
    bool chain;
    {
      Guard g(*this);
      g.wait(not_full_, [&] { return items_.size() < capacity_ || done_(); });
      if (done_()) return false;
      items_.push_back(std::move(item));
      chain = items_.size() < capacity_;
    }
    not_empty_.notify_one();
    // Baton for a second waiting producer (multi-producer case): free space
    // remains, so the slot this push did not consume is advertised too.
    if (chain) not_full_.notify_one();
    return true;
  }

  /// Pushes every item of `batch` as one unit: blocks until the WHOLE batch
  /// fits (throws std::length_error if it can never fit), moves the items in
  /// under a single lock acquisition and leaves `batch` empty. Returns false
  /// with the batch intact if the queue was closed or aborted first.
  bool push_batch(std::vector<T>& batch) {
    if (batch.empty()) return true;
    if (batch.size() > capacity_) {
      throw std::length_error("BoundedQueue::push_batch: batch exceeds capacity");
    }
    bool chain;
    spin_while([&] {
      return size_hint_.load(std::memory_order_relaxed) + batch.size() > capacity_;
    });
    {
      Guard g(*this);
      g.wait(not_full_, [&] {
        return items_.size() + batch.size() <= capacity_ || done_();
      });
      if (done_()) return false;
      for (T& item : batch) items_.push_back(std::move(item));
      batch.clear();
      chain = items_.size() < capacity_;
    }
    // One consumer is woken; if it cannot drain everything, its pop_batch
    // passes the baton onward (see pop_batch).
    not_empty_.notify_one();
    if (chain) not_full_.notify_one();
    return true;
  }

  /// Timed batch push; same contract as push_batch but returns false (batch
  /// intact) on timeout so a watchdog-supervised producer never blocks
  /// unboundedly.
  template <typename Rep, typename Period>
  bool push_batch_for(std::vector<T>& batch,
                      std::chrono::duration<Rep, Period> timeout) {
    if (batch.empty()) return true;
    if (batch.size() > capacity_) {
      throw std::length_error("BoundedQueue::push_batch_for: batch exceeds capacity");
    }
    bool chain;
    {
      Guard g(*this);
      if (!g.wait_for(not_full_, timeout, [&] {
            return items_.size() + batch.size() <= capacity_ || done_();
          })) {
        return false;  // timed out while full
      }
      if (done_()) return false;
      for (T& item : batch) items_.push_back(std::move(item));
      batch.clear();
      chain = items_.size() < capacity_;
    }
    not_empty_.notify_one();
    if (chain) not_full_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  /// After abort() returns nullopt immediately, dropping undelivered items.
  std::optional<T> pop() {
    std::optional<T> item;
    bool chain;
    {
      Guard g(*this);
      g.wait(not_empty_, [&] { return !items_.empty() || closed_ || aborted_; });
      if (aborted_ || items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
      chain = !items_.empty();
    }
    not_full_.notify_one();
    // Baton for a second waiting consumer: items remain after this take.
    if (chain) not_empty_.notify_one();
    return item;
  }

  /// Pops up to `max_items` into `out` (cleared first) under one lock
  /// acquisition. Blocks while the queue is empty and open. Returns the
  /// number of items taken; 0 means no item will ever arrive again (aborted,
  /// or closed and drained). A partial batch at stream end is delivered
  /// as-is — the drain path needs no flush handshake.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    out.clear();
    if (max_items == 0) max_items = 1;
    bool more;
    spin_while([&] { return size_hint_.load(std::memory_order_relaxed) == 0; });
    {
      Guard g(*this);
      g.wait(not_empty_, [&] { return !items_.empty() || closed_ || aborted_; });
      if (aborted_ || items_.empty()) return 0;
      const std::size_t take = items_.size() < max_items ? items_.size() : max_items;
      out.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      more = !items_.empty();
    }
    not_full_.notify_one();
    if (more) not_empty_.notify_one();
    return out.size();
  }

  /// Non-blocking pop; nullopt if empty (regardless of closed state).
  std::optional<T> try_pop() {
    std::optional<T> item;
    bool chain;
    {
      Guard g(*this);
      if (aborted_ || items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
      chain = !items_.empty();
    }
    not_full_.notify_one();
    if (chain) not_empty_.notify_one();
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
  /// drained — this is the watchdog's "pipeline is dead" teardown.
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

  std::size_t capacity() const { return capacity_; }

 private:
  /// Yields for a while as long as `busy()` before a batched call blocks.
  /// A parked thread must be woken by the other side's notify, and on the
  /// 4-vCPU VM this was measured on each such wake cost the waking thread
  /// 0.1–0.2 ms (the woken thread ran on the waker's CPU), which added
  /// ~0.15 s per 1M records to a one-worker pipeline. When the other side
  /// is about to make progress, yielding keeps both threads running.
  /// `busy` reads the unlocked size hint, so it decides only how long to
  /// wait before locking, never what the locked path does.
  template <typename Busy>
  static void spin_while(Busy busy) {
    for (int i = 0; i < 512 && busy(); ++i) std::this_thread::yield();
  }

  /// Holds the queue's mutex; on release publishes items_.size() to
  /// size_hint_ for spin_while.
  class Guard {
   public:
    explicit Guard(BoundedQueue& q) : q_(q), lock_(q.mutex_) {}
    ~Guard() { q_.size_hint_.store(q_.items_.size(), std::memory_order_relaxed); }

    template <typename Pred>
    void wait(std::condition_variable& cv, Pred pred) {
      cv.wait(lock_, pred);
    }

    template <typename Rep, typename Period, typename Pred>
    bool wait_for(std::condition_variable& cv,
                  std::chrono::duration<Rep, Period> timeout, Pred pred) {
      return cv.wait_for(lock_, timeout, pred);
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    BoundedQueue& q_;
    std::unique_lock<std::mutex> lock_;
  };

  bool done_() const { return closed_ || aborted_; }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  /// items_.size() as of the last Guard release; read without the lock by
  /// spin_while only.
  std::atomic<std::size_t> size_hint_{0};
  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace spnl
