#include "graph/read_ahead_stream.hpp"

#include <algorithm>

namespace spnl {

std::optional<VertexRecord> ReadAheadStream::next() {
  for (;;) {
    if (current_ != nullptr && index_ < current_->count) {
      const std::size_t i = index_++;
      if (current_->wide) return *current_->wide;
      const VertexId* ends = current_words_ + kSlabRecords;
      const VertexId* targets = ends + kSlabRecords;
      if (i + kPrefetchRecords < current_->count) {
        __builtin_prefetch(targets + ends[i + kPrefetchRecords - 1]);
        __builtin_prefetch(targets + ends[i + kPrefetchRecords] - 1);
      }
      const VertexId begin = i == 0 ? 0 : ends[i - 1];
      return VertexRecord{current_words_[i], {targets + begin, ends[i] - begin}};
    }
    if (state_ == State::kEnded) return std::nullopt;
    if (state_ == State::kIdle) {
      start();
    } else if (current_ != nullptr) {  // the current slab is used up
      if (current_->last || current_->error) {
        const std::exception_ptr error = current_->error;
        finish();
        if (error) std::rethrow_exception(error);
        return std::nullopt;
      }
      released_.store(taken_, std::memory_order_release);
      // The helper waits for half the ring (or for a wide record's slab).
      if (produced_.load(std::memory_order_relaxed) - taken_ <= kSlabs / 2) wake();
      current_ = nullptr;
    }
    if (produced_.load(std::memory_order_acquire) == taken_) {
      sleep_until([this] { return produced_.load(std::memory_order_acquire) != taken_; });
    }
    current_ = &slabs_[taken_ % kSlabs];
    current_words_ = words(taken_);
    ++taken_;
    index_ = 0;
  }
}

void ReadAheadStream::reset() {
  finish();
  inner_.reset();
  state_ = State::kIdle;
}

void ReadAheadStream::start() {
  ring_ = ZeroedArray<VertexId>(kSlabs * kSlabWords);
  // Fault the ring in on this thread, which also unmaps it. The kernel
  // counts RSS per CPU and folds the counts in batches of 32 pages, so pages
  // faulted on the helper's CPU and unmapped from this one would leave the
  // process's VmRSS and VmHWM reading up to 128 KiB above what is resident.
  for (std::size_t i = 0; i < ring_.size(); i += 4096 / sizeof(VertexId)) ring_[i] = 0;
  produced_.store(0, std::memory_order_relaxed);
  released_.store(0, std::memory_order_relaxed);
  taken_ = 0;
  current_ = nullptr;
  state_ = State::kRunning;
  // The first record is read here, so that a stream that allocates its
  // buffers at its first next() (BinaryAdjacencyStream's read window) does
  // so on this thread's heap, not in a malloc arena of the helper's own.
  std::optional<VertexRecord> first;
  try {
    first = inner_.next();
  } catch (...) {
    finish();
    throw;
  }
  if (!first) {  // an empty stream: its one slab is the last
    slabs_[0].last = true;
    produced_.store(1, std::memory_order_relaxed);
    return;
  }
  helper_ = std::thread([this, first] { produce(first); });
}

void ReadAheadStream::finish() {
  released_.store(kStop, std::memory_order_relaxed);
  wake();
  if (helper_.joinable()) helper_.join();
  ring_ = {};
  for (Slab& slab : slabs_) slab = {};
  current_ = nullptr;
  state_ = State::kEnded;
}

void ReadAheadStream::wake() {
  { const std::lock_guard<std::mutex> lock(mutex_); }
  woken_.notify_all();
}

void ReadAheadStream::produce(std::optional<VertexRecord> pending) {
  for (std::uint32_t s = 0;; ++s) {
    std::uint32_t released = released_.load(std::memory_order_acquire);
    if (released != kStop && s - released == kSlabs) {
      // The ring is full: sleep until half of it is free.
      sleep_until([&] {
        released = released_.load(std::memory_order_acquire);
        return released == kStop || s - released <= kSlabs / 2;
      });
    }
    if (released == kStop) return;
    VertexId* ids = words(s);
    VertexId* ends = ids + kSlabRecords;
    VertexId* targets = ends + kSlabRecords;
    // Filled here and stored into the ring's Slab once: the consumer reads
    // its current Slab on every next(), and it may share a cache line.
    Slab slab;
    VertexId used = 0;
    try {
      while (slab.count < kSlabRecords) {
        if (!pending && !(pending = inner_.next())) {
          slab.last = true;
          break;
        }
        const std::size_t degree = pending->out.size();
        if (degree > kSlabTargets) {
          if (slab.count == 0) {
            slab.wide = pending;
            slab.count = 1;
            pending.reset();
          }
          break;
        }
        if (used + degree > kSlabTargets) break;
        ids[slab.count] = pending->id;
        std::copy(pending->out.begin(), pending->out.end(), targets + used);
        used += static_cast<VertexId>(degree);
        ends[slab.count++] = used;
        pending.reset();
      }
    } catch (...) {
      slab.error = std::current_exception();
    }
    const bool done = slab.last || slab.error;
    const bool wide = slab.wide.has_value();
    slabs_[s % kSlabs] = std::move(slab);
    produced_.store(s + 1, std::memory_order_release);
    // A consumer that ran dry is woken once half the ring is filled, or for
    // the last slab or one the helper is about to wait on (it has released
    // every slab it took, so released_ is its count). On one core, waking it
    // for every slab switched threads once per slab.
    if (done || wide || s + 1 - released_.load(std::memory_order_acquire) >= kSlabs / 2) {
      wake();
    }
    if (done) return;
    if (wide) {
      // Its span points into the inner stream, which the next inner next()
      // overwrites or frees: read on only once the consumer has released
      // slab s, not merely moved from the slab it was on (kStop > s).
      sleep_until([&] { return released_.load(std::memory_order_acquire) > s; });
    }
  }
}

}  // namespace spnl
