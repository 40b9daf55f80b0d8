// Completion low-watermark of the parallel driver (core/parallel_driver.cpp):
// the first vertex id not yet placed. The concurrent Γ window's base follows
// it, so a record the RCT delays keeps its Γ row while it waits.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/parallel_driver.hpp"
#include "graph/types.hpp"

namespace spnl {

/// mark() sets an id's flag in a ring; advance() moves the watermark over
/// the run of set flags it reaches with one CAS, whose winner retires those
/// slots — nobody blocks. The ring spans the ids in flight, but a parked
/// record can wait far longer (a cyclic park waits for the end of the
/// stream): once the ids placed after it wrap the ring, a later id's mark
/// stands in for its own and the watermark moves past it. With every slot
/// set a scan would never end, so it stops after one lap and retires the
/// whole ring; the marks that lap drops hold the watermark back by at most
/// one ring. Either way only the Γ slide jumps or lags, never the pipeline:
/// quiesce and termination are driven by the placement count.
class WatermarkTracker {
 public:
  explicit WatermarkTracker(std::size_t span)
      : mask_(kSpread * std::bit_ceil(std::max<std::size_t>(span, 1)) - 1),
        flags_(mask_ + 1) {}  // value-initialized: all clear

  /// Marks id placed. The caller must call advance() after it.
  void mark(VertexId id) { flags_[slot(id)].store(1, std::memory_order_relaxed); }
  std::size_t memory_footprint_bytes() const { return flags_.size(); }
  /// Ids the ring tells apart: at least the span it was built for.
  std::size_t ring_ids() const { return (mask_ + 1) / kSpread; }

  /// Moves the watermark past every marked id it reaches, at most one lap
  /// of the ring per scan. Returns the new watermark (first unplaced id)
  /// when this call moved it, else 0 — a moved watermark is never 0.
  VertexId advance() {
    // Dekker handshake with concurrent callers: either this call reads a
    // watermark that already passed our marks, or the caller that moves it
    // there sees them. The seq_cst fences on both sides order the two.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    VertexId w = watermark_.load(std::memory_order_relaxed);
    VertexId moved = 0;
    for (;;) {
      const VertexId lap = w + static_cast<VertexId>(ring_ids());
      VertexId end = w;
      while (end != lap && flags_[slot(end)].load(std::memory_order_relaxed) != 0) ++end;
      if (end == w) return moved;
      if (watermark_.compare_exchange_strong(w, end, std::memory_order_relaxed)) {
        // The winner owns the retirement of [w, end).
        for (; w < end; ++w) flags_[slot(w)].store(0, std::memory_order_relaxed);
        moved = end;
      }
      // On failure w was reloaded by the CAS; rescan from there.
    }
  }

 private:
  /// Each run of kParallelClaimRecords consecutive ids — one claim of an
  /// id-ordered stream — gets a cache line of flags to itself, so workers
  /// marking neighbouring claims do not share lines. No divides.
  static constexpr std::size_t kSpread = 64 / kParallelClaimRecords;
  std::size_t slot(VertexId id) const {
    constexpr std::size_t kLow = kParallelClaimRecords - 1;
    return ((static_cast<std::size_t>(id & ~kLow) * kSpread) | (id & kLow)) & mask_;
  }

  const std::size_t mask_;
  std::vector<std::atomic<std::uint8_t>> flags_;
  std::atomic<VertexId> watermark_{0};
};

}  // namespace spnl
