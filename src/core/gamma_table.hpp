// Γ expectation tables with the fine-grained sliding window (paper Sec. IV-B
// and V-A).
//
// Γ_i(u) counts how many vertices already placed into partition P_i have an
// out-edge to u — i.e. exactly |V_i^pt ∩ N_in(u)|, the placed-in-neighbor
// count of u. A full table costs O(K|V|). Because already-placed vertices
// never need their counter again and streaming is in id order, only a window
// of W = ceil(|V|/X) upcoming ids [base, base+W) keeps counters; the window
// slides one vertex at a time (fine-grained, Fig. 5) over a rotating array.
// X = 1 degenerates to the exact full table.
//
// Layout is slot-major (W rows of K counters): reading all K counters of one
// vertex — the hot operation when scoring an arrival — is one contiguous
// cache run, and retiring a slot is one contiguous clear.
//
// A counter is a GammaCount of 16 bits that saturates at kGammaCountMax
// instead of wrapping. Γ_i(u) never exceeds u's in-degree, so the cap binds
// only for a vertex with 65,535 placed in-neighbors in one partition within
// one window span; its decision then falls to the λ term and the weights.
// At K = 32 one row is exactly one 64-byte cache line.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "core/checkpoint.hpp"
#include "graph/types.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

/// One Γ counter: the one place its width is decided.
using GammaCount = std::uint16_t;
inline constexpr GammaCount kGammaCountMax = std::numeric_limits<GammaCount>::max();

/// count + n, clamped at kGammaCountMax: a counter never wraps.
inline GammaCount saturating_add(GammaCount count, std::uint64_t n = 1) {
  return static_cast<GammaCount>(
      std::min<std::uint64_t>(std::uint64_t{count} + n, kGammaCountMax));
}

/// Sliding granularity (Sec. V-A): the paper rejects coarse shard-by-shard
/// sliding because the sharp jump loses boundary-vertex expectations; the
/// coarse mode is kept for the ablation that reproduces this claim.
enum class SlideMode {
  kFine,    ///< slide one vertex at a time (the paper's design)
  kCoarse,  ///< jump a whole shard when the head leaves the current shard
};

class GammaWindow {
 public:
  /// num_shards is the paper's X >= 1. The window size is ceil(n/X),
  /// clamped to at least 1.
  GammaWindow(VertexId num_vertices, PartitionId num_partitions,
              std::uint32_t num_shards, SlideMode mode = SlideMode::kFine);

  /// The paper's recommended shard count X = min{αK, |V|/(βK)} with α=4,
  /// β=10^4 (Sec. VI-B), clamped to >= 1.
  static std::uint32_t recommended_shards(VertexId num_vertices, PartitionId k,
                                          double alpha = 4.0, double beta = 1e4);

  /// Slide the window forward for the arriving vertex `head`. Fine mode
  /// starts the window exactly at `head`; coarse mode keeps the window
  /// aligned to shard boundaries and jumps a whole shard at a time (so
  /// `head`'s own row can be discarded mid-shard — the accuracy loss the
  /// paper describes). Counters of retired ids are discarded; slots that
  /// wrap around to future ids are zeroed. Never moves backwards.
  ///
  /// The fine-mode steady state — every arrival retires exactly one row —
  /// is inlined here so the in-order place() path pays a short clear loop
  /// instead of a cross-TU call + memset. (With W == 1 the single row is the
  /// whole table, so the fast path is still exact.)
  void advance_to(VertexId head) {
    if (mode_ == SlideMode::kFine && head == base_ + 1) {
      GammaCount* row =
          counters_.data() + static_cast<std::size_t>(base_slot_) * num_partitions_;
      for (PartitionId i = 0; i < num_partitions_; ++i) row[i] = 0;
      base_ = head;
      if (++base_slot_ == window_size_) base_slot_ = 0;
      return;
    }
    advance_general(head);
  }

  /// Γ_p(u) += 1 (saturating) if u is inside the window; silently dropped
  /// otherwise — exactly the accuracy/memory trade-off of Fig. 5.
  void increment(PartitionId p, VertexId u) {
    if (contains(u)) increment_at(row_offset(u), p);
  }

  /// Γ_p(u), 0 if outside the window.
  std::uint32_t get(PartitionId p, VertexId u) const {
    return contains(u) ? counters_[row_offset(u) + p] : 0;
  }

  /// All K counters of u as a contiguous span; empty span if outside the
  /// window (callers treat it as all-zeros).
  std::span<const GammaCount> row(VertexId u) const {
    if (!contains(u)) return {};
    return {counters_.data() + static_cast<std::size_t>(slot_of(u)) * num_partitions_,
            num_partitions_};
  }

  bool contains(VertexId u) const {
    return u >= base_ &&
           static_cast<std::uint64_t>(u) <
               static_cast<std::uint64_t>(base_) + window_size_;
  }

  // Raw-row access for the fused scoring kernel (core/score_kernel.hpp): the
  // kernel computes contains() + the slot once per out-neighbor during the
  // scoring pass and reuses the offset for both the kNeighborSum row read
  // and the post-commit increment. Offsets are valid only while the window
  // does not advance (the sequential place() path holds that invariant).

  /// Offset of u's K-counter row in data(); caller must check contains(u).
  /// For an in-window u the ring slot is base_slot_ + (u - base_) wrapped
  /// once at W — an add and a compare instead of slot_of()'s hardware divide
  /// (W is a runtime value, so u % W costs ~20 cycles on the hot path).
  std::size_t row_offset(VertexId u) const {
    std::uint64_t slot = std::uint64_t{base_slot_} + (u - base_);
    if (slot >= window_size_) slot -= window_size_;
    return static_cast<std::size_t>(slot) * num_partitions_;
  }

  const GammaCount* data() const { return counters_.data(); }

  /// Γ_p += 1 (saturating) at a row offset previously obtained from
  /// row_offset().
  void increment_at(std::size_t row_offset, PartitionId p) {
    GammaCount& count = counters_[row_offset + p];
    count = saturating_add(count);
  }

  VertexId base() const { return base_; }
  VertexId window_size() const { return window_size_; }
  std::uint32_t num_shards() const { return num_shards_; }
  SlideMode slide_mode() const { return mode_; }

  /// Resource-governor degradation: shrink the window to `new_window` rows,
  /// keeping the counters of the ids still covered ([base, base+new_window))
  /// and discarding the tail — the same accuracy/memory trade-off as a
  /// larger X, applied mid-stream. The backing storage is reallocated so the
  /// footprint actually drops. No-op when new_window >= current size.
  void shrink_to(VertexId new_window);

  /// Degradation rung 2: switch the slide granularity mid-stream (fine ->
  /// coarse trades boundary-vertex accuracy for cheaper bookkeeping).
  void set_slide_mode(SlideMode mode) { mode_ = mode; }

  std::size_t memory_footprint_bytes() const;

  /// Checkpoint the window (configuration guards + base + counters) /
  /// restore. A snapshot taken after governor degradation (smaller window,
  /// coarse mode) restores into a fresh full-size window by shrinking and
  /// re-moding it first; a snapshot LARGER than the current window is a
  /// configuration mismatch and throws.
  void save(StateWriter& out) const;
  void restore(StateReader& in);

 private:
  VertexId slot_of(VertexId u) const { return u % window_size_; }

  /// Multi-step / coarse-mode slide: at most two contiguous memset ranges.
  void advance_general(VertexId head);

  VertexId num_vertices_;
  PartitionId num_partitions_;
  std::uint32_t num_shards_;
  SlideMode mode_;
  VertexId window_size_;
  VertexId base_ = 0;
  /// slot_of(base_), maintained by advance_to/restore so row_offset() never
  /// divides.
  VertexId base_slot_ = 0;
  ZeroedArray<GammaCount> counters_;  // window_size_ x num_partitions_
};

}  // namespace spnl
