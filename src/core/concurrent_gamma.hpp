// Thread-safe variant of GammaWindow for the parallel driver (Sec. V-B).
//
// Counter increments and reads are lock-free relaxed atomics — the paper
// explicitly tolerates heuristic noise from concurrent access (quality
// degradation bounded by the RCT optimization, Table V discussion). Window
// advancement never waits either: advance_to() raises the base with a
// fetch-max CAS, and the winner clears the rows of exactly the ids it moved
// the base past. A reader or increment racing that clear may see, or leave,
// one stale count in a retiring row — heuristic noise only; termination never
// depends on the slide.
//
// Every worker increments the shared counters eagerly on commit
// (increment_many), so a placement is visible to the next record any worker
// scores.
//
// The counters are plain GammaCount (16 bits, saturating; see
// core/gamma_table.hpp) in a ZeroedArray, every concurrent access going
// through std::atomic_ref: the kernel zeroes the table on first touch, so
// construction runs no pass over it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/checkpoint.hpp"
#include "core/gamma_table.hpp"
#include "graph/types.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

class ConcurrentGammaWindow {
 public:
  ConcurrentGammaWindow(VertexId num_vertices, PartitionId num_partitions,
                        std::uint32_t num_shards);

  /// Monotone forward slide; thread-safe and lock-free against other
  /// slides, increments and reads (a head at or below the current base is
  /// ignored). It writes through the counter array, so it must not overlap
  /// shrink_to, save or restore.
  void advance_to(VertexId head);

  void increment(PartitionId p, VertexId u) { increment_many(p, {&u, 1}); }

  /// Batched per-record increments for the parallel commit path: one base
  /// load for the whole neighbor list instead of one per neighbor, and
  /// consecutive duplicate neighbors (multigraph edges arrive sorted from
  /// the loaders) coalesced into one saturating add of the run length.
  /// Semantically identical to calling increment() per neighbor: slot_of is
  /// base-independent (u mod W), so an increment racing a concurrent slide
  /// lands on the same slot either way — the same benign heuristic race the
  /// class header documents.
  void increment_many(PartitionId p, std::span<const VertexId> out) {
    const VertexId b = base_.load(std::memory_order_relaxed);
    const VertexId w = window_size_;
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n;) {
      const VertexId u = out[i];
      std::uint32_t run = 1;
      while (i + run < n && out[i + run] == u) ++run;
      i += run;
      if (u < b || static_cast<std::uint64_t>(u) >= static_cast<std::uint64_t>(b) + w) {
        continue;
      }
      add_saturating(counters_[static_cast<std::size_t>(slot_of(u)) * num_partitions_ + p],
                     run);
    }
  }

  /// u's row of K counters, or nullptr when u is outside the window. One
  /// base load and one modulo serve all K reads of the row. Read its
  /// counters with load().
  const GammaCount* row(VertexId u) const {
    if (!contains(u)) return nullptr;
    return counters_.data() + static_cast<std::size_t>(slot_of(u)) * num_partitions_;
  }

  /// Relaxed atomic read of counter i of a row() result.
  static GammaCount load(const GammaCount* row, std::size_t i) {
    // atomic_ref wants a mutable referent even to load; the counter itself
    // is a non-const object of the table.
    return std::atomic_ref(const_cast<GammaCount&>(row[i]))
        .load(std::memory_order_relaxed);
  }

  std::uint32_t get(PartitionId p, VertexId u) const {
    const GammaCount* r = row(u);
    return r == nullptr ? 0 : load(r, p);
  }

  bool contains(VertexId u) const {
    const VertexId b = base_.load(std::memory_order_relaxed);
    return u >= b &&
           static_cast<std::uint64_t>(u) < static_cast<std::uint64_t>(b) + window_size_;
  }

  VertexId window_size() const { return window_size_; }
  VertexId base() const { return base_.load(std::memory_order_relaxed); }
  PartitionId num_partitions() const { return num_partitions_; }

  /// Resource-governor degradation: shrink to `new_window` rows, keeping the
  /// covered ids' counters and releasing the rest of the storage. The
  /// backing table is REALLOCATED — callers must have quiesced every
  /// reader/writer first (the parallel driver holds its pipeline-wide
  /// exclusive lock, the same discipline save() documents).
  void shrink_to(VertexId new_window);

  std::size_t memory_footprint_bytes() const { return counters_.bytes(); }

  /// Checkpoint support. Callers must quiesce all writers first.
  void save(StateWriter& out) const;
  void restore(StateReader& in);

 private:
  /// u mod W by Lemire's fastmod — two multiplies instead of a divide, and
  /// this runs for every Γ row touched.
  VertexId slot_of(VertexId u) const {
    return static_cast<VertexId>(
        (static_cast<unsigned __int128>(mod_magic_ * u) * window_size_) >> 64);
  }
  static std::uint64_t mod_magic(VertexId w) { return ~std::uint64_t{0} / w + 1; }

  /// counter += n, clamped at kGammaCountMax by a relaxed CAS loop: two
  /// racing adds near the cap cannot wrap it, and a saturated counter is
  /// left alone without a write.
  static void add_saturating(GammaCount& counter, std::uint32_t n) {
    std::atomic_ref<GammaCount> ref(counter);
    GammaCount seen = ref.load(std::memory_order_relaxed);
    while (seen != kGammaCountMax &&
           !ref.compare_exchange_weak(seen, saturating_add(seen, n),
                                      std::memory_order_relaxed)) {
    }
  }

  PartitionId num_partitions_;
  VertexId window_size_;
  std::uint64_t mod_magic_;  // mod_magic(window_size_)
  std::atomic<VertexId> base_{0};
  ZeroedArray<GammaCount> counters_;  // window_size_ x num_partitions_
};

}  // namespace spnl
