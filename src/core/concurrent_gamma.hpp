// Thread-safe variant of GammaWindow for the parallel driver (Sec. V-B).
//
// Counter increments and reads are lock-free relaxed atomics — the paper
// explicitly tolerates heuristic noise from concurrent access (quality
// degradation bounded by the RCT optimization, Table V discussion). Window
// advancement (slot retirement) is serialized, but the hot path never waits
// for it: advance_to() publishes the requested head with a wait-free
// fetch-max CAS and only the worker that wins a try_lock performs the slide;
// losers return immediately and the winner re-checks the pending head after
// each pass so no request is stranded (bounded staleness of one commit,
// heuristic-only — termination never depends on the slide).
//
// Epoch-local Γ deltas: instead of fetch_add-ing the shared counter array
// per neighbor (a cache-line ping-pong between workers placing ids with
// colliding slots), each worker accumulates increments into a private
// GammaDeltaBuffer and publishes it as one merge — at epoch boundaries, when
// the buffer fills, and at every pipeline quiesce (in worker-index order, so
// merges are deterministic and checkpoints carry the full counts). Reads add
// the reader's OWN buffered row on top of the shared counters
// (read-your-own-writes); other workers' unpublished rows are invisible
// until their merge, the same bounded heuristic staleness as above. At M=1
// "shared + own delta" equals the eager total exactly (uint32 sums, exact in
// double), so routes stay byte-identical to the sequential oracle. Publish
// drops rows whose id retired from the window before the merge — eager
// increments to such ids would have been cleared by the slide anyway, so
// dropping preserves byte-identity; the read path filters by contains() for
// the same reason.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "graph/types.hpp"
#include "util/perf_stats.hpp"

namespace spnl {

/// Per-worker epoch-local Γ increment buffer: a small open-addressed table
/// keyed by vertex id, one row of K counts per id. Single-owner (no
/// synchronization) — the owning worker accumulates and reads it, and merges
/// it into the shared window via ConcurrentGammaWindow::publish().
class GammaDeltaBuffer {
 public:
  /// `rows` is the target number of distinct ids held between publishes;
  /// the table keeps load factor <= 1/2 so probes stay short.
  GammaDeltaBuffer(PartitionId num_partitions, std::size_t rows);

  /// Accumulate `run` into row (u, p). Returns false — without accumulating —
  /// when the buffer is at its load limit and u has no row yet; the caller
  /// publishes and retries (an empty buffer always accepts).
  bool add(PartitionId p, VertexId u, std::uint32_t run) {
    std::size_t idx = home(u);
    for (VertexId id; (id = ids_[idx]) != u; idx = (idx + 1) & mask_) {
      if (id != kInvalidVertex) continue;
      if (slots_.size() >= limit_) return false;
      ids_[idx] = u;
      slots_.push_back(idx);
      break;
    }
    std::uint32_t& count = counts_[idx * k_ + p];
    if (count == 0) cells_.push_back({idx, p});
    count += run;
    return true;
  }

  /// The K buffered counts for u, or nullptr if u has no row. Valid until
  /// the next add() or publish.
  const std::uint32_t* row(VertexId u) const {
    std::size_t idx = home(u);
    while (true) {
      const VertexId id = ids_[idx];
      if (id == u) return counts_.data() + idx * k_;
      if (id == kInvalidVertex) return nullptr;
      idx = (idx + 1) & mask_;
    }
  }

  bool empty() const { return slots_.empty(); }

 private:
  friend class ConcurrentGammaWindow;

  std::size_t home(VertexId u) const {
    // splitmix64 finalizer — same mixer the RCT shards use for probe homes.
    std::uint64_t x = static_cast<std::uint64_t>(u) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31)) & mask_;
  }

  struct Cell {
    std::size_t slot = 0;
    PartitionId part = 0;
  };

  PartitionId k_;
  std::size_t mask_;
  std::size_t limit_;
  std::vector<VertexId> ids_;          // kInvalidVertex = empty slot
  std::vector<std::uint32_t> counts_;  // slot-major, K per slot; 0 when unused
  // Occupied slots and non-zero cells in first-touch order, so a publish
  // walks only what was buffered instead of every slot and partition.
  std::vector<std::size_t> slots_;
  std::vector<Cell> cells_;
  std::vector<std::size_t> dest_;      // publish scratch: slot -> shared row
};

class ConcurrentGammaWindow {
 public:
  ConcurrentGammaWindow(VertexId num_vertices, PartitionId num_partitions,
                        std::uint32_t num_shards);

  /// Monotone forward slide; thread-safe and non-blocking: publishes the
  /// head wait-free, then slides only if the serializing try_lock is won
  /// (contended cedes are counted, never waited on).
  void advance_to(VertexId head, PerfStats* perf = nullptr);

  void increment(PartitionId p, VertexId u) { increment_many(p, {&u, 1}); }

  /// Batched per-record increments for the parallel commit path: one base
  /// load for the whole neighbor list instead of one per neighbor, and
  /// consecutive duplicate neighbors (multigraph edges arrive sorted from
  /// the loaders) coalesced into one add of the run length. Semantically
  /// identical to calling increment() per neighbor: slot_of is
  /// base-independent (u mod W), so an increment racing a concurrent slide
  /// lands on the same slot either way — the same benign heuristic race the
  /// class header documents. With a `delta` buffer the adds accumulate there
  /// instead of in the shared counters; a full buffer is published inline
  /// and the add retried, so no increment is ever lost.
  void increment_many(PartitionId p, std::span<const VertexId> out,
                      GammaDeltaBuffer* delta = nullptr, PerfStats* perf = nullptr) {
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
      if (delta == nullptr) {
        counters_[static_cast<std::size_t>(slot_of(u)) * num_partitions_ + p].fetch_add(
            run, std::memory_order_relaxed);
      } else if (!delta->add(p, u, run)) {
        publish(*delta, perf);
        delta->add(p, u, run);  // empty buffer always accepts
      }
    }
  }

  /// Merge a delta buffer into the shared counters and clear it. Rows whose
  /// id has left the window are dropped (counted), preserving byte-identity
  /// with the eager path — those increments would have been erased by the
  /// slide. Lock-free (per-cell fetch_add); deterministic merges come from
  /// the CALLER's ordering discipline (the driver drains buffers in
  /// worker-index order at quiesce points).
  void publish(GammaDeltaBuffer& delta, PerfStats* perf = nullptr);

  /// u's row of K counters, or nullptr when u is outside the window. One
  /// base load and one modulo serve all K reads of the row.
  const std::atomic<std::uint32_t>* row(VertexId u) const {
    if (!contains(u)) return nullptr;
    return counters_.get() + static_cast<std::size_t>(slot_of(u)) * num_partitions_;
  }

  std::uint32_t get(PartitionId p, VertexId u) const {
    const std::atomic<std::uint32_t>* r = row(u);
    return r == nullptr ? 0 : r[p].load(std::memory_order_relaxed);
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
  /// backing array is REALLOCATED — callers must have quiesced every
  /// reader/writer first (the parallel driver holds its pipeline-wide
  /// exclusive lock, the same discipline save() documents).
  void shrink_to(VertexId new_window);

  std::size_t memory_footprint_bytes() const {
    return static_cast<std::size_t>(window_size_) * num_partitions_ *
           sizeof(std::atomic<std::uint32_t>);
  }

  /// Checkpoint support. Callers must quiesce all writers first AND drain
  /// every delta buffer (the parallel driver publishes all buffers under its
  /// pipeline-wide exclusive lock before snapshotting), so the on-disk
  /// format is unchanged and carries the full counts.
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

  PartitionId num_partitions_;
  VertexId window_size_;
  std::uint64_t mod_magic_;  // mod_magic(window_size_)
  std::atomic<VertexId> base_{0};
  /// Highest head any worker has requested; the slide lags it by at most one
  /// commit. Monotone via CAS fetch-max.
  std::atomic<VertexId> pending_head_{0};
  std::mutex advance_mutex_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> counters_;
};

}  // namespace spnl
