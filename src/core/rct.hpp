// RCT — the Reversed-Counting Table for dependency detection among
// concurrently streamed vertices (paper Sec. V-B, Fig. 6), in the paper's
// form: ε·M entries in one flat array behind one mutex.
//
// Every in-flight vertex (claimed by a worker, not yet placed) is registered
// with a dependency counter. While a worker traverses N_out(v) to compute
// v's distribution score — a traversal it performs anyway — it bumps the
// counter of every out-neighbor that is itself in flight: those neighbors
// would see a richer Γ row if v were placed first. A vertex whose counter
// reaches the threshold (the mean of the non-zero counters, the paper's
// default) is parked; placing a vertex decrements its in-flight
// out-neighbors' counters and releases parked vertices that reach zero.
// Capacity is ε·M entries (M = worker count): when the table is full,
// registration fails and the vertex proceeds untracked (counted in
// untracked_overflow() so the degradation is observable).
//
// A record takes the mutex once per operation: register, the bumps of its
// whole out-list, the delay/park decision, on_placed. The table holds a
// handful of entries, so every lookup is a linear scan.
//
// The parallel driver runs without the table by default
// (ParallelOptions::use_rct): on a 4-core host it bought no ECR, and its one
// mutex serializes the workers (docs/performance.md §5.1). It is kept for
// that ablation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "graph/types.hpp"

namespace spnl {

class Rct {
 public:
  /// `capacity` bounds the tracked entries (clamped to >= 1).
  explicit Rct(std::size_t capacity);

  /// Track v as in-flight. Returns false (vertex proceeds untracked) when
  /// the table is full or v is already present.
  bool register_vertex(VertexId v);

  /// Bumps the counter of every in-flight id in `out` other than `self`.
  void bump_out_neighbors(VertexId self, std::span<const VertexId> out);
  void bump_if_present(VertexId u) { bump_out_neighbors(kInvalidVertex, {&u, 1}); }

  /// v's own dependency counter (0 if untracked).
  std::uint32_t count(VertexId v) const;

  /// Mean of the non-zero counters; 0 when all counters are zero. This is
  /// the paper's default delay threshold.
  double mean_nonzero_count() const;

  /// True if v should be delayed: tracked, and its counter is at least
  /// max(1, mean of the non-zero counters) — the paper delays "heavy"
  /// conflicts.
  bool should_delay(VertexId v) const;

  /// Park a copy of the (tracked) record until its counter drains, so the
  /// caller's storage can be reused at once. Returns false if the vertex is
  /// untracked, already parked, or its counter has already drained to zero
  /// — then nothing is kept and the caller must place the record now.
  bool park(const VertexRecord& record);

  /// should_delay and park as one operation.
  bool park_if_delayed(const VertexRecord& record);

  /// Finalize v: untrack it and decrement in-flight out-neighbors' counters.
  /// Parked records whose counter reached zero are returned for immediate
  /// placement by the caller (their entries stay tracked at counter 0 until
  /// their own on_placed).
  std::vector<OwnedVertexRecord> on_placed(VertexId v, std::span<const VertexId> out);

  /// End of stream: hand back whatever is still parked (sorted by id so the
  /// forced tail is placed in stream order).
  std::vector<OwnedVertexRecord> drain_parked();

  /// One parked vertex's full state for checkpointing: the record plus its
  /// live dependency counter (counters of parked vertices only drain when
  /// their still-parked in-neighbors are placed, so they must survive a
  /// resume).
  struct ParkedState {
    VertexId id = kInvalidVertex;
    std::uint32_t counter = 0;
    std::vector<VertexId> out;
  };

  /// Snapshot of the parked set, sorted by id. At a quiesce point (no record
  /// in flight) the parked set IS the table's entire state: every non-parked
  /// registered vertex has been placed and erased.
  std::vector<ParkedState> snapshot_parked() const;

  /// Rebuilds the parked set (entries, counters, records) from a snapshot.
  /// The table must be empty (fresh) — throws std::logic_error otherwise.
  /// The capacity is not enforced, so a checkpoint taken with more workers
  /// than the resuming run restores losslessly.
  void restore_parked(std::vector<ParkedState> parked);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::size_t parked_size() const;

  /// Registrations refused because the table was full. Each one is a vertex
  /// that streamed through untracked (no dependency delay).
  std::uint64_t untracked_overflow() const;

  /// Mutex acquisitions by the table's operations (queries excluded), and
  /// how many of them found it held (a failed try_lock).
  std::uint64_t exclusive_acquires() const;
  std::uint64_t exclusive_contended() const;

  /// Approximate bytes held by the table and the parked records — part of
  /// the parallel driver's governor-sampled footprint.
  std::size_t memory_footprint_bytes() const;

 private:
  struct Entry {
    VertexId id = kInvalidVertex;
    std::uint32_t counter = 0;
    bool parked = false;
    std::vector<VertexId> out;  // the parked record's copy
  };

  /// Locks the mutex for an operation and tallies the acquisition.
  std::unique_lock<std::mutex> lock();
  Entry* find(VertexId v);
  const Entry* find(VertexId v) const;
  double mean_locked() const;
  bool delayed(const Entry& entry) const;
  bool park(Entry* entry, const VertexRecord& record);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t untracked_overflow_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t contended_ = 0;
};

}  // namespace spnl
