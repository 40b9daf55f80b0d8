// RCT — hash-based Reversed-Counting Table for dependency detection among
// concurrently streamed vertices (paper Sec. V-B, Fig. 6).
//
// Every in-flight vertex (claimed by a worker, not yet placed) is
// registered with a dependency counter. While a worker traverses
// N_out(v) to compute v's distribution score — a traversal it performs
// anyway — it bumps the counter of every out-neighbor that is itself in
// flight: those neighbors would see a richer Γ row if v were placed first.
// A vertex whose own counter exceeds the threshold (the mean of the non-zero
// counters, the paper's default) is parked; placing a vertex decrements its
// in-flight out-neighbors' counters and releases parked vertices that reach
// zero. Capacity is ε·M entries (M = worker count): when the table is full,
// registration fails and the vertex simply proceeds untracked (counted in
// untracked_overflow() so silent degradation is observable).
//
// Concurrency: the table is striped into `num_shards` shards (pass
// recommended_shards(M) = next_pow2(M) from the parallel driver). A vertex
// lives in shard v mod S; each shard is a cache-line-aligned open-addressed
// flat table (linear probing, backward-shift deletion) behind a
// shared_mutex. The per-record operations (register, bump, count,
// should_delay, decrement) take the shard lock SHARED and mutate slots with
// atomics: registration claims an empty slot with a CAS on the id, bumps are
// fetch_adds, decrements are CAS loops that never go below zero. The
// exclusive side is reserved for structural mutation (growth, erase +
// backward-shift, park/unpark, drain), so shared-side probes are stable.
// Read-only walks (snapshot, footprint) and the refusal checks of park and
// drain run under the shared lock.
//
//  Untracked fast path: once the table is full most records are refused,
//  and they must not pay for it. A full table refuses on a plain load of
//  the entry count. Each shard keeps a presence filter —
//  per-bucket entry counts, raised before an entry becomes findable and
//  lowered after its erase — so a zero bucket proves an id untracked to
//  any thread ordered after its registration (its registrant or an
//  unparker): bump, decrement and on_placed of such an id take no lock, and
//  a racing registration linearizes after them. on_placed takes the
//  exclusive lock only after a shared probe has found a real entry.
//
//  Counter-accounting exactness: a 0→nonzero transition is observed by
//  exactly one fetch_add (the one whose previous value was 0) and a
//  nonzero→0 transition by exactly one CAS (the one that installed 0), so nonzero_sum_/nonzero_count_ stay exact under concurrency. Erase
//  runs under the exclusive lock, which excludes all shared-side bumps and
//  decrements on that shard, so the residual counter it subtracts cannot
//  change mid-erase.
//
//  Lock nesting: at most one shard lock is ever held, and never shared and
//  exclusive on the same shard simultaneously. The lock-free claim and the
//  1→0 unpark handoff both RELEASE the shared lock before taking the
//  exclusive one (upgrading in place would self-deadlock on shared_mutex)
//  and re-validate the slot after reacquisition — see register_vertex and
//  on_placed for the audit notes.
//
//  Out of contract: concurrently registering the SAME vertex id from two
//  threads. The driver registers each vertex exactly once, from the worker
//  that popped it; duplicate registration is only detected sequentially.
//
// The delay threshold is maintained as relaxed atomics of the global
// non-zero counter sum and count, so mean_nonzero_count() is O(1) and
// lock-free. Exclusive shard acquisitions (total and contended) are counted
// in always-on relaxed atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "graph/types.hpp"

namespace spnl {

class Rct {
 public:
  /// `capacity` bounds the total tracked entries (clamped to >= 1).
  /// Admission is global — a lock-free ticket against the total — never
  /// per shard: with ε·M ≈ 2·next_pow2(M) a per-shard bound degenerates to
  /// 2 entries per shard and refuses registrations while the table is
  /// nearly empty (the M=4 overflow spike documented in
  /// docs/performance.md). Shard tables grow on demand, so capacity only
  /// caps the count, not the distribution.
  explicit Rct(std::size_t capacity, std::uint32_t num_shards = 1);

  /// Shard count matched to the worker count: the smallest power of two
  /// >= num_threads, so the stripe mask is a single AND.
  static std::uint32_t recommended_shards(unsigned num_threads);

  /// Track v as in-flight. Returns false (vertex proceeds untracked) when
  /// the table is full or v is somehow already present.
  bool register_vertex(VertexId v);

  /// Bump u's counter if u is in flight; no-op otherwise. O(1).
  void bump_if_present(VertexId u);

  /// v's own dependency counter (0 if untracked).
  std::uint32_t count(VertexId v) const;

  /// Mean of the non-zero counters; 0 when all counters are zero. This is
  /// the paper's default delay threshold. Lock-free: the sum and count are
  /// read as two relaxed loads, so a concurrent transition can skew one
  /// reading transiently — acceptable for a delay heuristic, and exact
  /// whenever no bump/place is in flight (e.g. single-worker runs).
  double mean_nonzero_count() const;

  /// True if v should be delayed: tracked, counter non-zero, and counter
  /// strictly greater than the mean-of-non-zero threshold is NOT required —
  /// the paper delays "heavy" conflicts, so we use counter >= max(1, mean).
  bool should_delay(VertexId v) const;

  /// Park a copy of the (tracked) record until its counter drains, so the
  /// caller's storage can be reused at once. Returns false if the parked set
  /// is at capacity (globally), the vertex is untracked, or its counter has
  /// already drained to zero — in that case nothing is kept and the caller
  /// must place the record immediately.
  bool park(const VertexRecord& record);

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
  /// Capacity limits are bypassed (shard tables grow as needed) so a
  /// checkpoint taken with more workers than the resuming run restores
  /// losslessly.
  void restore_parked(std::vector<ParkedState> parked);

  std::size_t capacity() const { return capacity_; }
  std::uint32_t num_shards() const { return static_cast<std::uint32_t>(shards_.size()); }
  std::size_t size() const { return entry_count_.load(std::memory_order_relaxed); }

  /// O(1) and lock-free — the parallel driver's quiesce spin polls this.
  std::size_t parked_size() const {
    return parked_count_.load(std::memory_order_relaxed);
  }

  /// Registrations refused because the owning shard was full. Each one is a
  /// vertex that streamed through untracked (no dependency delay), i.e. a
  /// silent quality degradation worth surfacing in run results.
  std::uint64_t untracked_overflow() const {
    return untracked_overflow_.load(std::memory_order_relaxed);
  }

  /// Always-on contention tallies (relaxed atomics; exact totals after the
  /// pipeline joins). exclusive_acquires is deterministic for a given
  /// operation sequence: only the structural slow paths (growth, erase,
  /// park/unpark, drain) lock exclusively, regardless of how many cores
  /// actually contend.
  std::uint64_t exclusive_contended() const {
    return exclusive_contended_.load(std::memory_order_relaxed);
  }
  std::uint64_t exclusive_acquires() const {
    return exclusive_acquires_.load(std::memory_order_relaxed);
  }

  /// Approximate bytes held by the tables and parked records — part of the
  /// parallel driver's governor-sampled footprint.
  std::size_t memory_footprint_bytes() const;

 private:
  /// Slot fields are atomics so registration, bumps and decrements can run
  /// under the SHARED lock; `parked` is a plain bool because it is only
  /// written under the exclusive lock (shared holders may read it — writer
  /// exclusion makes that race-free). Invariant: an empty slot
  /// (id == kInvalidVertex) always has counter == 0 and parked == false, so
  /// a freshly claimed slot needs no counter initialization.
  struct Slot {
    std::atomic<VertexId> id{kInvalidVertex};
    std::atomic<std::uint32_t> counter{0};
    bool parked = false;
  };

  static constexpr std::size_t kFilterBuckets = 64;
  // Cache-line aligned so two shards' mutexes never share a line (the whole
  // point of striping is that workers on different shards do not ping-pong).
  struct alignas(64) Shard {
    /// Presence filter (see the file header): entries per id-hash bucket.
    /// On lines of its own — only registrations and erasures write it.
    mutable std::array<std::atomic<std::uint32_t>, kFilterBuckets> filter{};
    mutable std::shared_mutex mutex;
    std::unique_ptr<Slot[]> table;  // power-of-two open-addressed flat table
    std::size_t table_size = 0;
    std::size_t table_mask = 0;
    /// Atomic because lock-free claims increment it under the shared lock.
    std::atomic<std::size_t> entries{0};
    std::vector<OwnedVertexRecord> parked;  // tiny: linear search by id
  };

  /// RAII shard guard, shared or exclusive. Contended acquisitions are
  /// detected with a try_lock-first pattern and tallied.
  class Guard;

  Shard& shard_of(VertexId v) { return shards_[v & shard_mask_]; }
  const Shard& shard_of(VertexId v) const { return shards_[v & shard_mask_]; }

  static std::size_t probe_home(const Shard& shard, VertexId v);
  static std::atomic<std::uint32_t>& filter_of(const Shard& shard, VertexId v);
  /// False proves v untracked; true means "take the lock and look".
  bool maybe_tracked(VertexId v) const {
    return filter_of(shard_of(v), v).load(std::memory_order_relaxed) != 0;
  }
  /// Index of v's slot, or table_size if absent. Caller holds the shard lock
  /// (shared suffices: probe chains only change under exclusive).
  static std::size_t find_locked(const Shard& shard, VertexId v);
  /// Inserts v (must be absent); grows the table when past half full.
  /// Returns the slot index. Caller holds the shard lock EXCLUSIVE.
  std::size_t insert_locked(Shard& shard, VertexId v);
  /// Backward-shift deletion at `hole`. Caller holds the lock EXCLUSIVE.
  static void erase_locked(Shard& shard, std::size_t hole);
  static void grow_locked(Shard& shard);
  static void alloc_table(Shard& shard, std::size_t size);

  /// Slow path of register_vertex: exclusive insert with growth, used when
  /// the lock-free claim runs out of room.
  bool register_exclusive(VertexId v);

  const std::size_t capacity_;
  std::size_t shard_capacity_ = 0;  // initial table-sizing hint only
  std::uint32_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> nonzero_sum_{0};
  std::atomic<std::uint32_t> nonzero_count_{0};
  std::atomic<std::size_t> entry_count_{0};
  std::atomic<std::size_t> parked_count_{0};
  // Own line: every refusal writes it, every registration reads entry_count_.
  alignas(64) std::atomic<std::uint64_t> untracked_overflow_{0};
  // mutable: the shard guard tallies through a const table.
  alignas(64) mutable std::atomic<std::uint64_t> exclusive_contended_{0};
  mutable std::atomic<std::uint64_t> exclusive_acquires_{0};
};

}  // namespace spnl
