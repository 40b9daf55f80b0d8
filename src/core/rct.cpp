#include "core/rct.hpp"

#include <algorithm>
#include <stdexcept>

namespace spnl {

namespace {

/// splitmix64 finalizer: vertex ids are dense and sequential, so the probe
/// start must be decorrelated from the shard stripe (v mod S) or every id in
/// a shard would land on the same few slots.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t next_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

/// RAII shard guard (see rct.hpp). try_lock-first detects exclusive
/// contention without a clock; the shared side acquires the same way.
class Rct::Guard {
 public:
  Guard(const Rct& rct, const Shard& shard, bool exclusive)
      : shard_(shard), exclusive_(exclusive) {
    if (exclusive_) {
      rct.exclusive_acquires_.fetch_add(1, std::memory_order_relaxed);
      if (!shard_.mutex.try_lock()) {
        rct.exclusive_contended_.fetch_add(1, std::memory_order_relaxed);
        shard_.mutex.lock();
      }
    } else {
      if (!shard_.mutex.try_lock_shared()) shard_.mutex.lock_shared();
    }
  }

  ~Guard() {
    if (exclusive_) {
      shard_.mutex.unlock();
    } else {
      shard_.mutex.unlock_shared();
    }
  }

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  const Shard& shard_;
  const bool exclusive_;
};

std::uint32_t Rct::recommended_shards(unsigned num_threads) {
  return static_cast<std::uint32_t>(next_pow2(num_threads ? num_threads : 1));
}

Rct::Rct(std::size_t capacity, std::uint32_t num_shards)
    : capacity_(capacity ? capacity : 1) {
  const std::size_t shards = next_pow2(num_shards ? num_shards : 1);
  shard_mask_ = static_cast<std::uint32_t>(shards - 1);
  shard_capacity_ = (capacity_ + shards - 1) / shards;
  shards_ = std::vector<Shard>(shards);
  // Half-load room for its share of the capacity, and for one registration
  // per shard's worth of workers at once: every worker may be registering
  // into the same shard, and a table that starts smaller than that grows
  // (under the exclusive lock) on the first such burst.
  const std::size_t table_size =
      next_pow2(std::max<std::size_t>(2 * std::max(shard_capacity_, shards), 4));
  for (Shard& shard : shards_) {
    alloc_table(shard, table_size);
    shard.parked.reserve(shard_capacity_);
  }
}

void Rct::alloc_table(Shard& shard, std::size_t size) {
  shard.table = std::make_unique<Slot[]>(size);  // value-init: empty slots
  shard.table_size = size;
  shard.table_mask = size - 1;
}

std::size_t Rct::probe_home(const Shard& shard, VertexId v) {
  return static_cast<std::size_t>(mix64(v)) & shard.table_mask;
}

std::atomic<std::uint32_t>& Rct::filter_of(const Shard& shard, VertexId v) {
  return shard.filter[(mix64(v) >> 32) & (kFilterBuckets - 1)];
}

std::size_t Rct::find_locked(const Shard& shard, VertexId v) {
  // Probe chains only change under the exclusive lock (erase/grow), so a
  // shared holder's walk is stable. The acquire load pairs with the claim
  // CAS's release so a freshly claimed id is seen fully initialized (an
  // empty slot's counter is 0 by invariant, so there is nothing else to
  // see). The probe count is bounded defensively: a transiently full table
  // (concurrent claims overshooting the load limit on a tiny table) must
  // terminate as "absent" instead of spinning.
  std::size_t i = probe_home(shard, v);
  for (std::size_t probes = 0; probes < shard.table_size; ++probes) {
    const VertexId id = shard.table[i].id.load(std::memory_order_acquire);
    if (id == kInvalidVertex) return shard.table_size;
    if (id == v) return i;
    i = (i + 1) & shard.table_mask;
  }
  return shard.table_size;
}

void Rct::grow_locked(Shard& shard) {
  const std::size_t old_size = shard.table_size;
  std::unique_ptr<Slot[]> old = std::move(shard.table);
  alloc_table(shard, old_size * 2);
  for (std::size_t s = 0; s < old_size; ++s) {
    const VertexId id = old[s].id.load(std::memory_order_relaxed);
    if (id == kInvalidVertex) continue;
    std::size_t i = probe_home(shard, id);
    while (shard.table[i].id.load(std::memory_order_relaxed) != kInvalidVertex) {
      i = (i + 1) & shard.table_mask;
    }
    shard.table[i].id.store(id, std::memory_order_relaxed);
    shard.table[i].counter.store(old[s].counter.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
    shard.table[i].parked = old[s].parked;
  }
}

std::size_t Rct::insert_locked(Shard& shard, VertexId v) {
  // Keep the load factor <= 1/2 so probes stay short. Plain relaxed stores:
  // the caller holds the lock exclusively, and the mutex release publishes
  // the writes to every later shared holder.
  if (2 * (shard.entries.load(std::memory_order_relaxed) + 1) > shard.table_size) {
    grow_locked(shard);
  }
  std::size_t i = probe_home(shard, v);
  while (shard.table[i].id.load(std::memory_order_relaxed) != kInvalidVertex) {
    i = (i + 1) & shard.table_mask;
  }
  filter_of(shard, v).fetch_add(1, std::memory_order_relaxed);
  shard.table[i].id.store(v, std::memory_order_relaxed);
  shard.table[i].counter.store(0, std::memory_order_relaxed);
  shard.table[i].parked = false;
  shard.entries.fetch_add(1, std::memory_order_relaxed);
  return i;
}

void Rct::erase_locked(Shard& shard, std::size_t hole) {
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back any slot whose home position precedes the hole in probe order, so
  // lookups never need tombstones. Exclusive lock held: no concurrent probe
  // can observe the chain mid-rewrite.
  std::size_t i = hole;
  std::size_t j = hole;
  for (;;) {
    j = (j + 1) & shard.table_mask;
    const VertexId jid = shard.table[j].id.load(std::memory_order_relaxed);
    if (jid == kInvalidVertex) break;
    const std::size_t home = probe_home(shard, jid);
    if (((j - home) & shard.table_mask) >= ((j - i) & shard.table_mask)) {
      shard.table[i].id.store(jid, std::memory_order_relaxed);
      shard.table[i].counter.store(
          shard.table[j].counter.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      shard.table[i].parked = shard.table[j].parked;
      i = j;
    }
  }
  // Restore the empty-slot invariant (counter 0, parked false) so a future
  // lock-free claim of this slot needs no initialization.
  shard.table[i].id.store(kInvalidVertex, std::memory_order_relaxed);
  shard.table[i].counter.store(0, std::memory_order_relaxed);
  shard.table[i].parked = false;
  shard.entries.fetch_sub(1, std::memory_order_relaxed);
}

bool Rct::register_exclusive(VertexId v) {
  // Exclusive-path insert, used when the lock-free claim found the shard at
  // its load limit. The global admission ticket is already held; refund on
  // duplicate.
  Shard& shard = shard_of(v);
  Guard guard(*this, shard, /*exclusive=*/true);
  if (find_locked(shard, v) != shard.table_size) {
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    return false;  // duplicate (not an overflow)
  }
  // Double even if erasures made room meanwhile: the claim only diverts
  // here while the table has fewer than 2·capacity slots, so every shard
  // takes this path a bounded number of times instead of once per
  // registration at the load limit.
  grow_locked(shard);
  insert_locked(shard, v);
  return true;
}

bool Rct::register_vertex(VertexId v) {
  // Global admission (see the constructor's doc): a ticket against the
  // total capacity, taken only if a plain load says there is room — a full
  // table refuses without writing the ticket's line.
  if (entry_count_.load(std::memory_order_relaxed) >= capacity_) {
    untracked_overflow_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::size_t ticket = entry_count_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= capacity_) {
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    untracked_overflow_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Shard& shard = shard_of(v);
  {
    Guard guard(*this, shard, /*exclusive=*/false);
    std::size_t i = probe_home(shard, v);
    for (std::size_t probes = 0; probes < shard.table_size; ++probes) {
      const VertexId id = shard.table[i].id.load(std::memory_order_acquire);
      if (id == v) {
        entry_count_.fetch_sub(1, std::memory_order_relaxed);
        return false;  // duplicate (not an overflow)
      }
      if (id == kInvalidVertex) {
        // Load check BEFORE claiming: growth is impossible under the shared
        // lock, so an over-half claim must divert to the exclusive path.
        // Concurrent claimers can overshoot the limit by at most M slots —
        // find_locked's bounded probe tolerates even a transiently full
        // table on the minimum-size table.
        if (2 * (shard.entries.load(std::memory_order_relaxed) + 1) >
            shard.table_size) {
          break;
        }
        VertexId expected = kInvalidVertex;
        filter_of(shard, v).fetch_add(1, std::memory_order_relaxed);
        if (shard.table[i].id.compare_exchange_strong(
                expected, v, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          // Claimed: the slot's counter is 0 by the empty-slot invariant.
          shard.entries.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        filter_of(shard, v).fetch_sub(1, std::memory_order_relaxed);
        if (expected == v) {
          entry_count_.fetch_sub(1, std::memory_order_relaxed);
          return false;  // lost the claim to a duplicate of v
        }
        // Lost to a different id: the slot is occupied now, keep probing.
      }
      i = (i + 1) & shard.table_mask;
    }
  }
  // AUDIT (PR 9, lock-free claim): the shard needs growth (or the probe
  // wrapped), which requires the EXCLUSIVE lock. PR 4's "never-nested"
  // invariant covered cross-SHARD sequencing only; with CAS registration the
  // hazard is same-shard — upgrading shared→exclusive in place self-deadlocks
  // on shared_mutex, so the shared lock is released first (the scope above)
  // and the exclusive path re-probes for a duplicate before inserting.
  return register_exclusive(v);
}

void Rct::bump_if_present(VertexId u) {
  if (!maybe_tracked(u)) return;
  Shard& shard = shard_of(u);
  Guard guard(*this, shard, /*exclusive=*/false);
  const std::size_t i = find_locked(shard, u);
  if (i == shard.table_size) return;
  // Exactly one fetch_add observes the 0→nonzero transition (prev == 0), so
  // the threshold stats stay exact under concurrent bumps.
  const std::uint32_t prev =
      shard.table[i].counter.fetch_add(1, std::memory_order_relaxed);
  if (prev == 0) nonzero_count_.fetch_add(1, std::memory_order_relaxed);
  nonzero_sum_.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t Rct::count(VertexId v) const {
  const Shard& shard = shard_of(v);
  Guard guard(*this, shard, /*exclusive=*/false);
  const std::size_t i = find_locked(shard, v);
  return i == shard.table_size
             ? 0
             : shard.table[i].counter.load(std::memory_order_relaxed);
}

double Rct::mean_nonzero_count() const {
  const std::uint32_t count = nonzero_count_.load(std::memory_order_relaxed);
  if (count == 0) return 0.0;
  return static_cast<double>(nonzero_sum_.load(std::memory_order_relaxed)) /
         count;
}

bool Rct::should_delay(VertexId v) const {
  const std::uint32_t counter = count(v);  // 0 when untracked
  if (counter == 0) return false;
  return static_cast<double>(counter) >= std::max(1.0, mean_nonzero_count());
}

bool Rct::park(const VertexRecord& record) {
  // Same global-ticket admission as register_vertex: the parked bound is the
  // table capacity, not capacity_/S per shard.
  const std::size_t ticket = parked_count_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= capacity_) {
    parked_count_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  Shard& shard = shard_of(record.id);
  // Refusals are decided under the shared lock where possible, so the
  // exclusive lock is taken only for a park that is likely to succeed: a
  // counter can drain between the caller's should_delay and here.
  auto parkable = [&](std::size_t i) {
    return i != shard.table_size && !shard.table[i].parked &&
           shard.table[i].counter.load(std::memory_order_relaxed) != 0;
  };
  {
    Guard guard(*this, shard, /*exclusive=*/false);
    if (!parkable(find_locked(shard, record.id))) {
      parked_count_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Exclusive: park mutates the parked flag and the parked vector, both of
  // which shared holders rely on being writer-excluded.
  Guard guard(*this, shard, /*exclusive=*/true);
  const std::size_t i = find_locked(shard, record.id);
  // Untracked vertices cannot park; a double-park would lose a record. A
  // counter already at zero means the last in-neighbor's 1→0 decrement ran
  // after the caller's should_delay and saw no parked flag to release:
  // parking now would strand the record until drain_parked. Decrements take
  // the shared lock, so under this exclusive one the counter cannot move.
  if (!parkable(i)) {
    parked_count_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  shard.table[i].parked = true;
  shard.parked.push_back(OwnedVertexRecord::from(record));
  return true;
}

std::vector<OwnedVertexRecord> Rct::on_placed(VertexId v,
                                              std::span<const VertexId> out) {
  std::vector<OwnedVertexRecord> ready;
  // Helper for the moment a counter drains to zero with the record parked:
  // hand the record back for immediate placement. Caller holds the shard
  // lock EXCLUSIVE and has already cleared/validated the parked flag.
  auto unpark_locked = [&](Shard& shard, VertexId u) {
    auto it = std::find_if(shard.parked.begin(), shard.parked.end(),
                           [&](const auto& r) { return r.id == u; });
    if (it != shard.parked.end()) {
      ready.push_back(std::move(*it));
      shard.parked.erase(it);
      parked_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  };

  // Exclusive only to erase a real entry; a filter hit may be a bucket
  // collision. v's entry cannot vanish in between: only v's placer erases it.
  bool tracked = maybe_tracked(v);
  if (tracked) {
    const Shard& shard = shard_of(v);
    Guard guard(*this, shard, /*exclusive=*/false);
    tracked = find_locked(shard, v) != shard.table_size;
  }
  if (tracked) {
    Shard& shard = shard_of(v);
    // Exclusive: erase rewrites the probe chain (backward shift), which
    // would invalidate concurrent shared-side probes. Holding it also
    // excludes every shared-side bump/decrement on this shard, so the
    // residual counter subtracted below cannot move mid-erase.
    Guard guard(*this, shard, /*exclusive=*/true);
    const std::size_t i = find_locked(shard, v);
    if (i != shard.table_size) {
      const std::uint32_t residual =
          shard.table[i].counter.exchange(0, std::memory_order_relaxed);
      if (residual > 0) {
        nonzero_sum_.fetch_sub(residual, std::memory_order_relaxed);
        nonzero_count_.fetch_sub(1, std::memory_order_relaxed);
      }
      // If the caller force-placed a still-parked vertex, drop the orphaned
      // parked record too.
      if (shard.table[i].parked) {
        auto it = std::find_if(shard.parked.begin(), shard.parked.end(),
                               [&](const auto& r) { return r.id == v; });
        if (it != shard.parked.end()) {
          shard.parked.erase(it);
          parked_count_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      erase_locked(shard, i);
      filter_of(shard, v).fetch_sub(1, std::memory_order_relaxed);
      entry_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // One shard lock at a time: the self shard above is released before any
  // neighbor shard is taken, so there is no cross-shard ordering hazard.
  for (VertexId u : out) {
    if (!maybe_tracked(u)) continue;
    Shard& shard = shard_of(u);
    bool need_unpark = false;
    {
      Guard guard(*this, shard, /*exclusive=*/false);
      const std::size_t i = find_locked(shard, u);
      if (i == shard.table_size) continue;
      // CAS-loop decrement that never goes below zero: exactly one CAS
      // installs the 1→0 transition, so that winner owns the stats update
      // and the unpark handoff.
      std::uint32_t c = shard.table[i].counter.load(std::memory_order_relaxed);
      while (c != 0) {
        if (shard.table[i].counter.compare_exchange_weak(
                c, c - 1, std::memory_order_relaxed,
                std::memory_order_relaxed)) {
          nonzero_sum_.fetch_sub(1, std::memory_order_relaxed);
          if (c == 1) {
            nonzero_count_.fetch_sub(1, std::memory_order_relaxed);
            // Reading the flag under the shared lock is race-free (it is
            // only written under exclusive), but clearing it is not: divert
            // to the exclusive reacquisition below.
            need_unpark = shard.table[i].parked;
          }
          break;
        }
      }
    }
    if (need_unpark) {
      // AUDIT (PR 9, lock-free decrement): same-shard shared→exclusive
      // upgrade self-deadlocks, so the shared lock is RELEASED first (scope
      // above) and the slot re-validated here — another placer may have
      // unparked u, or u may have been force-placed and erased, in the
      // window between our 1→0 CAS and this reacquisition. We own that 1→0
      // transition, so if the record is still parked it is released now even
      // if the counter has been re-bumped meanwhile (eager semantics:
      // release happens at the drain instant).
      Guard guard(*this, shard, /*exclusive=*/true);
      const std::size_t i = find_locked(shard, u);
      if (i != shard.table_size && shard.table[i].parked) {
        shard.table[i].parked = false;
        unpark_locked(shard, u);
      }
    }
  }
  return ready;
}

std::vector<OwnedVertexRecord> Rct::drain_parked() {
  std::vector<OwnedVertexRecord> rest;
  for (Shard& shard : shards_) {
    {
      Guard guard(*this, shard, /*exclusive=*/false);
      if (shard.parked.empty()) continue;
    }
    Guard guard(*this, shard, /*exclusive=*/true);
    for (OwnedVertexRecord& record : shard.parked) {
      const std::size_t i = find_locked(shard, record.id);
      if (i != shard.table_size) shard.table[i].parked = false;
      rest.push_back(std::move(record));
    }
    parked_count_.fetch_sub(shard.parked.size(), std::memory_order_relaxed);
    shard.parked.clear();
  }
  std::sort(rest.begin(), rest.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return rest;
}

std::vector<Rct::ParkedState> Rct::snapshot_parked() const {
  std::vector<ParkedState> parked;
  for (const Shard& shard : shards_) {
    // Shared suffices: parked records change only under the exclusive lock.
    Guard guard(*this, shard, /*exclusive=*/false);
    for (const OwnedVertexRecord& record : shard.parked) {
      const std::size_t i = find_locked(shard, record.id);
      const std::uint32_t counter =
          i == shard.table_size
              ? 0
              : shard.table[i].counter.load(std::memory_order_relaxed);
      parked.push_back({record.id, counter, record.out});
    }
  }
  std::sort(parked.begin(), parked.end(),
            [](const ParkedState& a, const ParkedState& b) { return a.id < b.id; });
  return parked;
}

void Rct::restore_parked(std::vector<ParkedState> parked) {
  if (entry_count_.load(std::memory_order_relaxed) != 0 ||
      parked_count_.load(std::memory_order_relaxed) != 0) {
    throw std::logic_error("Rct::restore_parked: table not empty");
  }
  for (auto& p : parked) {
    Shard& shard = shard_of(p.id);
    Guard guard(*this, shard, /*exclusive=*/true);
    // Deliberately no shard_capacity_ check: a snapshot taken by a run with
    // more workers (larger ε·M table) must restore losslessly; the table
    // grows as needed.
    const std::size_t i = insert_locked(shard, p.id);
    shard.table[i].counter.store(p.counter, std::memory_order_relaxed);
    shard.table[i].parked = true;
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    if (p.counter > 0) {
      nonzero_sum_.fetch_add(p.counter, std::memory_order_relaxed);
      nonzero_count_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.parked.push_back(OwnedVertexRecord{p.id, std::move(p.out)});
    parked_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t Rct::memory_footprint_bytes() const {
  std::size_t bytes = shards_.size() * sizeof(Shard);
  for (const Shard& shard : shards_) {
    // Shared suffices: the table size and the parked records change only
    // under the exclusive lock.
    Guard guard(*this, shard, /*exclusive=*/false);
    bytes += shard.table_size * sizeof(Slot);
    bytes += shard.parked.capacity() * sizeof(OwnedVertexRecord);
    for (const OwnedVertexRecord& record : shard.parked) {
      bytes += record.out.capacity() * sizeof(VertexId);
    }
  }
  return bytes;
}

}  // namespace spnl
