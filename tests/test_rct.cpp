#include "core/rct.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace spnl {
namespace {

OwnedVertexRecord record(VertexId id, std::vector<VertexId> out = {}) {
  return {id, std::move(out)};
}

TEST(Rct, RegisterAndCapacity) {
  Rct rct(2);
  EXPECT_TRUE(rct.register_vertex(1));
  EXPECT_TRUE(rct.register_vertex(2));
  EXPECT_FALSE(rct.register_vertex(3));  // full
  EXPECT_EQ(rct.size(), 2u);
}

TEST(Rct, DuplicateRegistrationRejected) {
  Rct rct(4);
  EXPECT_TRUE(rct.register_vertex(1));
  EXPECT_FALSE(rct.register_vertex(1));
}

TEST(Rct, BumpOnlyAffectsInFlight) {
  Rct rct(4);
  rct.register_vertex(1);
  rct.bump_if_present(1);
  rct.bump_if_present(2);  // not registered: dropped
  EXPECT_EQ(rct.count(1), 1u);
  EXPECT_EQ(rct.count(2), 0u);
}

TEST(Rct, MeanNonzeroCount) {
  Rct rct(8);
  rct.register_vertex(1);
  rct.register_vertex(2);
  rct.register_vertex(3);
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  rct.bump_if_present(2);
  // counters: 3, 1, 0 -> mean of non-zero = 2.
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 2.0);
}

TEST(Rct, ShouldDelayUsesThreshold) {
  Rct rct(8);
  rct.register_vertex(1);
  rct.register_vertex(2);
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  rct.bump_if_present(2);
  // mean = 1.5; vertex 1 (count 2) delayed, vertex 2 (count 1) not.
  EXPECT_TRUE(rct.should_delay(1));
  EXPECT_FALSE(rct.should_delay(2));
  EXPECT_FALSE(rct.should_delay(99));  // untracked
}

TEST(Rct, PlacementDecrementsAndReleases) {
  // Fig. 6 scenario: vertex 1 depends on 2, 3, 4 (they are its in-flight
  // in-neighbors). Parking 1, then placing 2-4 releases it.
  Rct rct(8);
  for (VertexId v : {1u, 2u, 3u, 4u}) rct.register_vertex(v);
  // Scoring 2, 3, 4: each has out-edge to 1.
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  ASSERT_TRUE(rct.should_delay(1));
  EXPECT_TRUE(rct.park(record(1, {}).view()));

  EXPECT_TRUE(rct.on_placed(2, std::vector<VertexId>{1}).empty());
  EXPECT_TRUE(rct.on_placed(3, std::vector<VertexId>{1}).empty());
  const auto released = rct.on_placed(4, std::vector<VertexId>{1});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].id, 1u);
  EXPECT_EQ(rct.parked_size(), 0u);
}

TEST(Rct, ParkFailsWhenUntracked) {
  Rct rct(4);
  auto r = record(9, {1, 2});
  EXPECT_FALSE(rct.park(r.view()));
  // Failed park leaves the record usable.
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.out.size(), 2u);
}

TEST(Rct, ParkKeepsItsOwnCopyOfTheRecord) {
  // The parallel driver parks records that live in a reusable slab: park()
  // must copy the out-list, so the caller's storage can be overwritten.
  Rct rct(4);
  ASSERT_TRUE(rct.register_vertex(1));
  rct.bump_if_present(1);
  std::vector<VertexId> storage{7, 8, 9};
  ASSERT_TRUE(rct.park({1, storage}));
  storage.assign({0, 0, 0});
  const auto rest = rct.drain_parked();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 1u);
  EXPECT_EQ(rest[0].out, (std::vector<VertexId>{7, 8, 9}));
}

TEST(Rct, ParkCapacityBound) {
  Rct rct(1);
  rct.register_vertex(1);
  rct.bump_if_present(1);
  EXPECT_TRUE(rct.park(record(1).view()));
  // Parked set is at capacity 1 now.
  auto r2 = record(1);
  EXPECT_FALSE(rct.park(r2.view()));
}

TEST(Rct, ParkRefusesACounterThatDrainedAfterShouldDelay) {
  // The lost-wakeup interleaving, scripted on one thread: the worker saw a
  // non-zero counter, then the last in-neighbor's placement drained it
  // before park ran. Nobody is left to release a parked record, so park
  // must refuse and leave the record with the caller.
  Rct rct(8);
  ASSERT_TRUE(rct.register_vertex(1));
  ASSERT_TRUE(rct.register_vertex(2));
  rct.bump_if_present(2);
  ASSERT_TRUE(rct.should_delay(2));
  EXPECT_TRUE(rct.on_placed(1, std::vector<VertexId>{2}).empty());
  auto r = record(2, {5});
  EXPECT_FALSE(rct.park(r.view()));
  EXPECT_EQ(rct.parked_size(), 0u);
  EXPECT_EQ(r.out, (std::vector<VertexId>{5}));
}

TEST(Rct, DrainParkedSortedById) {
  Rct rct(8);
  for (VertexId v : {5u, 2u, 9u}) {
    rct.register_vertex(v);
    rct.bump_if_present(v);
    EXPECT_TRUE(rct.park(record(v).view()));
  }
  const auto rest = rct.drain_parked();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].id, 2u);
  EXPECT_EQ(rest[1].id, 5u);
  EXPECT_EQ(rest[2].id, 9u);
  EXPECT_EQ(rct.parked_size(), 0u);
}

TEST(Rct, PlacedVertexWithNonzeroCounterKeepsStatsConsistent) {
  Rct rct(8);
  rct.register_vertex(1);
  rct.register_vertex(2);
  rct.bump_if_present(1);
  // Place 1 while its own counter is non-zero: stats must not go stale.
  rct.on_placed(1, std::vector<VertexId>{});
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
  rct.bump_if_present(2);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 1.0);
}

TEST(Rct, ConcurrentBumpAndPlace) {
  Rct rct(64);
  for (VertexId v = 0; v < 32; ++v) rct.register_vertex(v);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        rct.bump_if_present(static_cast<VertexId>((t * 7 + i) % 32));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  for (VertexId v = 0; v < 32; ++v) total += rct.count(v);
  EXPECT_EQ(total, 4000u);
}

TEST(Rct, ZeroCapacityClampsToOne) {
  Rct rct(0);
  EXPECT_EQ(rct.capacity(), 1u);
  EXPECT_TRUE(rct.register_vertex(1));
  EXPECT_FALSE(rct.register_vertex(2));
}

TEST(Rct, RecommendedShardsIsNextPow2) {
  EXPECT_EQ(Rct::recommended_shards(0), 1u);
  EXPECT_EQ(Rct::recommended_shards(1), 1u);
  EXPECT_EQ(Rct::recommended_shards(3), 4u);
  EXPECT_EQ(Rct::recommended_shards(8), 8u);
  EXPECT_EQ(Rct::recommended_shards(9), 16u);
}

TEST(Rct, ShardedSemanticsMatchSingleShard) {
  // The Fig. 6 release scenario must behave identically regardless of the
  // stripe count: sharding is a locking strategy, not a semantic change.
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    Rct rct(32, shards);
    EXPECT_EQ(rct.num_shards(), shards);
    for (VertexId v : {1u, 2u, 3u, 4u}) ASSERT_TRUE(rct.register_vertex(v));
    rct.bump_if_present(1);
    rct.bump_if_present(1);
    rct.bump_if_present(1);
    ASSERT_TRUE(rct.should_delay(1)) << "shards=" << shards;
    ASSERT_TRUE(rct.park(record(1, {}).view()));
    EXPECT_TRUE(rct.on_placed(2, std::vector<VertexId>{1}).empty());
    EXPECT_TRUE(rct.on_placed(3, std::vector<VertexId>{1}).empty());
    const auto released = rct.on_placed(4, std::vector<VertexId>{1});
    ASSERT_EQ(released.size(), 1u) << "shards=" << shards;
    EXPECT_EQ(released[0].id, 1u);
    EXPECT_EQ(rct.parked_size(), 0u);
    rct.on_placed(1, std::vector<VertexId>{});
    EXPECT_EQ(rct.size(), 0u);
    EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
  }
}

TEST(Rct, UntrackedOverflowIsCounted) {
  Rct rct(2);
  EXPECT_TRUE(rct.register_vertex(1));
  EXPECT_TRUE(rct.register_vertex(2));
  EXPECT_EQ(rct.untracked_overflow(), 0u);
  EXPECT_FALSE(rct.register_vertex(3));  // full table: silent degradation
  EXPECT_FALSE(rct.register_vertex(4));
  EXPECT_EQ(rct.untracked_overflow(), 2u);
  // A duplicate rejection is a protocol error, not an overflow.
  rct.on_placed(1, std::vector<VertexId>{});
  EXPECT_FALSE(rct.register_vertex(2));
  EXPECT_EQ(rct.untracked_overflow(), 2u);
}

TEST(Rct, UntrackedIdsNeverTakeTheExclusiveLock) {
  // Once the table is full, the bulk of a parallel run's records are
  // untracked: refusing, bumping and finalizing them must not take an
  // exclusive shard lock (on_placed used to take one for every id). Tracked
  // ids still erase under it and the table drains back to empty.
  Rct rct(4, 2);
  for (VertexId v : {0u, 1u, 2u, 3u}) ASSERT_TRUE(rct.register_vertex(v));
  rct.bump_if_present(1);
  const std::uint64_t before = rct.exclusive_acquires();
  for (VertexId v = 100; v < 1100; ++v) {
    EXPECT_FALSE(rct.register_vertex(v));
    rct.bump_if_present(v);
    EXPECT_TRUE(rct.on_placed(v, std::vector<VertexId>{v + 1, v + 2}).empty());
  }
  EXPECT_EQ(rct.exclusive_acquires(), before);
  EXPECT_EQ(rct.untracked_overflow(), 1000u);
  EXPECT_EQ(rct.count(1), 1u);
  EXPECT_EQ(rct.size(), 4u);

  for (VertexId v : {0u, 1u, 2u, 3u}) rct.on_placed(v, std::vector<VertexId>{});
  EXPECT_EQ(rct.exclusive_acquires(), before + 4);
  EXPECT_EQ(rct.size(), 0u);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
  // Erased ids are untracked again: finalizing one a second time is free.
  rct.on_placed(2, std::vector<VertexId>{});
  EXPECT_EQ(rct.exclusive_acquires(), before + 4);
}

TEST(Rct, ShardedCapacityIsGlobalNotPerStripe) {
  // Regression (BENCH_parallel.json M=4 overflow spike): capacity used to be
  // split evenly across stripes, so a capacity-8 table with 4 shards refused
  // the third vertex landing on one stripe even though the table held only 3
  // entries total. Admission is a single global ticket now — any id mix up
  // to `capacity` registers, regardless of how it stripes.
  Rct rct(8, 4);
  // All of these hash to stripe 0 (v & 3 == 0): 6 > 8/4 = 2 per-shard quota.
  for (VertexId v : {0u, 4u, 8u, 12u, 16u, 20u}) {
    ASSERT_TRUE(rct.register_vertex(v)) << "v=" << v;
  }
  EXPECT_EQ(rct.size(), 6u);
  EXPECT_EQ(rct.untracked_overflow(), 0u);
  // The global bound still holds exactly.
  ASSERT_TRUE(rct.register_vertex(24));
  ASSERT_TRUE(rct.register_vertex(28));
  EXPECT_FALSE(rct.register_vertex(32));
  EXPECT_EQ(rct.untracked_overflow(), 1u);
  // Placement frees a slot for a new registrant.
  rct.on_placed(0, std::vector<VertexId>{});
  EXPECT_TRUE(rct.register_vertex(32));
}

TEST(Rct, ParkCapacityIsGlobalNotPerStripe) {
  Rct rct(8, 4);
  for (VertexId v : {0u, 4u, 8u, 12u}) {
    ASSERT_TRUE(rct.register_vertex(v));
    rct.bump_if_present(v);
    ASSERT_TRUE(rct.park(record(v).view())) << "v=" << v;
  }
  EXPECT_EQ(rct.parked_size(), 4u);
}

TEST(Rct, ShardedSnapshotRestoreRoundTrip) {
  Rct rct(16, 4);
  for (VertexId v : {3u, 7u, 11u, 12u}) ASSERT_TRUE(rct.register_vertex(v));
  rct.bump_if_present(3);
  rct.bump_if_present(3);
  rct.bump_if_present(7);
  ASSERT_TRUE(rct.park(record(3, {7, 11}).view()));
  ASSERT_TRUE(rct.park(record(7, {12}).view()));
  const auto snapshot = rct.snapshot_parked();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].id, 3u);
  EXPECT_EQ(snapshot[0].counter, 2u);
  EXPECT_EQ(snapshot[1].id, 7u);
  EXPECT_EQ(snapshot[1].counter, 1u);

  // Restore into a DIFFERENT stripe/capacity layout (resume with fewer
  // workers): must be lossless, including the dependency counters.
  Rct resumed(2, 1);
  resumed.restore_parked(snapshot);
  EXPECT_EQ(resumed.parked_size(), 2u);
  EXPECT_EQ(resumed.count(3), 2u);
  EXPECT_EQ(resumed.count(7), 1u);
  EXPECT_DOUBLE_EQ(resumed.mean_nonzero_count(), 1.5);
  const auto drained = resumed.drain_parked();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, 3u);
  EXPECT_EQ(drained[0].out, (std::vector<VertexId>{7, 11}));
  EXPECT_EQ(drained[1].id, 7u);
}

TEST(Rct, RestoreIntoNonEmptyTableThrows) {
  Rct rct(8, 2);
  rct.register_vertex(1);
  std::vector<Rct::ParkedState> parked;
  parked.push_back({2, 1, {}});
  EXPECT_THROW(rct.restore_parked(std::move(parked)), std::logic_error);
}

TEST(Rct, Fig6ParkReleaseScenarioOnShardedTable) {
  // The Fig. 6 park/release scenario on a 4-shard table: three placed
  // in-neighbors drain the parked vertex's counter and the last one
  // releases it.
  Rct rct(32, 4);
  for (VertexId v : {1u, 2u, 3u, 4u}) ASSERT_TRUE(rct.register_vertex(v));
  EXPECT_FALSE(rct.register_vertex(1));  // duplicate
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  EXPECT_EQ(rct.count(1), 3u);
  ASSERT_TRUE(rct.should_delay(1));
  ASSERT_TRUE(rct.park(record(1, {}).view()));
  EXPECT_TRUE(rct.on_placed(2, std::vector<VertexId>{1}).empty());
  EXPECT_TRUE(rct.on_placed(3, std::vector<VertexId>{1}).empty());
  const auto released = rct.on_placed(4, std::vector<VertexId>{1});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].id, 1u);
  rct.on_placed(1, std::vector<VertexId>{});
  EXPECT_EQ(rct.size(), 0u);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
}

TEST(Rct, LockFreeClaimGrowsTableAndStaysFindable) {
  // Regression for the claim-path growth handoff: capacity 64 over 4 shards
  // sizes each table at 32 slots, and every id below hashes to shard 0
  // (v % 4 == 0), so past 16 entries the CAS claim hits the load limit and
  // must fall to the exclusive grow path — RELEASING the shared lock first
  // (upgrading in place would self-deadlock) and re-probing for a duplicate
  // after reacquisition. Every entry must survive the rehash with its
  // counter intact.
  Rct rct(64, 4);
  for (VertexId i = 0; i < 64; ++i) {
    ASSERT_TRUE(rct.register_vertex(i * 4)) << "i=" << i;
  }
  EXPECT_EQ(rct.size(), 64u);
  for (VertexId i = 0; i < 64; ++i) {
    rct.bump_if_present(i * 4);
    EXPECT_EQ(rct.count(i * 4), 1u) << "i=" << i;
  }
  // Re-registration of grown-in entries must still be rejected as duplicate.
  EXPECT_EQ(rct.untracked_overflow(), 0u);
  for (VertexId i = 0; i < 64; ++i) {
    rct.on_placed(i * 4, std::vector<VertexId>{});
  }
  EXPECT_EQ(rct.size(), 0u);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
}

TEST(Rct, ConcurrentLockFreeClaimStormRegistersEveryId) {
  // 8 threads CAS-claim 128 distinct ids each into a 4-shard table; every
  // claim must succeed exactly once (capacity equals the id count) and the
  // entry count must land exactly — a lost claim or a double count shows up
  // directly. Interleaved bumps exercise the freshly claimed slots' empty-
  // slot invariant (counter starts at 0, no stale residue from prior
  // occupancy).
  constexpr int kThreads = 8;
  constexpr VertexId kPerThread = 128;
  Rct rct(kThreads * kPerThread, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const VertexId base = static_cast<VertexId>(t) * kPerThread;
      for (VertexId i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(rct.register_vertex(base + i));
        rct.bump_if_present(base + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(rct.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(rct.untracked_overflow(), 0u);
  std::uint64_t total = 0;
  for (VertexId v = 0; v < kThreads * kPerThread; ++v) total += rct.count(v);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 1.0);
}

TEST(Rct, ContentionCountersPinExclusiveAcquires) {
  // Deterministic structural property, independent of core count: 32
  // registrations, bumps and erasures on a 64-entry single-shard table take
  // the exclusive lock exactly once per erase — registration and bumps run
  // under the shared lock with atomic slots.
  Rct rct(64, 1);
  for (VertexId v = 0; v < 32; ++v) rct.register_vertex(v);
  for (VertexId v = 0; v < 32; ++v) rct.bump_if_present(v);
  for (VertexId v = 0; v < 32; ++v) rct.on_placed(v, std::vector<VertexId>{});
  EXPECT_EQ(rct.exclusive_acquires(), 32u);
}

TEST(Rct, ShardedConcurrentRegisterBumpPlaceStress) {
  // 4 threads churn register/bump/park/place over a sharded table; the
  // relaxed-atomic statistics must drain back to exactly zero when every
  // vertex has been placed — any lost or double-counted transition shows up
  // as a non-zero residue.
  Rct rct(256, 4);
  constexpr int kThreads = 4;
  constexpr VertexId kPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const VertexId base = static_cast<VertexId>(t) * kPerThread;
      for (VertexId i = 0; i < kPerThread; ++i) {
        const VertexId v = base + i;
        ASSERT_TRUE(rct.register_vertex(v));
        // Bump a neighbor owned by another thread (cross-shard traffic).
        const VertexId u = (v + kPerThread) % (kThreads * kPerThread);
        rct.bump_if_present(u);
        rct.bump_if_present(u);
      }
      for (VertexId i = 0; i < kPerThread; ++i) {
        const VertexId v = base + i;
        const VertexId u = (v + kPerThread) % (kThreads * kPerThread);
        rct.on_placed(v, std::vector<VertexId>{u});
        rct.on_placed(v, std::vector<VertexId>{});  // second call: no-op
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Everything placed: decrements may miss already-placed neighbors (their
  // entries are gone — same as the single-lock table), but sum/count must
  // still be consistent with the surviving entries, which is none.
  EXPECT_EQ(rct.size(), 0u);
  EXPECT_EQ(rct.parked_size(), 0u);
  EXPECT_EQ(rct.untracked_overflow(), 0u);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
}

}  // namespace
}  // namespace spnl
