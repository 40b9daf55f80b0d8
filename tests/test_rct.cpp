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

TEST(Rct, SnapshotRestoresIntoASmallerTable) {
  Rct rct(16);
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

  // Restore into a smaller table (resume with fewer workers): must be
  // lossless, including the dependency counters.
  Rct resumed(2);
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
  Rct rct(8);
  rct.register_vertex(1);
  std::vector<Rct::ParkedState> parked;
  parked.push_back({2, 1, {}});
  EXPECT_THROW(rct.restore_parked(std::move(parked)), std::logic_error);
}

TEST(Rct, ConcurrentRegisterBumpPlaceStress) {
  // 4 threads churn register/bump/place over one table; the statistics must
  // drain back to exactly zero when every vertex has been placed — any lost
  // or double-counted update shows up as a non-zero residue.
  Rct rct(256);
  constexpr int kThreads = 4;
  constexpr VertexId kPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const VertexId base = static_cast<VertexId>(t) * kPerThread;
      for (VertexId i = 0; i < kPerThread; ++i) {
        const VertexId v = base + i;
        ASSERT_TRUE(rct.register_vertex(v));
        // Bump a neighbor owned by another thread.
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
  // entries are gone), but the statistics must still be consistent with the
  // surviving entries, which is none.
  EXPECT_EQ(rct.size(), 0u);
  EXPECT_EQ(rct.parked_size(), 0u);
  EXPECT_EQ(rct.untracked_overflow(), 0u);
  EXPECT_DOUBLE_EQ(rct.mean_nonzero_count(), 0.0);
}

TEST(Rct, BatchedBumpSkipsTheRecordItself) {
  // A record's out-list is bumped as one batch; a self-loop is no dependency.
  Rct rct(4);
  ASSERT_TRUE(rct.register_vertex(1));
  ASSERT_TRUE(rct.register_vertex(2));
  rct.bump_out_neighbors(1, std::vector<VertexId>{1, 2, 2, 3});
  EXPECT_EQ(rct.count(1), 0u);
  EXPECT_EQ(rct.count(2), 2u);
}

TEST(Rct, ParkIfDelayedParksOnlyHeavyConflicts) {
  Rct rct(4);
  ASSERT_TRUE(rct.register_vertex(1));
  ASSERT_TRUE(rct.register_vertex(2));
  rct.bump_if_present(1);
  rct.bump_if_present(1);
  rct.bump_if_present(2);
  // mean 1.5: vertex 2 (count 1) proceeds, vertex 1 (count 2) parks.
  EXPECT_FALSE(rct.park_if_delayed(record(2).view()));
  EXPECT_TRUE(rct.park_if_delayed(record(1, {2}).view()));
  EXPECT_EQ(rct.parked_size(), 1u);
  EXPECT_FALSE(rct.park_if_delayed(record(9).view()));  // untracked
}

TEST(Rct, EveryOperationTakesTheMutexOnce) {
  // Registration, a record's batched bumps and its placement each take the
  // one mutex once, however long the out-list; queries are not counted. One
  // thread never finds the mutex held.
  Rct rct(64);
  const std::vector<VertexId> out{1, 2, 3, 4, 5, 6, 7, 8};
  for (VertexId v = 0; v < 32; ++v) ASSERT_TRUE(rct.register_vertex(v));
  for (VertexId v = 0; v < 32; ++v) rct.bump_out_neighbors(v, out);
  for (VertexId v = 0; v < 32; ++v) {
    EXPECT_FALSE(rct.should_delay(v + 100));
    EXPECT_EQ(rct.count(v + 100), 0u);
  }
  for (VertexId v = 0; v < 32; ++v) rct.on_placed(v, out);
  EXPECT_EQ(rct.exclusive_acquires(), 96u);
  EXPECT_EQ(rct.exclusive_contended(), 0u);
  EXPECT_EQ(rct.size(), 0u);
}

}  // namespace
}  // namespace spnl
