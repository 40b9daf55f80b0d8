#include "core/gamma_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/concurrent_gamma.hpp"
#include "core/spnl.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {
namespace {

TEST(GammaWindow, FullTableWhenXIsOne) {
  GammaWindow gamma(100, 4, 1);
  EXPECT_EQ(gamma.window_size(), 100u);
  gamma.increment(2, 99);
  EXPECT_EQ(gamma.get(2, 99), 1u);
  EXPECT_EQ(gamma.get(1, 99), 0u);
}

TEST(GammaWindow, WindowSizeIsCeilOfNOverX) {
  EXPECT_EQ(GammaWindow(100, 2, 3).window_size(), 34u);
  EXPECT_EQ(GammaWindow(100, 2, 100).window_size(), 1u);
  EXPECT_EQ(GammaWindow(7, 2, 2).window_size(), 4u);
}

TEST(GammaWindow, IncrementsOutsideWindowDropped) {
  GammaWindow gamma(100, 2, 10);  // window [0, 10)
  gamma.increment(0, 50);         // ahead of window: dropped
  gamma.advance_to(45);           // window [45, 55)
  EXPECT_EQ(gamma.get(0, 50), 0u);
  gamma.increment(0, 50);
  EXPECT_EQ(gamma.get(0, 50), 1u);
  gamma.increment(0, 44);  // behind window: dropped
  EXPECT_EQ(gamma.get(0, 44), 0u);
}

TEST(GammaWindow, FineGrainedSlideRetiresOneSlot) {
  GammaWindow gamma(100, 1, 10);  // window [0, 10)
  gamma.increment(0, 3);
  gamma.increment(0, 9);
  gamma.advance_to(1);  // window [1, 11): id 0 retired, id 10 fresh
  EXPECT_EQ(gamma.get(0, 3), 1u);
  EXPECT_EQ(gamma.get(0, 9), 1u);
  EXPECT_EQ(gamma.get(0, 10), 0u);
  gamma.increment(0, 10);
  EXPECT_EQ(gamma.get(0, 10), 1u);
}

TEST(GammaWindow, SlotReuseIsZeroed) {
  GammaWindow gamma(100, 1, 10);  // W = 10; ids 0 and 10 share a slot
  gamma.increment(0, 0);
  EXPECT_EQ(gamma.get(0, 0), 1u);
  gamma.advance_to(5);  // id 0 retired; its slot now belongs to id 10
  EXPECT_EQ(gamma.get(0, 10), 0u);
}

TEST(GammaWindow, BulkAdvanceClearsEverything) {
  GammaWindow gamma(1000, 2, 10);  // W = 100
  for (VertexId u = 0; u < 100; ++u) gamma.increment(1, u);
  gamma.advance_to(500);  // jump farther than W
  for (VertexId u = 500; u < 600; ++u) EXPECT_EQ(gamma.get(1, u), 0u);
}

TEST(GammaWindow, NeverMovesBackwards) {
  GammaWindow gamma(100, 1, 10);
  gamma.advance_to(50);
  gamma.advance_to(20);  // ignored
  EXPECT_EQ(gamma.base(), 50u);
}

TEST(GammaWindow, RowSpansAllPartitions) {
  GammaWindow gamma(100, 5, 10);
  gamma.increment(3, 4);
  gamma.increment(3, 4);
  const auto row = gamma.row(4);
  ASSERT_EQ(row.size(), 5u);
  EXPECT_EQ(row[3], 2u);
  EXPECT_EQ(row[0], 0u);
  EXPECT_TRUE(gamma.row(50).empty());  // outside window
}

TEST(GammaWindow, MatchesReferenceDictionaryWithinWindow) {
  // Property check: sliding-window counters agree with an exact dictionary
  // restricted to the window, under a random increment/advance workload.
  const VertexId n = 500;
  const PartitionId k = 4;
  GammaWindow gamma(n, k, 25);  // W = 20
  std::map<std::pair<PartitionId, VertexId>, std::uint32_t> reference;
  Rng rng(99);
  VertexId head = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.next_bool(0.2) && head < n - 1) {
      head += static_cast<VertexId>(1 + rng.next_below(3));
      if (head >= n) head = n - 1;
      gamma.advance_to(head);
    }
    const auto p = static_cast<PartitionId>(rng.next_below(k));
    const auto u = static_cast<VertexId>(rng.next_below(n));
    gamma.increment(p, u);
    if (u >= head && u < head + gamma.window_size()) {
      ++reference[{p, u}];
    }
    // Spot-check a random cell inside the window.
    const auto cu = static_cast<VertexId>(
        head + rng.next_below(std::min<VertexId>(gamma.window_size(), n - head)));
    const auto cp = static_cast<PartitionId>(rng.next_below(k));
    auto it = reference.find({cp, cu});
    const std::uint32_t expected = it == reference.end() ? 0 : it->second;
    ASSERT_EQ(gamma.get(cp, cu), expected) << "head=" << head << " u=" << cu;
  }
}

TEST(GammaWindow, CoarseModeAlignsToShards) {
  GammaWindow gamma(100, 1, 10, SlideMode::kCoarse);  // shards of 10
  gamma.advance_to(3);  // mid-shard: no movement
  EXPECT_EQ(gamma.base(), 0u);
  gamma.increment(0, 9);
  EXPECT_EQ(gamma.get(0, 9), 1u);
  gamma.increment(0, 10);  // next shard: dropped (the boundary loss)
  EXPECT_EQ(gamma.get(0, 10), 0u);
  gamma.advance_to(10);  // shard jump
  EXPECT_EQ(gamma.base(), 10u);
  EXPECT_EQ(gamma.get(0, 9), 0u);   // retired
  EXPECT_EQ(gamma.get(0, 10), 0u);  // fresh
  gamma.advance_to(17);  // mid-shard again: stays
  EXPECT_EQ(gamma.base(), 10u);
}

TEST(GammaWindow, CoarseDropsBoundaryCountsFineKeeps) {
  // An edge from the end of one shard to the start of the next: fine-grained
  // sliding (window [v, v+W)) keeps it, coarse sliding loses it.
  GammaWindow fine(100, 1, 10, SlideMode::kFine);
  GammaWindow coarse(100, 1, 10, SlideMode::kCoarse);
  fine.advance_to(9);
  coarse.advance_to(9);
  fine.increment(0, 11);
  coarse.increment(0, 11);
  EXPECT_EQ(fine.get(0, 11), 1u);
  EXPECT_EQ(coarse.get(0, 11), 0u);
}

TEST(GammaWindow, RecommendedShardsMatchesPaperFormula) {
  // Paper example: web2001 (|V|=118,142,155), K=32 -> X=128.
  EXPECT_EQ(GammaWindow::recommended_shards(118'142'155, 32), 128u);
  // Small graphs clamp to X=1 (full table).
  EXPECT_EQ(GammaWindow::recommended_shards(1000, 32), 1u);
}

TEST(GammaWindow, RecommendedShardsClampsExtremeParameters) {
  // min{αK, n/(βK)} is computed in doubles; parameter combinations that push
  // it past 2^32 used to hit an undefined double -> uint32 cast. Now the
  // result clamps to uint32 max (and constructing such a window still works:
  // X >= n just means W = 1).
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(GammaWindow::recommended_shards(4'000'000'000u, 1000, 1e16, 1e-12),
            kMax);
  EXPECT_EQ(GammaWindow::recommended_shards(kMax, 2, 1e30, 1e-30), kMax);
  GammaWindow clamped(100, 2, GammaWindow::recommended_shards(100, 2, 1e30, 1e-30));
  EXPECT_EQ(clamped.window_size(), 1u);
  // Degenerate inputs (k huge, n = 0, NaN from 0/0 with beta = 0) fall back
  // to the full table instead of wrapping around.
  EXPECT_EQ(GammaWindow::recommended_shards(0, 32), 1u);
  EXPECT_EQ(GammaWindow::recommended_shards(0, 1, 0.0, 0.0), 1u);
  EXPECT_GE(GammaWindow::recommended_shards(1, 1), 1u);
}

TEST(GammaWindow, PartialAdvanceClearsWrappedSlotRanges) {
  // W = 10, base = 7: advancing to 13 retires ids 7..12 whose ring slots are
  // 7, 8, 9, 0, 1, 2 — the wrap-around split of the range-based retirement.
  GammaWindow gamma(100, 3, 10);
  gamma.advance_to(7);  // window [7, 17)
  for (VertexId u = 7; u < 17; ++u) gamma.increment(u % 3, u);
  gamma.advance_to(13);  // window [13, 23)
  // Survivors keep their counters...
  for (VertexId u = 13; u < 17; ++u) {
    EXPECT_EQ(gamma.get(u % 3, u), 1u) << "u=" << u;
  }
  // ...retired ids are gone, and the freshly exposed ids 17..22 (which reuse
  // the retired slots) read zero in every partition.
  for (VertexId u = 17; u < 23; ++u) {
    for (PartitionId p = 0; p < 3; ++p) {
      EXPECT_EQ(gamma.get(p, u), 0u) << "u=" << u << " p=" << p;
    }
  }
}

TEST(GammaWindow, PartialAdvanceMatchesPerIdReference) {
  // Randomized cross-check of the two-memset retirement against a per-id
  // clearing loop applied to a mirror window.
  const VertexId n = 300;
  const PartitionId k = 3;
  GammaWindow gamma(n, k, 30);  // W = 10
  std::map<std::pair<PartitionId, VertexId>, std::uint32_t> mirror;
  Rng rng(1234);
  VertexId head = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto p = static_cast<PartitionId>(rng.next_below(k));
    gamma.increment(p, u);
    if (gamma.contains(u)) ++mirror[{p, u}];
    if (rng.next_bool(0.3) && head + 1 < n) {
      head += static_cast<VertexId>(1 + rng.next_below(12));  // crosses W
      if (head >= n) head = n - 1;
      gamma.advance_to(head);
      for (auto it = mirror.begin(); it != mirror.end();) {
        it = it->second == 0 || !gamma.contains(it->first.second)
                 ? mirror.erase(it)
                 : ++it;
      }
    }
    for (VertexId w = head; w < std::min<VertexId>(head + 10, n); ++w) {
      for (PartitionId q = 0; q < k; ++q) {
        auto it = mirror.find({q, w});
        ASSERT_EQ(gamma.get(q, w), it == mirror.end() ? 0u : it->second)
            << "step=" << step << " w=" << w << " q=" << q;
      }
    }
  }
}

TEST(GammaWindow, CoarseSaveRestoreMidShardIsEquivalent) {
  // Snapshot a coarse-mode window mid-shard, restore into a fresh instance,
  // and drive both with the same tail of operations: every observable
  // (base, membership, counters) must stay in lockstep. This is the
  // window-level half of the coarse-slide kill-and-resume contract.
  GammaWindow live(100, 2, 10, SlideMode::kCoarse);
  live.advance_to(23);  // coarse-aligned to 20
  live.increment(0, 24);
  live.increment(1, 27);
  ASSERT_EQ(live.base(), 20u);

  StateWriter out;
  live.save(out);
  GammaWindow restored(100, 2, 10, SlideMode::kCoarse);
  StateReader in(out.bytes());
  restored.restore(in);

  EXPECT_EQ(restored.base(), live.base());
  for (VertexId u = 20; u < 30; ++u) {
    EXPECT_EQ(restored.get(0, u), live.get(0, u)) << "u=" << u;
    EXPECT_EQ(restored.get(1, u), live.get(1, u)) << "u=" << u;
  }
  // Same tail on both: mid-shard arrivals (no movement), then a shard jump.
  for (GammaWindow* w : {&live, &restored}) {
    w->advance_to(26);
    w->increment(1, 29);
    w->advance_to(31);
    w->increment(0, 35);
  }
  EXPECT_EQ(live.base(), 30u);
  EXPECT_EQ(restored.base(), live.base());
  for (VertexId u = 30; u < 40; ++u) {
    EXPECT_EQ(restored.get(0, u), live.get(0, u)) << "u=" << u;
    EXPECT_EQ(restored.get(1, u), live.get(1, u)) << "u=" << u;
  }
}

TEST(GammaWindow, MemoryShrinksWithShards) {
  GammaWindow full(1 << 20, 32, 1);
  GammaWindow windowed(1 << 20, 32, 128);
  EXPECT_NEAR(static_cast<double>(full.memory_footprint_bytes()) /
                  windowed.memory_footprint_bytes(),
              128.0, 1.0);
}

TEST(GammaWindow, Validates) {
  EXPECT_THROW(GammaWindow(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(GammaWindow(10, 2, 0), std::invalid_argument);
}

TEST(ConcurrentGamma, BasicSemanticsMatchSequential) {
  ConcurrentGammaWindow gamma(100, 4, 10);
  gamma.increment(2, 5);
  gamma.increment(2, 5);
  EXPECT_EQ(gamma.get(2, 5), 2u);
  gamma.advance_to(6);
  EXPECT_EQ(gamma.get(2, 5), 0u);   // retired
  EXPECT_EQ(gamma.get(2, 15), 0u);  // fresh slot zeroed
  gamma.advance_to(3);              // backwards: ignored
  EXPECT_EQ(gamma.base(), 6u);
}

TEST(ConcurrentGamma, ConcurrentIncrementsAllLand) {
  ConcurrentGammaWindow gamma(1000, 2, 1);
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) gamma.increment(1, 7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gamma.get(1, 7), kThreads * kPerThread);
}

// Both windows keep their counters in a ZeroedArray: heap memory below
// 2 MiB, a kernel-zeroed mapping from 2 MiB up. These run each window on
// both sides of that line.
template <class Window>
class GammaStorage : public ::testing::Test {};
using Windows = ::testing::Types<GammaWindow, ConcurrentGammaWindow>;
TYPED_TEST_SUITE(GammaStorage, Windows);

constexpr PartitionId kStorageK = 4;
// Rows whose K counters fill exactly 2 MiB.
constexpr VertexId kHugeRows = kHugePageBytes / (kStorageK * sizeof(GammaCount));

/// The count the round-trip test gives id u in partition u % K (0 for the
/// others): nonzero on every seventh id.
std::uint32_t pattern(VertexId u) { return u % 7 == 0 ? u % 5 + 1 : 0; }

TYPED_TEST(GammaStorage, StartsZeroedJustBelowAndAboveTwoMiB) {
  for (const VertexId rows : {kHugeRows - 1, kHugeRows + 1}) {
    {
      // Dirty heap memory of the table's size: an allocation that skipped
      // zeroing would likely be handed it back.
      std::vector<GammaCount> dirty(static_cast<std::size_t>(rows) * kStorageK, 0xBEEF);
      ASSERT_EQ(dirty.back(), 0xBEEF);
    }
    const TypeParam gamma(rows, kStorageK, 1);
    ASSERT_EQ(gamma.window_size(), rows);
    EXPECT_EQ(gamma.memory_footprint_bytes(),
              static_cast<std::size_t>(rows) * kStorageK * sizeof(GammaCount));
    std::size_t nonzero = 0;
    for (VertexId u = 0; u < rows; ++u) {
      for (PartitionId p = 0; p < kStorageK; ++p) nonzero += gamma.get(p, u) != 0;
    }
    EXPECT_EQ(nonzero, 0u) << rows << " rows";
  }
}

TYPED_TEST(GammaStorage, ShrinkSaveRestoreRoundTripAcrossTwoMiB) {
  // 1.5x the 2 MiB table, shrunk to 0.75x: the shrink moves the counters
  // from a mapping onto the heap.
  const VertexId n = kHugeRows * 3 / 2;
  const VertexId base = 1000;
  const VertexId shrunk = kHugeRows * 3 / 4;
  TypeParam gamma(n, kStorageK, 1);
  gamma.advance_to(base);
  for (VertexId u = base; u < n; ++u) {
    for (std::uint32_t c = 0; c < pattern(u); ++c) gamma.increment(u % kStorageK, u);
  }
  gamma.shrink_to(shrunk);
  ASSERT_EQ(gamma.window_size(), shrunk);
  EXPECT_EQ(gamma.memory_footprint_bytes(),
            static_cast<std::size_t>(shrunk) * kStorageK * sizeof(GammaCount));

  StateWriter out;
  gamma.save(out);
  TypeParam restored(n, kStorageK, 1);
  StateReader in(out.bytes());
  restored.restore(in);
  EXPECT_TRUE(in.exhausted());
  ASSERT_EQ(restored.window_size(), shrunk);
  ASSERT_EQ(restored.base(), base);
  for (const TypeParam* w : {&gamma, &restored}) {
    for (VertexId u = base; u < base + shrunk; ++u) {
      for (PartitionId p = 0; p < kStorageK; ++p) {
        ASSERT_EQ(w->get(p, u), p == u % kStorageK ? pattern(u) : 0u) << "u=" << u;
      }
    }
    EXPECT_FALSE(w->contains(base + shrunk));
  }
}

// Γ counters are 16 bits and saturate at kGammaCountMax instead of wrapping.
constexpr int kPastCap = 70000;

TYPED_TEST(GammaStorage, IncrementsSaturateAtTheCap) {
  TypeParam gamma(10, 2, 1);
  for (int i = 0; i < kPastCap; ++i) gamma.increment(1, 3);
  EXPECT_EQ(gamma.get(1, 3), kGammaCountMax);
  EXPECT_EQ(gamma.get(0, 3), 0u);
}

TYPED_TEST(GammaStorage, ShrinkSaveRestoreKeepASaturatedCount) {
  TypeParam gamma(100, 2, 1);
  for (int i = 0; i < kPastCap; ++i) gamma.increment(0, 5);
  gamma.shrink_to(10);
  EXPECT_EQ(gamma.get(0, 5), kGammaCountMax);
  StateWriter out;
  gamma.save(out);
  TypeParam restored(100, 2, 1);
  StateReader in(out.bytes());
  restored.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.get(0, 5), kGammaCountMax);
  restored.increment(0, 5);
  EXPECT_EQ(restored.get(0, 5), kGammaCountMax);
}

TEST(ConcurrentGamma, DuplicateRunStopsAtTheCap) {
  ConcurrentGammaWindow gamma(10, 2, 1);
  // From zero, one coalesced run longer than the cap.
  const std::vector<VertexId> long_run(kPastCap, 4);
  gamma.increment_many(1, long_run);
  EXPECT_EQ(gamma.get(1, 4), kGammaCountMax);
  // A run that starts below the cap and crosses it.
  for (int i = 0; i < kGammaCountMax - 10; ++i) gamma.increment(0, 6);
  const std::vector<VertexId> crossing{2, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 8};
  gamma.increment_many(0, crossing);
  EXPECT_EQ(gamma.get(0, 6), kGammaCountMax);
  EXPECT_EQ(gamma.get(0, 2), 1u);
  EXPECT_EQ(gamma.get(0, 8), 1u);
}

TEST(ConcurrentGamma, RacingIncrementsStopExactlyAtTheCap) {
  ConcurrentGammaWindow gamma(10, 2, 1);
  constexpr int kThreads = 4, kPerThread = 20000;  // 80,000 > the cap
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) gamma.increment(1, 7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gamma.get(1, 7), kGammaCountMax);
}

TEST(GammaTables, ConstructionLeavesThreeQuartersUntouched) {
  // No eager zero-fill: constructing a 1M-vertex K=64 Γ table does not make
  // it resident. X=1 (the full 128 MB table) keeps the bound clear of SPNL's
  // 4 MB route table, which the constructor does fill, even where a
  // sanitizer shadows that fill with several times its size (TSan: about
  // 20 MB, over a quarter of a 64 MB table).
  constexpr VertexId kVertices = 1000000;
  constexpr PartitionId kParts = 64;
  PartitionConfig config;
  config.num_partitions = kParts;
  const std::size_t before = current_rss_bytes();
  ASSERT_GT(before, 0u) << "VmRSS unreadable";
  const SpnlPartitioner spnl(kVertices, 8 * kVertices, config, {.num_shards = 1});
  const std::size_t spnl_gamma = spnl.gamma().memory_footprint_bytes();
  ASSERT_EQ(spnl_gamma, std::size_t{kVertices} * kParts * sizeof(GammaCount));
  const std::size_t after_spnl = current_rss_bytes();
  EXPECT_LT(after_spnl - std::min(after_spnl, before), spnl_gamma / 4);

  const ConcurrentGammaWindow concurrent(kVertices, kParts, 1);
  ASSERT_EQ(concurrent.memory_footprint_bytes(), spnl_gamma);
  const std::size_t after_concurrent = current_rss_bytes();
  EXPECT_LT(after_concurrent - std::min(after_concurrent, after_spnl),
            concurrent.memory_footprint_bytes() / 4);
}

}  // namespace
}  // namespace spnl
