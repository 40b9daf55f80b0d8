// Pipeline watchdog: straggler detection, in-flight record rescue, and
// clean abort of a fully wedged pipeline. Unit tests drive the
// publish/claim/steal protocol directly; integration tests inject stuck and
// slow workers into run_parallel and assert the kill-path acceptance
// criteria — the run completes, the route validates, and quality stays
// within 10% of an un-faulted run.
#include "core/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_driver.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/metrics.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

Graph crawl(VertexId n = 10000, std::uint64_t seed = 1) {
  return generate_webcrawl({.num_vertices = n, .avg_out_degree = 8.0,
                            .locality = 0.9, .locality_scale = 30.0,
                            .seed = seed});
}

TEST(Watchdog, StalledPublishedRecordIsStolenAndRescued) {
  std::vector<std::uint64_t> rescued;
  std::mutex rescued_mutex;
  std::atomic<bool> abort_called{false};
  PipelineWatchdog watchdog(
      1, {.timeout_seconds = 0.05},
      [&](unsigned worker, std::uint64_t index) {
        std::lock_guard lock(rescued_mutex);
        EXPECT_EQ(worker, 0u);
        rescued.push_back(index);
      },
      [&] { abort_called = true; });
  watchdog.start();

  watchdog.publish(0, 42);
  // Worker "wedges" here: never claims. The monitor must steal the record.
  EXPECT_TRUE(watchdog.wait_until_stolen(0, 5.0));
  EXPECT_FALSE(watchdog.claim(0));  // the worker lost the race
  watchdog.stop();

  EXPECT_EQ(rescued, (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(watchdog.rescued_records(), 1u);
  EXPECT_EQ(watchdog.stalled_workers(), 1u);
  // One stalled worker out of one published slot is not an all-wedged
  // pipeline: the published record was stealable.
  EXPECT_FALSE(abort_called.load());
  EXPECT_FALSE(watchdog.aborted());
}

TEST(Watchdog, PromptClaimAndCompleteAreNeverStolen) {
  std::atomic<std::uint64_t> rescues{0};
  PipelineWatchdog watchdog(
      2, {.timeout_seconds = 0.05},
      [&](unsigned, std::uint64_t) { ++rescues; }, [] {});
  watchdog.start();
  for (int i = 0; i < 50; ++i) {
    const unsigned w = static_cast<unsigned>(i % 2);
    watchdog.publish(w, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(watchdog.claim(w));
    watchdog.complete(w);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  watchdog.stop();
  EXPECT_EQ(rescues.load(), 0u);
  EXPECT_EQ(watchdog.rescued_records(), 0u);
  EXPECT_EQ(watchdog.stalled_workers(), 0u);
  EXPECT_FALSE(watchdog.aborted());
}

TEST(Watchdog, AllWorkersWedgedMidPlacementAborts) {
  std::atomic<bool> abort_called{false};
  PipelineWatchdog watchdog(
      2, {.timeout_seconds = 0.05}, [](unsigned, std::uint64_t) {},
      [&] { abort_called = true; });
  watchdog.start();
  // Both workers claim (kProcessing — unstealable) and then stall.
  for (unsigned w = 0; w < 2; ++w) {
    watchdog.publish(w, w);
    ASSERT_TRUE(watchdog.claim(w));
  }
  EXPECT_TRUE(watchdog.wait_until_aborted(5.0));
  watchdog.stop();
  EXPECT_TRUE(abort_called.load());
  EXPECT_TRUE(watchdog.aborted());
  EXPECT_FALSE(watchdog.abort_reason().empty());
  EXPECT_EQ(watchdog.rescued_records(), 0u);  // kProcessing is never stolen
  EXPECT_EQ(watchdog.stalled_workers(), 2u);
}

TEST(Watchdog, HeartbeatKeepsProcessingWorkerAlive) {
  std::atomic<bool> abort_called{false};
  PipelineWatchdog watchdog(
      1, {.timeout_seconds = 0.08}, [](unsigned, std::uint64_t) {},
      [&] { abort_called = true; });
  watchdog.start();
  watchdog.publish(0, 1);
  ASSERT_TRUE(watchdog.claim(0));
  // A slow-but-alive placement: heartbeats inside the timeout window.
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    watchdog.heartbeat(0);
  }
  watchdog.complete(0);
  watchdog.stop();
  EXPECT_FALSE(abort_called.load());
  EXPECT_EQ(watchdog.stalled_workers(), 0u);
}

// ---------------------------------------------------------------------------
// Integration with run_parallel via the deterministic fault plan.

// The RCT is on, so rescues and quiesces also run beside parked records.
ParallelOptions watchdog_options(unsigned threads, double timeout = 0.15) {
  ParallelOptions options;
  options.num_threads = threads;
  options.use_rct = true;
  options.watchdog_timeout_seconds = timeout;
  return options;
}

TEST(WatchdogIntegration, StuckWorkerIsRescuedAndRunCompletes) {
  // The rescue places a stolen record in place, from the reader's slab ring,
  // and retires it there. The 40k crawl is longer than the ring (4 slabs of
  // 4096 records), so the ring laps after the early rescues: a record
  // retired twice or never would hang the reader, one retired before its
  // rescue would be overwritten under it.
  for (const VertexId n : {VertexId{10000}, VertexId{40000}}) {
    const Graph g = crawl(n, 21);
    const PartitionId k = 8;

    // Baseline quality without faults.
    InMemoryStream baseline_stream(g);
    const auto baseline =
        run_parallel(baseline_stream, {.num_partitions = k}, watchdog_options(4));
    const double baseline_ecr = evaluate_partition(g, baseline.route, k).ecr;

    // Each worker freezes between publish and claim on its 50th pop; the
    // monitor steals and places the record, the worker later resumes. Every
    // worker carries the fault because a worker the OS starts late may take
    // fewer than 50 records of a claim-based stream, while the busiest one
    // always takes at least a quarter of it.
    ParallelOptions options = watchdog_options(4);
    for (unsigned w = 0; w < options.num_threads; ++w) {
      options.faults.stuck.push_back(
          {.worker = w, .at_pop = 50, .in_processing = false,
           .max_stall_seconds = 10.0});
    }
    InMemoryStream stream(g);
    const auto result = run_parallel(stream, {.num_partitions = k}, options);

    EXPECT_FALSE(result.aborted) << "n=" << n;
    validate_route(result.route, k, g.num_vertices());
    EXPECT_GE(result.stalled_workers, 1u) << "n=" << n;
    EXPECT_GE(result.rescued_records, 1u) << "n=" << n;
    // Acceptance: quality within 10% of the un-faulted run.
    const auto metrics = evaluate_partition(g, result.route, k);
    EXPECT_LE(metrics.ecr, baseline_ecr + 0.10) << "n=" << n;
    EXPECT_LE(metrics.delta_v, 1.2) << "n=" << n;
  }
}

TEST(WatchdogIntegration, SlowWorkerOnlyDelaysCompletion) {
  const Graph g = crawl(2000, 23);
  ParallelOptions options = watchdog_options(3, /*timeout=*/0.5);
  // 1ms per pop on worker 0: a straggler well inside the heartbeat window.
  options.faults.slow.push_back({.worker = 0, .delay_seconds = 0.001});
  InMemoryStream stream(g);
  const auto result = run_parallel(stream, {.num_partitions = 4}, options);
  EXPECT_FALSE(result.aborted);
  validate_route(result.route, 4, g.num_vertices());
  EXPECT_EQ(result.rescued_records, 0u);
}

TEST(WatchdogIntegration, FullyWedgedPipelineAbortsWithPartialRoute) {
  const Graph g = crawl(5000, 25);
  const PartitionId k = 4;
  ParallelOptions options = watchdog_options(1);
  // The only worker wedges INSIDE a placement: unstealable, so the monitor
  // must declare the pipeline dead instead of hanging.
  options.faults.stuck.push_back(
      {.worker = 0, .at_pop = 100, .in_processing = true,
       .max_stall_seconds = 30.0});
  InMemoryStream stream(g);
  try {
    run_parallel(stream, {.num_partitions = k}, options);
    FAIL() << "expected StreamAborted";
  } catch (const StreamAborted& e) {
    EXPECT_TRUE(e.result.aborted);
    EXPECT_FALSE(e.result.abort_reason.empty());
    EXPECT_GE(e.result.stalled_workers, 1u);
    // The partial route is valid: every assigned entry is in range, and at
    // least the pre-wedge prefix was placed.
    ASSERT_EQ(e.result.route.size(), g.num_vertices());
    VertexId assigned = 0;
    for (PartitionId p : e.result.route) {
      if (p == kUnassigned) continue;
      ASSERT_LT(p, k);
      ++assigned;
    }
    EXPECT_GE(assigned, 50u);
    EXPECT_LT(assigned, g.num_vertices());
  }
}

TEST(WatchdogIntegration, BallastPressureRunsToCompletion) {
  const Graph g = crawl(2000, 27);
  ParallelOptions options = watchdog_options(2);
  options.faults.ballast_bytes = 8u << 20;  // 8 MiB of touched heap ballast
  InMemoryStream stream(g);
  const auto result = run_parallel(stream, {.num_partitions = 4}, options);
  EXPECT_FALSE(result.aborted);
  validate_route(result.route, 4, g.num_vertices());
}

TEST(WatchdogIntegration, StuckWorkerWithoutWatchdogSelfReleases) {
  // Sanity for the fault plan itself: with no watchdog the stall simply
  // expires after max_stall_seconds and the run still completes.
  const Graph g = crawl(1000, 29);
  ParallelOptions options;
  options.num_threads = 2;
  options.faults.stuck.push_back(
      {.worker = 0, .at_pop = 10, .in_processing = false,
       .max_stall_seconds = 0.1});
  InMemoryStream stream(g);
  const auto result = run_parallel(stream, {.num_partitions = 4}, options);
  EXPECT_FALSE(result.aborted);
  validate_route(result.route, 4, g.num_vertices());
  EXPECT_EQ(result.rescued_records, 0u);
}

TEST(WatchdogIntegration, GovernorDegradesParallelPipeline) {
  const Graph g = crawl(20000, 31);
  const PartitionId k = 8;
  ParallelOptions options = watchdog_options(4);
  ResourceGovernor governor({.memory_budget_bytes = 1, .sample_interval = 256});
  options.governor = &governor;
  InMemoryStream stream(g);
  const auto result = run_parallel(stream, {.num_partitions = k}, options);
  EXPECT_FALSE(result.aborted);
  validate_route(result.route, k, g.num_vertices());
  ASSERT_GE(result.degradations.size(), 1u);
  // An impossible budget bottoms the ladder out in hash fallback; balance
  // still holds because hash votes flow through capacity weighting.
  EXPECT_EQ(result.degradations.back().stage, DegradationStage::kHashFallback);
  EXPECT_LE(evaluate_partition(g, result.route, k).delta_v, 1.2);
}

TEST(WatchdogIntegration, GovernorDegradesEdgeBalancedParallelPipeline) {
  // Under edge balance every placement is flushed at once, so each claim
  // ends with its records already accounted and a quiesce may begin while
  // its worker is still sliding the Γ window over them. The slide must stay
  // inside the pipeline lock: the ladder's shrink_to swaps the rows it
  // clears (a use-after-free the sanitizer builds catch). Checkpoints add
  // more quiesces, each of which serializes those rows.
  const PartitionId k = 8;
  const std::filesystem::path dir = unique_test_dir();
  for (const std::uint64_t seed : {33u, 35u, 37u, 39u}) {
    const Graph g = crawl(20000, seed);
    ParallelOptions options = watchdog_options(4);
    ResourceGovernor governor({.memory_budget_bytes = 1, .sample_interval = 64});
    options.governor = &governor;
    const std::string checkpoint = (dir / "edge_governor.ckpt").string();
    options.checkpoint_path = checkpoint;
    options.checkpoint_every = 640;
    InMemoryStream stream(g);
    const auto result = run_parallel(
        stream, {.num_partitions = k, .balance = BalanceMode::kEdge}, options);
    EXPECT_FALSE(result.aborted) << "seed " << seed;
    validate_route(result.route, k, g.num_vertices());
    ASSERT_GE(result.degradations.size(), 1u) << "seed " << seed;
    EXPECT_EQ(result.degradations.back().stage, DegradationStage::kHashFallback);
    EXPECT_GT(result.checkpoints_written, 0u) << "seed " << seed;
    EXPECT_LE(evaluate_partition(g, result.route, k).delta_e, 1.2) << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spnl
