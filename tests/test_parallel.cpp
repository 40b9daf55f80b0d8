#include "core/parallel_driver.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/spnl.hpp"
#include "core/watermark_tracker.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/driver.hpp"
#include "partition/metrics.hpp"
#include "reference_partitioners.hpp"
#include "test_dir.hpp"
#include "util/perf_stats.hpp"

namespace spnl {
namespace {

Graph crawl(VertexId n = 10000, std::uint64_t seed = 1) {
  return generate_webcrawl({.num_vertices = n, .avg_out_degree = 8.0,
                            .locality = 0.9, .locality_scale = 30.0,
                            .seed = seed});
}

ParallelRunResult run(const Graph& g, unsigned threads, bool use_rct = true,
                      PartitionId k = 8) {
  InMemoryStream stream(g);
  PartitionConfig config{.num_partitions = k};
  ParallelOptions options;
  options.num_threads = threads;
  options.use_rct = use_rct;
  return run_parallel(stream, config, options);
}

double sequential_ecr(const Graph& g, PartitionId k = 8) {
  PartitionConfig config{.num_partitions = k};
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(), config);
  InMemoryStream stream(g);
  const auto route = run_streaming(stream, partitioner).route;
  return evaluate_partition(g, route, k).ecr;
}

TEST(Parallel, SingleWorkerProducesCompleteBalancedPartition) {
  const Graph g = crawl();
  const auto result = run(g, 1);
  EXPECT_TRUE(is_complete_assignment(result.route, 8));
  const auto metrics = evaluate_partition(g, result.route, 8);
  EXPECT_LE(metrics.delta_v, 1.12);
}

TEST(Parallel, MultiWorkerProducesCompleteBalancedPartition) {
  const Graph g = crawl();
  const auto result = run(g, 4);
  EXPECT_TRUE(is_complete_assignment(result.route, 8));
  const auto metrics = evaluate_partition(g, result.route, 8);
  EXPECT_LE(metrics.delta_v, 1.15);
}

TEST(Parallel, QualityNearSequential) {
  // The paper's claim: RCT keeps parallel degradation small (<= ~6%).
  // Allow generous slack — scheduling is nondeterministic.
  const Graph g = crawl(20000, 3);
  const double seq = sequential_ecr(g);
  const auto par = run(g, 4);
  const double par_ecr = evaluate_partition(g, par.route, 8).ecr;
  EXPECT_LT(par_ecr, seq + 0.08);
}

TEST(Parallel, RctReducesDegradation) {
  // Averaged over a few seeds, RCT-on should not be worse than RCT-off.
  double with_rct = 0.0, without_rct = 0.0;
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const Graph g = crawl(10000, seed);
    with_rct += evaluate_partition(g, run(g, 4, true).route, 8).ecr;
    without_rct += evaluate_partition(g, run(g, 4, false).route, 8).ecr;
  }
  EXPECT_LE(with_rct, without_rct + 0.02 * 3);
}

TEST(Parallel, DelayedVerticesAreCounted) {
  const Graph g = crawl(20000, 9);
  const auto result = run(g, 4);
  // With 4 workers on a clustered stream some conflicts must be detected.
  // (Not guaranteed on every schedule, so only sanity-bound it.)
  EXPECT_LE(result.delayed_vertices, g.num_vertices());
  EXPECT_LE(result.forced_vertices, result.delayed_vertices);
}

TEST(Parallel, EveryVertexPlacedExactlyOnce) {
  const Graph g = crawl(5000, 11);
  const auto result = run(g, 8);
  ASSERT_EQ(result.route.size(), g.num_vertices());
  std::vector<VertexId> counts(8, 0);
  for (PartitionId p : result.route) {
    ASSERT_LT(p, 8u);
    ++counts[p];
  }
  VertexId total = 0;
  for (VertexId c : counts) total += c;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(Parallel, WorksWithoutLocality) {
  const Graph g = crawl(5000, 13);
  InMemoryStream stream(g);
  PartitionConfig config{.num_partitions = 8};
  ParallelOptions options;
  options.num_threads = 2;
  options.use_locality = false;  // parallel SPN
  const auto result = run_parallel(stream, config, options);
  EXPECT_TRUE(is_complete_assignment(result.route, 8));
}

TEST(Parallel, ZeroThreadsRejected) {
  const Graph g = crawl(100, 15);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 0;
  EXPECT_THROW(run_parallel(stream, {.num_partitions = 2}, options),
               std::invalid_argument);
}

TEST(Parallel, EmptyGraph) {
  Graph g;
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 2;
  const auto result = run_parallel(stream, {.num_partitions = 4}, options);
  EXPECT_TRUE(result.route.empty());
}

TEST(Parallel, ReportsMemoryFootprint) {
  const Graph g = crawl(5000, 19);
  const auto result = run(g, 2);
  EXPECT_GT(result.peak_partitioner_bytes, 0u);
}

// MC counts the input stream's buffers at their largest, although the text
// reader frees them when the stream ends, before the run's last sample.
TEST(Parallel, MemoryFootprintCountsTheTextReadersBuffers) {
  const Graph g = crawl(20000, 23);
  const auto dir = unique_test_dir();
  const std::string path = (dir / "crawl.adj").string();
  write_adjacency_list(g, path);
  const PartitionConfig config{.num_partitions = 8};
  ParallelOptions options;
  options.num_threads = 2;
  options.use_rct = false;
  InMemoryStream memory(g);
  const std::size_t in_memory = run_parallel(memory, config, options).peak_partitioner_bytes;
  FileAdjacencyStream file(path);
  const std::size_t from_file = run_parallel(file, config, options).peak_partitioner_bytes;
  EXPECT_EQ(file.memory_footprint_bytes(), 0u);
  EXPECT_GT(from_file, in_memory);
  std::filesystem::remove_all(dir);
}

TEST(WatermarkTracker, FollowsTheContiguousPlacedPrefix) {
  WatermarkTracker tracker(64);
  EXPECT_EQ(tracker.advance(), 0u);
  tracker.mark(1);
  EXPECT_EQ(tracker.advance(), 0u);  // id 0 still unplaced
  tracker.mark(0);
  EXPECT_EQ(tracker.advance(), 2u);
  for (VertexId id = 2; id < 1000; ++id) {
    tracker.mark(id);
    EXPECT_EQ(tracker.advance(), id + 1);
  }
}

TEST(WatermarkTracker, RecordParkedPastTheRingDoesNotWedgeTheScan) {
  // Id 0 stays unplaced, like a cyclically parked record, while every later
  // id is placed in claim-sized runs. Once the ids wrap the ring, id
  // ring_ids()'s mark stands in for id 0's and every slot is set: a scan
  // without the one-lap bound never returns. With it the watermark moves
  // past id 0 and afterwards trails the placed ids by at most one ring.
  WatermarkTracker tracker(64);
  const auto ring = static_cast<VertexId>(tracker.ring_ids());
  ASSERT_GE(ring, 64u);
  VertexId watermark = 0;
  for (VertexId id = 1; id < 6 * ring; ++id) {
    tracker.mark(id);
    if ((id + 1) % kParallelClaimRecords != 0) continue;
    if (const VertexId moved = tracker.advance()) watermark = moved;
    if (id < ring) {
      EXPECT_EQ(watermark, 0u) << "id " << id;
    } else {
      EXPECT_GT(watermark, 0u) << "id " << id;
      EXPECT_LT(id - watermark, ring + kParallelClaimRecords) << "id " << id;
    }
  }
  tracker.mark(0);  // the forced tail places it at last
  tracker.advance();
}

TEST(Parallel, SingleWorkerRouteMatchesSequentialSpnl) {
  // The worker scores through the same kernel as the sequential partitioner,
  // so with one worker (the stream order is the placement order and nothing
  // else slides the window) run_parallel must reproduce SpnlPartitioner's
  // route byte for byte, for every estimator, η policy and window width. The
  // random graph places many vertices outside their logical range, where the
  // worker's cached η must follow both the placed and the logical partition.
  const Graph graphs[] = {crawl(4000, 61), generate_erdos_renyi(4000, 32000, 61)};
  const PartitionConfig config{.num_partitions = 8};
  int configs = 0;
  for (const Graph& g : graphs) {
    for (const auto estimator :
         {InNeighborEstimator::kSelf, InNeighborEstimator::kNeighborSum}) {
      for (const auto eta : {EtaPolicy::kPaper, EtaPolicy::kLinear,
                             EtaPolicy::kConstant, EtaPolicy::kZero}) {
        for (const std::uint32_t shards : {1u, 4u}) {
          const SpnlOptions spnl{
              .num_shards = shards, .estimator = estimator, .eta_policy = eta};
          SpnlPartitioner sequential(g.num_vertices(), g.num_edges(), config, spnl);
          InMemoryStream seq_stream(g);
          const auto expected = run_streaming(seq_stream, sequential).route;
          ASSERT_TRUE(is_complete_assignment(expected, 8));
          ++configs;
          InMemoryStream stream(g);
          ParallelOptions options;
          options.num_threads = 1;
          options.spnl = spnl;
          EXPECT_EQ(run_parallel(stream, config, options).route, expected)
              << "graph=" << &g - graphs << " estimator=" << static_cast<int>(estimator)
              << " eta=" << static_cast<int>(eta) << " shards=" << shards;
        }
      }
    }
  }
  EXPECT_EQ(configs, 32);
}

TEST(Parallel, SingleWorkerRouteMatchesSequentialSpn) {
  // Parallel SPN (use_locality=false) scores through the kernel's SPN branch,
  // which adds λ once per placed out-neighbor as SpnPartitioner does, so at
  // M=1 the routes are equal byte for byte. λ = 0.3 and 0.9 are the values
  // where λ·count and a repeated += λ round differently.
  const Graph g = crawl(4000, 63);
  const PartitionConfig config{.num_partitions = 8};
  int configs = 0;
  for (const double lambda : {0.5, 0.3, 0.9}) {
    for (const auto estimator :
         {InNeighborEstimator::kSelf, InNeighborEstimator::kNeighborSum}) {
      for (const std::uint32_t shards : {1u, 4u}) {
        ++configs;
        SpnPartitioner sequential(
            g.num_vertices(), g.num_edges(), config,
            SpnOptions{.lambda = lambda, .num_shards = shards, .estimator = estimator});
        InMemoryStream seq_stream(g);
        const auto expected = run_streaming(seq_stream, sequential).route;
        ASSERT_TRUE(is_complete_assignment(expected, 8));
        InMemoryStream stream(g);
        ParallelOptions options;
        options.num_threads = 1;
        options.use_locality = false;
        options.spnl = SpnlOptions{
            .lambda = lambda, .num_shards = shards, .estimator = estimator};
        EXPECT_EQ(run_parallel(stream, config, options).route, expected)
            << "lambda=" << lambda << " estimator=" << static_cast<int>(estimator)
            << " shards=" << shards;
      }
    }
  }
  EXPECT_EQ(configs, 12);
}

TEST(Parallel, StreamLongerThanTheSlabRingPlacesEveryRecordOnce) {
  // 24000 records cycle the reader's slab ring (four slabs of 4096) with
  // four workers and the RCT on. Every worker is a straggler that sleeps
  // while scoring each record, after the RCT counted its dependencies, so
  // the four in-flight records always overlap. On a ring lattice with 16
  // successors every record reaches into the claim after its own, so a
  // record is bumped by an earlier one still in flight and parked on every
  // run, whatever the machine's load. A claim is retired with its parked
  // records, so their slab may be refilled before they are released: they
  // are placed from the copy park() keeps, exactly once each.
  const Graph g = generate_ring_lattice(24000, 16);
  for (int rep = 0; rep < 2; ++rep) {
    InMemoryStream stream(g);
    PerfStats perf;
    ParallelOptions options;
    options.num_threads = 4;
    options.use_rct = true;
    options.perf = &perf;
    for (unsigned t = 0; t < options.num_threads; ++t) {
      options.faults.slow.push_back(
          {.worker = t, .delay_seconds = 0.00001, .every = 1});
    }
    const auto result = run_parallel(stream, {.num_partitions = 8}, options);
    ASSERT_TRUE(is_complete_assignment(result.route, 8)) << "rep " << rep;
    validate_route(result.route, 8, g.num_vertices());
    EXPECT_GT(result.delayed_vertices, 0u) << "rep " << rep;
    EXPECT_EQ(perf.calls(PerfStage::kCommit), g.num_vertices()) << "rep " << rep;
    EXPECT_LE(result.forced_vertices, result.delayed_vertices);
    EXPECT_LE(evaluate_partition(g, result.route, 8).delta_v, 1.15);
  }
}

TEST(Parallel, UntrackedOverflowSurfacesInResult) {
  // A deliberately undersized RCT (ε = 0.25 with four workers gives
  // capacity ceil(1) = 1) overflows whenever two workers merely overlap in
  // flight, so some registrations must be refused — and every refusal must
  // be visible in the result instead of silently degrading quality. Every worker sleeps
  // while scoring each record, so the overlap happens on every run, also on
  // a loaded machine that would otherwise run the workers one at a time.
  for (std::uint64_t seed : {41u, 43u, 47u}) {
    const Graph g = crawl(10000, seed);
    InMemoryStream stream(g);
    ParallelOptions options;
    options.num_threads = 4;
    options.use_rct = true;
    options.epsilon = 0.25;  // capacity ceil(0.25 * 4) = 1 entry
    for (unsigned t = 0; t < options.num_threads; ++t) {
      options.faults.slow.push_back(
          {.worker = t, .delay_seconds = 0.00001, .every = 1});
    }
    const auto result = run_parallel(stream, {.num_partitions = 8}, options);
    EXPECT_TRUE(is_complete_assignment(result.route, 8));
    EXPECT_GT(result.untracked_overflow, 0u) << "seed " << seed;
  }
}

// The fuzz race of the claim-based pipeline: worker counts × Γ-window
// shards × injected stragglers. Every configuration must produce a complete
// in-range route, hold the capacity balance, and stay quality-equivalent
// (~5% edge-cut) to the sequential oracle in reference_partitioners.hpp.
TEST(Parallel, BatchedFuzzRaceStaysValidBalancedAndNearOracle) {
  const Graph g = crawl(4000, 37);
  const PartitionId k = 8;
  const PartitionConfig config{.num_partitions = k};

  // Sequential oracle per window setting (the window width changes what any
  // partitioner, sequential or parallel, can see).
  auto oracle_ecr = [&](std::uint32_t shards) {
    ReferenceSpnlPartitioner oracle(g.num_vertices(), g.num_edges(), config,
                                    SpnlOptions{.num_shards = shards});
    InMemoryStream stream(g);
    return evaluate_partition(g, run_streaming(stream, oracle).route, k).ecr;
  };
  const double oracle_default = oracle_ecr(1);  // 1 shard = full window
  const double oracle_sharded = oracle_ecr(4);

  int configs = 0;
  for (const unsigned threads : {2u, 4u}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const bool slow : {false, true}) {
        ++configs;
        ParallelOptions options;
        options.num_threads = threads;
        options.spnl.num_shards = shards;
        if (slow) {
          options.faults.slow.push_back(
              {.worker = 0, .delay_seconds = 0.0002, .every = 16});
        }
        InMemoryStream stream(g);
        const auto result = run_parallel(stream, config, options);
        const std::string label = "threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards) +
                                  " slow=" + std::to_string(slow);
        EXPECT_TRUE(is_complete_assignment(result.route, k)) << label;
        const auto metrics = evaluate_partition(g, result.route, k);
        EXPECT_LE(metrics.delta_v, 1.2) << label;
        const double oracle = shards == 1 ? oracle_default : oracle_sharded;
        // ±5% edge-cut equivalence, with a small absolute floor so a
        // near-zero oracle cut cannot make the bound vacuous-tight.
        EXPECT_LE(metrics.ecr, oracle + std::max(0.05 * oracle, 0.04)) << label;
      }
    }
  }
  EXPECT_EQ(configs, 8);
}

TEST(Parallel, MultiWorkerFuzzStaysValidAndNearOracle) {
  // M ∈ {2, 4, 8}, every worker incrementing the shared Γ window eagerly. Routes are schedule-dependent at M > 1, so the contract
  // is structural: complete in-range assignment, capacity balance, and
  // edge-cut equivalence to the sequential oracle.
  const Graph g = crawl(4000, 53);
  const PartitionId k = 8;
  const PartitionConfig config{.num_partitions = k};

  ReferenceSpnlPartitioner oracle_partitioner(g.num_vertices(), g.num_edges(),
                                              config, SpnlOptions{});
  double oracle = 0.0;
  {
    InMemoryStream stream(g);
    oracle = evaluate_partition(
                 g, run_streaming(stream, oracle_partitioner).route, k)
                 .ecr;
  }

  int configs = 0;
  for (const unsigned threads : {2u, 4u, 8u}) {
    ++configs;
    InMemoryStream stream(g);
    ParallelOptions options;
    options.num_threads = threads;
    const auto result = run_parallel(stream, config, options);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_TRUE(is_complete_assignment(result.route, k)) << label;
    const auto metrics = evaluate_partition(g, result.route, k);
    EXPECT_LE(metrics.delta_v, 1.2) << label;
    EXPECT_LE(metrics.ecr, oracle + std::max(0.05 * oracle, 0.04)) << label;
  }
  EXPECT_EQ(configs, 3);
}

TEST(Parallel, ContentionReportBoundsRctAndQueueTraffic) {
  // The RCT takes its mutex once per record operation: every record is
  // registered and has its out-list bumped, a tracked one also asks whether
  // to park, and a placed one is finalized — two to four acquisitions per
  // record, plus the drain of the forced tail. With a perf sink attached,
  // every claim is one kQueueWait call: at least one per publish stride, at
  // most one per record plus each worker's final empty claim.
  const VertexId n = 10000;
  const Graph g = crawl(n, 57);
  const PartitionConfig config{.num_partitions = 8};

  InMemoryStream stream(g);
  PerfStats perf;
  ParallelOptions options;
  options.num_threads = 4;
  options.use_rct = true;
  options.perf = &perf;
  const auto result = run_parallel(stream, config, options);
  const ContentionReport& c = result.contention;

  EXPECT_GE(c.rct_exclusive_acquires, 2 * n);
  EXPECT_LE(c.rct_exclusive_acquires, 4 * n + 1);
  EXPECT_LE(c.rct_exclusive_contended, c.rct_exclusive_acquires);
  EXPECT_GE(perf.calls(PerfStage::kQueueWait), n / kParallelPublishStride);
  EXPECT_LE(perf.calls(PerfStage::kQueueWait), n + options.num_threads);
}

TEST(Parallel, ContentionReportRctTalliesAreAlwaysOn) {
  // Without a perf sink the RCT's own tallies still populate the report.
  const VertexId n = 5000;
  const Graph g = crawl(n, 59);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 2;
  options.use_rct = true;
  const auto result = run_parallel(stream, {.num_partitions = 8}, options);
  EXPECT_GT(result.contention.rct_exclusive_acquires, 0u);
}

TEST(Parallel, DefaultRunTracksNoDependencies) {
  // The RCT is off by default: nothing is registered, delayed, forced or
  // refused, the table's mutex is never taken, and ECR stays within 0.05 of
  // sequential SPNL.
  const Graph g = crawl(20000, 3);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 4;
  const auto result = run_parallel(stream, {.num_partitions = 8}, options);
  EXPECT_TRUE(is_complete_assignment(result.route, 8));
  EXPECT_EQ(result.delayed_vertices, 0u);
  EXPECT_EQ(result.forced_vertices, 0u);
  EXPECT_EQ(result.untracked_overflow, 0u);
  EXPECT_EQ(result.contention.rct_exclusive_acquires, 0u);
  EXPECT_NEAR(evaluate_partition(g, result.route, 8).ecr, sequential_ecr(g), 0.05);
}

TEST(Parallel, PerfSinkNeverChangesARoute) {
  // With one worker the pipeline is deterministic, so attaching a sink must
  // leave the route byte-identical; the sink then counts every record once
  // in each per-record stage.
  const VertexId n = 5000;
  const Graph g = crawl(n, 61);
  const PartitionConfig config{.num_partitions = 8};
  ParallelOptions options;
  options.num_threads = 1;

  InMemoryStream plain_stream(g);
  const auto plain = run_parallel(plain_stream, config, options);

  PerfStats perf;
  options.perf = &perf;
  InMemoryStream instrumented_stream(g);
  const auto instrumented = run_parallel(instrumented_stream, config, options);

  EXPECT_EQ(instrumented.route, plain.route);
  for (const PerfStage stage : {PerfStage::kScore, PerfStage::kCommit,
                                PerfStage::kGammaIncrement,
                                PerfStage::kWindowAdvance}) {
    EXPECT_EQ(perf.calls(stage), n) << perf_stage_name(stage);
  }
}

}  // namespace
}  // namespace spnl
