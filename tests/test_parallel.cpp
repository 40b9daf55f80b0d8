#include "core/parallel_driver.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "partition/driver.hpp"
#include "partition/metrics.hpp"
#include "reference_partitioners.hpp"
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

TEST(Parallel, TinyQueueStillCompletes) {
  const Graph g = crawl(2000, 17);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 3;
  options.queue_capacity = 2;
  const auto result = run_parallel(stream, {.num_partitions = 4}, options);
  EXPECT_TRUE(is_complete_assignment(result.route, 4));
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

TEST(Parallel, ValidatedBatchSizeClampsAndRejects) {
  EXPECT_EQ(validated_batch_size(1, 4096), 1u);
  EXPECT_EQ(validated_batch_size(64, 4096), 64u);
  EXPECT_EQ(validated_batch_size(64, 10), 10u);   // clamp to queue capacity
  EXPECT_EQ(validated_batch_size(5, 0), 1u);      // degenerate queue
  EXPECT_THROW(validated_batch_size(0, 4096), std::invalid_argument);
  EXPECT_THROW(validated_batch_size(-3, 4096), std::invalid_argument);
}

TEST(Parallel, ZeroBatchSizeRejected) {
  const Graph g = crawl(100, 15);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 2;
  options.batch_size = 0;
  EXPECT_THROW(run_parallel(stream, {.num_partitions = 2}, options),
               std::invalid_argument);
}

TEST(Parallel, BatchLargerThanQueueIsClampedNotFatal) {
  const Graph g = crawl(2000, 17);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 3;
  options.queue_capacity = 2;
  options.batch_size = 1024;  // > capacity: must clamp, not throw or wedge
  const auto result = run_parallel(stream, {.num_partitions = 4}, options);
  EXPECT_TRUE(is_complete_assignment(result.route, 4));
}

TEST(Parallel, SingleWorkerRouteInvariantAcrossBatchSizes) {
  // Batching changes how records cross the queue, not what the (single)
  // worker does with them: with M=1 the placement sequence is the stream
  // order for every batch size, so the routes must be byte-identical.
  const Graph g = crawl(4000, 33);
  std::vector<PartitionId> reference;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    InMemoryStream stream(g);
    ParallelOptions options;
    options.num_threads = 1;
    options.batch_size = batch;
    const auto result = run_parallel(stream, {.num_partitions = 8}, options);
    if (reference.empty()) {
      reference = result.route;
      EXPECT_TRUE(is_complete_assignment(reference, 8));
    } else {
      EXPECT_EQ(result.route, reference) << "batch size " << batch;
    }
  }
}

TEST(Parallel, SingleWorkerRouteMatchesSequentialSpnl) {
  // The worker scores through the same kernel as the sequential partitioner,
  // so with one worker (the stream order is the placement order and nothing
  // else slides the window) run_parallel must reproduce SpnlPartitioner's
  // route byte for byte, for every estimator, η policy, window width and
  // batch size.
  const Graph g = crawl(4000, 61);
  const PartitionConfig config{.num_partitions = 8};
  int configs = 0;
  for (const auto estimator :
       {InNeighborEstimator::kSelf, InNeighborEstimator::kNeighborSum}) {
    for (const auto eta : {EtaPolicy::kPaper, EtaPolicy::kLinear, EtaPolicy::kConstant,
                           EtaPolicy::kZero}) {
      for (const std::uint32_t shards : {1u, 4u}) {
        const SpnlOptions spnl{
            .num_shards = shards, .estimator = estimator, .eta_policy = eta};
        SpnlPartitioner sequential(g.num_vertices(), g.num_edges(), config, spnl);
        InMemoryStream seq_stream(g);
        const auto expected = run_streaming(seq_stream, sequential).route;
        ASSERT_TRUE(is_complete_assignment(expected, 8));
        for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
          ++configs;
          InMemoryStream stream(g);
          ParallelOptions options;
          options.num_threads = 1;
          options.batch_size = batch;
          options.spnl = spnl;
          EXPECT_EQ(run_parallel(stream, config, options).route, expected)
              << "estimator=" << static_cast<int>(estimator)
              << " eta=" << static_cast<int>(eta) << " shards=" << shards
              << " batch=" << batch;
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

TEST(Parallel, UntrackedOverflowSurfacesInResult) {
  // Admission is global now, so a refusal means the whole table was full —
  // not just one stripe. A deliberately undersized RCT (ε = 0.25 with four
  // workers gives capacity ceil(1) = 1, no per-stripe floor inflating it)
  // overflows whenever two workers merely overlap in flight, so some
  // registrations must be refused — and every refusal must be visible in
  // the result instead of silently degrading quality. Summed over seeds so
  // one lucky schedule cannot zero the expectation.
  std::uint64_t total_overflow = 0;
  for (std::uint64_t seed : {41u, 43u, 47u}) {
    const Graph g = crawl(10000, seed);
    InMemoryStream stream(g);
    ParallelOptions options;
    options.num_threads = 4;
    options.epsilon = 0.25;  // capacity ceil(0.25 * 4) = 1 entry, globally
    const auto result = run_parallel(stream, {.num_partitions = 8}, options);
    EXPECT_TRUE(is_complete_assignment(result.route, 8));
    total_overflow += result.untracked_overflow;
  }
  EXPECT_GT(total_overflow, 0u);
}

// The 24-config fuzz race of the micro-batched pipeline: worker counts ×
// batch sizes × Γ-window shards × injected stragglers. Every configuration
// must produce a complete in-range route, hold the capacity balance, and
// stay quality-equivalent (~5% edge-cut) to the sequential oracle in
// reference_partitioners.hpp.
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
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      for (const std::uint32_t shards : {1u, 4u}) {
        for (const bool slow : {false, true}) {
          ++configs;
          ParallelOptions options;
          options.num_threads = threads;
          options.batch_size = batch;
          options.spnl.num_shards = shards;
          if (slow) {
            options.faults.slow.push_back(
                {.worker = 0, .delay_seconds = 0.0002, .every = 16});
          }
          InMemoryStream stream(g);
          const auto result = run_parallel(stream, config, options);
          const std::string label = "threads=" + std::to_string(threads) +
                                    " batch=" + std::to_string(batch) +
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
  }
  EXPECT_EQ(configs, 24);
}

TEST(Parallel, MultiWorkerFuzzStaysValidAndNearOracle) {
  // M ∈ {2, 4, 8} × batch ∈ {5, 64}, every worker incrementing the shared Γ
  // window eagerly. Routes are schedule-dependent at M > 1, so the contract
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
    for (const std::size_t batch : {std::size_t{5}, std::size_t{64}}) {
      ++configs;
      InMemoryStream stream(g);
      ParallelOptions options;
      options.num_threads = threads;
      options.batch_size = batch;
      const auto result = run_parallel(stream, config, options);
      const std::string label =
          "threads=" + std::to_string(threads) + " batch=" + std::to_string(batch);
      EXPECT_TRUE(is_complete_assignment(result.route, k)) << label;
      const auto metrics = evaluate_partition(g, result.route, k);
      EXPECT_LE(metrics.delta_v, 1.2) << label;
      EXPECT_LE(metrics.ecr, oracle + std::max(0.05 * oracle, 0.04)) << label;
    }
  }
  EXPECT_EQ(configs, 6);
}

TEST(Parallel, ContentionReportBoundsRctAndQueueTraffic) {
  // The RCT locks a shard exclusively only to erase a tracked entry (at most
  // one per record), to park and unpark a delayed record, and a bounded
  // number of times to grow or scan its tables — never per bump or
  // registration. With a perf sink attached, every worker pop is one
  // kQueueWait call: at least one per 64-record batch, at most one per
  // record plus each worker's final empty pop.
  const VertexId n = 10000;
  const Graph g = crawl(n, 57);
  const PartitionConfig config{.num_partitions = 8};

  InMemoryStream stream(g);
  PerfStats perf;
  ParallelOptions options;
  options.num_threads = 4;
  options.perf = &perf;
  const auto result = run_parallel(stream, config, options);
  const ContentionReport& c = result.contention;

  EXPECT_GT(c.rct_exclusive_acquires, 0u);
  EXPECT_LE(c.rct_exclusive_acquires, n + 2 * result.delayed_vertices + 64);
  EXPECT_GE(perf.calls(PerfStage::kQueueWait), n / 64);
  EXPECT_LE(perf.calls(PerfStage::kQueueWait), n + options.num_threads);
}

TEST(Parallel, ContentionReportRctTalliesAreAlwaysOn) {
  // Without a perf sink the RCT's own relaxed-atomic counters still
  // populate the report.
  const VertexId n = 5000;
  const Graph g = crawl(n, 59);
  InMemoryStream stream(g);
  ParallelOptions options;
  options.num_threads = 2;
  const auto result = run_parallel(stream, {.num_partitions = 8}, options);
  EXPECT_GT(result.contention.rct_exclusive_acquires, 0u);
  EXPECT_LE(result.contention.rct_exclusive_acquires,
            n + 2 * result.delayed_vertices + 64);
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
