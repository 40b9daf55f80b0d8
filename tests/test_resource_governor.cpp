// Resource governor: enforced memory/deadline budgets with graceful
// degradation. Covers the governor object itself (sampling, ladder cursor,
// policies, byte-size parsing) and the kill-path acceptance scenario: a
// memory budget far below the natural Γ footprint forces >= 2 ladder steps,
// the budget holds at every sample point after enforcement, and the run
// still produces a full valid route.
#include "util/resource_governor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/driver.hpp"
#include "partition/metrics.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

Graph crawl(VertexId n = 20000, std::uint64_t seed = 1) {
  return generate_webcrawl({.num_vertices = n, .avg_out_degree = 8.0,
                            .locality = 0.9, .locality_scale = 30.0,
                            .seed = seed});
}

TEST(ParseByteSize, SuffixesAndFractions) {
  EXPECT_EQ(parse_byte_size("4096"), 4096u);
  EXPECT_EQ(parse_byte_size("64K"), 64u * 1024);
  EXPECT_EQ(parse_byte_size("64k"), 64u * 1024);
  EXPECT_EQ(parse_byte_size("12M"), 12u * 1024 * 1024);
  EXPECT_EQ(parse_byte_size("1.5G"), static_cast<std::size_t>(1.5 * 1024 * 1024 * 1024));
  EXPECT_THROW(parse_byte_size(""), std::invalid_argument);
  EXPECT_THROW(parse_byte_size("abc"), std::invalid_argument);
  EXPECT_THROW(parse_byte_size("12Q"), std::invalid_argument);
  EXPECT_THROW(parse_byte_size("-5"), std::invalid_argument);
}

TEST(DegradationLadder, NextStageChain) {
  EXPECT_EQ(ResourceGovernor::next_stage(DegradationStage::kNone),
            DegradationStage::kShrinkWindow);
  EXPECT_EQ(ResourceGovernor::next_stage(DegradationStage::kShrinkWindow),
            DegradationStage::kCoarseSlide);
  EXPECT_EQ(ResourceGovernor::next_stage(DegradationStage::kCoarseSlide),
            DegradationStage::kHashFallback);
  EXPECT_EQ(ResourceGovernor::next_stage(DegradationStage::kHashFallback),
            DegradationStage::kNone);  // exhausted
}

TEST(ResourceGovernor, DisabledWithoutBudgets) {
  ResourceGovernor governor;
  EXPECT_FALSE(governor.enabled());
  EXPECT_FALSE(governor.due(256));
}

TEST(ResourceGovernor, DueRespectsSampleInterval) {
  ResourceGovernor governor({.memory_budget_bytes = 1 << 20,
                             .sample_interval = 100});
  EXPECT_TRUE(governor.enabled());
  EXPECT_FALSE(governor.due(0));
  EXPECT_FALSE(governor.due(99));
  EXPECT_TRUE(governor.due(100));
  EXPECT_FALSE(governor.due(101));
  EXPECT_TRUE(governor.due(200));
}

TEST(ResourceGovernor, SampleReportsMemoryBreachAndPeak) {
  ResourceGovernor governor({.memory_budget_bytes = 1000});
  EXPECT_FALSE(governor.sample(500).has_value());
  const auto breach = governor.sample(2000);
  ASSERT_TRUE(breach.has_value());
  EXPECT_TRUE(breach->over_memory);
  EXPECT_FALSE(breach->over_deadline);
  EXPECT_EQ(breach->partitioner_bytes, 2000u);
  EXPECT_EQ(governor.peak_partitioner_bytes(), 2000u);
  EXPECT_EQ(governor.samples_taken(), 2u);
}

TEST(ResourceGovernor, AbortPolicyThrows) {
  ResourceGovernor governor({.memory_budget_bytes = 1000,
                             .policy = DegradePolicy::kAbort});
  EXPECT_NO_THROW(governor.sample(500));
  EXPECT_THROW(governor.sample(2000), BudgetExceededError);
}

TEST(ResourceGovernor, EventsJsonListsStages) {
  DegradationEvent event;
  event.stage = DegradationStage::kShrinkWindow;
  event.at_placement = 512;
  event.reason = "memory";
  const std::string json = degradation_events_json({event});
  EXPECT_NE(json.find("shrink-window"), std::string::npos);
  EXPECT_NE(json.find("\"at_placement\":512"), std::string::npos);
  EXPECT_NE(json.find("memory"), std::string::npos);
  EXPECT_EQ(degradation_events_json({}), "[]");
}

TEST(Degradation, PartitionerLadderStepsAndReportsStage) {
  const Graph g = crawl(5000, 3);
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = 8});
  EXPECT_EQ(partitioner.degradation_stage(), DegradationStage::kNone);
  EXPECT_TRUE(partitioner.apply_degradation(DegradationStage::kShrinkWindow));
  EXPECT_EQ(partitioner.degradation_stage(), DegradationStage::kShrinkWindow);
  EXPECT_TRUE(partitioner.apply_degradation(DegradationStage::kCoarseSlide));
  // Coarse slide is one-shot.
  EXPECT_FALSE(partitioner.apply_degradation(DegradationStage::kCoarseSlide));
  EXPECT_TRUE(partitioner.apply_degradation(DegradationStage::kHashFallback));
  EXPECT_EQ(partitioner.degradation_stage(), DegradationStage::kHashFallback);
  EXPECT_FALSE(partitioner.apply_degradation(DegradationStage::kHashFallback));
}

TEST(Degradation, ShrinkWindowActuallyReducesFootprint) {
  const Graph g = crawl(20000, 5);
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = 8});
  const std::size_t before = partitioner.memory_footprint_bytes();
  ASSERT_TRUE(partitioner.apply_degradation(DegradationStage::kShrinkWindow));
  EXPECT_LT(partitioner.memory_footprint_bytes(), before);
}

// Kill-path acceptance: budget far below the natural Γ footprint -> the run
// degrades (>= 2 ladder steps), finishes with a full valid route, and the
// footprint is back under budget after enforcement at every sample.
TEST(Degradation, MemoryBudgetForcesLadderAndRunCompletes) {
  const Graph g = crawl(20000, 7);
  const PartitionId k = 8;
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = k});
  const std::size_t natural = partitioner.memory_footprint_bytes();
  ResourceGovernor governor({.memory_budget_bytes = natural / 8,
                             .sample_interval = 64});
  InMemoryStream stream(g);
  const RunResult run = run_streaming(stream, partitioner, {}, nullptr, &governor);

  validate_route(run.route, k, g.num_vertices());
  ASSERT_GE(run.degradations.size(), 2u);
  // Enforcement loops within the sample until under budget (or the ladder is
  // exhausted): the last applied step must land under budget.
  const DegradationEvent& last = run.degradations.back();
  if (!governor.exhausted()) {
    EXPECT_LE(last.post_bytes, governor.options().memory_budget_bytes);
  }
  // Each event is a strictly harsher (or repeated-shrink) rung, monotone.
  for (std::size_t i = 1; i < run.degradations.size(); ++i) {
    EXPECT_GE(static_cast<int>(run.degradations[i].stage),
              static_cast<int>(run.degradations[i - 1].stage));
    EXPECT_EQ(run.degradations[i].reason, "memory");
  }
  EXPECT_EQ(governor.stage(), run.degradations.back().stage);
}

// Forwards to a partitioner and, after each placement, records its
// footprint and the stream's: after the last record, what the run ended
// with before the driver takes the route and the stream frees its pass.
class FootprintAtLastRecord final : public StreamingPartitioner {
 public:
  FootprintAtLastRecord(StreamingPartitioner& inner, const AdjacencyStream& stream)
      : inner_(inner), stream_(stream) {}

  PartitionId place(VertexId v, std::span<const VertexId> out) override {
    const PartitionId pid = inner_.place(v, out);
    partitioner_bytes = inner_.memory_footprint_bytes();
    stream_bytes = stream_.memory_footprint_bytes();
    return pid;
  }
  const std::vector<PartitionId>& route() const override { return inner_.route(); }
  std::size_t memory_footprint_bytes() const override {
    return inner_.memory_footprint_bytes();
  }
  std::string name() const override { return inner_.name(); }
  bool apply_degradation(DegradationStage stage) override {
    return inner_.apply_degradation(stage);
  }
  DegradationStage degradation_stage() const override {
    return inner_.degradation_stage();
  }

  std::size_t partitioner_bytes = 0;
  std::size_t stream_bytes = 0;

 private:
  StreamingPartitioner& inner_;
  const AdjacencyStream& stream_;
};

// The budget is charged for the partitioner's structures plus the input
// stream's read and decode buffers, and every event's post_bytes measures
// that same sum. The stream's buffers only grow within a pass and the
// partitioner's footprint is fixed after the last step, so the last event
// lies between the partitioner alone and the partitioner plus the stream's
// buffers at the last record.
TEST(Degradation, EventBytesIncludeTheFileStreamBuffers) {
  const Graph g = crawl(20000, 7);
  const auto dir = unique_test_dir();
  const std::string path = (dir / "crawl.adj").string();
  write_adjacency_list(g, path);

  SpnlPartitioner spnl(g.num_vertices(), g.num_edges(), {.num_partitions = 8});
  ResourceGovernor governor(
      {.memory_budget_bytes = spnl.memory_footprint_bytes() / 8,
       .sample_interval = 64});
  FileAdjacencyStream stream(path);
  FootprintAtLastRecord partitioner(spnl, stream);
  const RunResult run = run_streaming(stream, partitioner, {}, nullptr, &governor);
  validate_route(run.route, 8, g.num_vertices());
  ASSERT_GE(run.degradations.size(), 1u);

  const std::size_t partitioner_bytes = partitioner.partitioner_bytes;
  const std::size_t stream_bytes = partitioner.stream_bytes;
  ASSERT_GT(stream_bytes, 0u);
  const DegradationEvent& last = run.degradations.back();
  EXPECT_GT(last.post_bytes, partitioner_bytes);
  EXPECT_LE(last.post_bytes, partitioner_bytes + stream_bytes);
  std::filesystem::remove_all(dir);
}

TEST(Degradation, HashFallbackRunsAreDeterministicAndBalanced) {
  const Graph g = crawl(10000, 9);
  const PartitionId k = 8;
  std::vector<PartitionId> routes[2];
  for (int i = 0; i < 2; ++i) {
    SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                                {.num_partitions = k});
    // Tiny budget: the ladder bottoms out in hash fallback almost instantly.
    ResourceGovernor governor({.memory_budget_bytes = 1, .sample_interval = 16});
    InMemoryStream stream(g);
    routes[i] = run_streaming(stream, partitioner, {}, nullptr, &governor).route;
    validate_route(routes[i], k, g.num_vertices());
    EXPECT_EQ(governor.stage(), DegradationStage::kHashFallback);
  }
  EXPECT_EQ(routes[0], routes[1]);
  // Hash votes still flow through capacity weighting: balance holds.
  const auto metrics = evaluate_partition(g, routes[0], k);
  EXPECT_LE(metrics.delta_v, 1.2);
}

TEST(Degradation, DeadlineBreachStepsOneRungPerSample) {
  const Graph g = crawl(20000, 11);
  SpnPartitioner partitioner(g.num_vertices(), g.num_edges(),
                             {.num_partitions = 4});
  // Already-expired deadline: every sample breaches, one rung at a time.
  ResourceGovernor governor({.deadline_seconds = 1e-9, .sample_interval = 64});
  InMemoryStream stream(g);
  const RunResult run = run_streaming(stream, partitioner, {}, nullptr, &governor);
  validate_route(run.route, 4, g.num_vertices());
  ASSERT_GE(run.degradations.size(), 1u);
  for (const DegradationEvent& event : run.degradations) {
    EXPECT_EQ(event.reason, "deadline");
  }
  // The ladder eventually bottoms out in hash fallback and stays there.
  EXPECT_EQ(run.degradations.back().stage, DegradationStage::kHashFallback);
}

TEST(Degradation, OffPolicyObservesWithoutIntervening) {
  const Graph g = crawl(10000, 13);
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = 8});
  ResourceGovernor governor({.memory_budget_bytes = 1,
                             .policy = DegradePolicy::kOff,
                             .sample_interval = 64});
  InMemoryStream stream(g);
  const RunResult run = run_streaming(stream, partitioner, {}, nullptr, &governor);
  validate_route(run.route, 8, g.num_vertices());
  EXPECT_TRUE(run.degradations.empty());
  EXPECT_EQ(partitioner.degradation_stage(), DegradationStage::kNone);
  EXPECT_GT(governor.samples_taken(), 0u);
}

TEST(Degradation, AbortPolicyThrowsOutOfTheDriver) {
  const Graph g = crawl(10000, 15);
  SpnlPartitioner partitioner(g.num_vertices(), g.num_edges(),
                              {.num_partitions = 8});
  ResourceGovernor governor({.memory_budget_bytes = 1,
                             .policy = DegradePolicy::kAbort,
                             .sample_interval = 64});
  InMemoryStream stream(g);
  EXPECT_THROW(run_streaming(stream, partitioner, {}, nullptr, &governor),
               BudgetExceededError);
}

// Degraded checkpoints round-trip: a snapshot taken after ladder steps
// restores the degraded shape and the resumed run completes under the same
// governor policy.
TEST(Degradation, CheckpointResumeCarriesDegradedStage) {
  const Graph g = crawl(20000, 17);
  const PartitionId k = 8;
  const auto dir = unique_test_dir();
  const std::string ckpt = (dir / "degraded.ckpt").string();

  SpnlPartitioner full(g.num_vertices(), g.num_edges(), {.num_partitions = k});
  ResourceGovernor governor(
      {.memory_budget_bytes = full.memory_footprint_bytes() / 8,
       .sample_interval = 64});
  InMemoryStream stream(g);
  const RunResult first =
      run_streaming(stream, full, {.path = ckpt, .every = 4096}, nullptr,
                    &governor);
  ASSERT_GE(first.checkpoints_written, 1u);
  ASSERT_GE(first.degradations.size(), 1u);

  // Resume from the (degraded) snapshot with a fresh partitioner + governor.
  SpnlPartitioner resumed_partitioner(g.num_vertices(), g.num_edges(),
                                      {.num_partitions = k});
  ResourceGovernor resumed_governor(
      {.memory_budget_bytes = governor.options().memory_budget_bytes,
       .sample_interval = 64});
  stream.reset();
  const RunResult resumed = run_streaming(stream, resumed_partitioner,
                                          {.resume_from = ckpt}, nullptr,
                                          &resumed_governor);
  EXPECT_GT(resumed.resumed_at, 0u);
  validate_route(resumed.route, k, g.num_vertices());
  // The restored stage seeds the resumed governor's ladder cursor.
  EXPECT_NE(resumed_partitioner.degradation_stage(), DegradationStage::kNone);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spnl
