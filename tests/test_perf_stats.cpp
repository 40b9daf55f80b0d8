// PerfStats / PerfScope: accumulation, merge, null-gating, and the JSON
// shape consumed by BENCH_kernel.json and the --perf-report tooling.
#include "util/perf_stats.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/spn.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "partition/driver.hpp"

namespace spnl {
namespace {

TEST(PerfStats, AccumulatesPerStage) {
  PerfStats stats;
  stats.add(PerfStage::kScore, 100);
  stats.add(PerfStage::kScore, 50, 2);
  stats.add(PerfStage::kCommit, 7);
  EXPECT_EQ(stats.nanos(PerfStage::kScore), 150u);
  EXPECT_EQ(stats.calls(PerfStage::kScore), 3u);
  EXPECT_EQ(stats.nanos(PerfStage::kCommit), 7u);
  EXPECT_EQ(stats.calls(PerfStage::kQueueWait), 0u);
  EXPECT_EQ(stats.total_nanos(), 157u);
  stats.reset();
  EXPECT_EQ(stats.total_nanos(), 0u);
  EXPECT_EQ(stats.calls(PerfStage::kScore), 0u);
}

TEST(PerfStats, MergeSumsCells) {
  PerfStats a, b;
  a.add(PerfStage::kScore, 10);
  a.add(PerfStage::kQueueWait, 5);
  b.add(PerfStage::kScore, 30, 4);
  a.merge(b);
  EXPECT_EQ(a.nanos(PerfStage::kScore), 40u);
  EXPECT_EQ(a.calls(PerfStage::kScore), 5u);
  EXPECT_EQ(a.nanos(PerfStage::kQueueWait), 5u);
}

TEST(PerfStats, ScopeRecordsOnlyWhenAttached) {
  PerfStats stats;
  { PerfScope scope(nullptr, PerfStage::kScore); }  // disabled: no effect
  EXPECT_EQ(stats.calls(PerfStage::kScore), 0u);
  { PerfScope scope(&stats, PerfStage::kScore); }
  EXPECT_EQ(stats.calls(PerfStage::kScore), 1u);
}

TEST(PerfStats, StageNamesAreStable) {
  EXPECT_STREQ(perf_stage_name(PerfStage::kQueueWait), "queue_wait");
  EXPECT_STREQ(perf_stage_name(PerfStage::kWindowAdvance), "window_advance");
  EXPECT_STREQ(perf_stage_name(PerfStage::kScore), "score");
  EXPECT_STREQ(perf_stage_name(PerfStage::kCommit), "commit");
  EXPECT_STREQ(perf_stage_name(PerfStage::kGammaIncrement), "gamma_increment");
}

TEST(PerfStats, JsonHasExpectedShape) {
  PerfStats stats;
  stats.add(PerfStage::kScore, 200, 4);
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"total_nanos\":200"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"score\",\"calls\":4,\"nanos\":200,"
                      "\"mean_nanos\":50.0"),
            std::string::npos)
      << json;
  // Every stage present, object properly closed.
  for (const char* name : {"queue_wait", "window_advance", "score", "commit",
                           "gamma_increment"}) {
    EXPECT_NE(json.find(std::string("\"stage\":\"") + name), std::string::npos)
        << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(PerfStats, ReportMentionsEveryStage) {
  PerfStats stats;
  stats.add(PerfStage::kGammaIncrement, 1000, 10);
  const std::string report = stats.report();
  for (const char* name : {"queue_wait", "window_advance", "score", "commit",
                           "gamma_increment"}) {
    EXPECT_NE(report.find(name), std::string::npos) << report;
  }
}

TEST(PerfStats, DriverAttachesAndDetaches) {
  // An instrumented sequential run records per-record calls in every
  // partitioner-side stage, and the driver detaches the sink afterwards
  // (a second uninstrumented run must not touch it).
  const Graph g = generate_webcrawl(
      {.num_vertices = 500, .avg_out_degree = 5.0, .seed = 17});
  PerfStats perf;
  {
    SpnPartitioner p(g.num_vertices(), g.num_edges(), {.num_partitions = 4},
                     SpnOptions{.num_shards = 4});
    InMemoryStream stream(g);
    run_streaming(stream, p, {}, &perf);
  }
  EXPECT_EQ(perf.calls(PerfStage::kScore), g.num_vertices());
  EXPECT_EQ(perf.calls(PerfStage::kCommit), g.num_vertices());
  EXPECT_EQ(perf.calls(PerfStage::kWindowAdvance), g.num_vertices());
  EXPECT_EQ(perf.calls(PerfStage::kGammaIncrement), g.num_vertices());
  // One kQueueWait per record plus the end-of-stream probe.
  EXPECT_EQ(perf.calls(PerfStage::kQueueWait), g.num_vertices() + 1u);

  const std::uint64_t before = perf.calls(PerfStage::kScore);
  {
    SpnPartitioner p(g.num_vertices(), g.num_edges(), {.num_partitions = 4},
                     SpnOptions{.num_shards = 4});
    InMemoryStream stream(g);
    run_streaming(stream, p);  // no sink
  }
  EXPECT_EQ(perf.calls(PerfStage::kScore), before);
}

}  // namespace
}  // namespace spnl
