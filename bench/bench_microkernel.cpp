// bench_microkernel — races the fused SPN/SPNL scoring kernel against the
// retained pre-fusion reference (tests/reference_partitioners.hpp).
//
// Full mode streams a 1M-vertex power-law webcrawl graph at K=32 through
// both formulations, asserts the routes are byte-identical, and requires the
// fused kernel to beat the reference by at least --threshold (default 1.3x,
// the acceptance bar). An extra instrumented pass breaks the fused run into
// per-stage times (PerfStats) and the whole result is emitted as one JSON
// object (stdout line "bench-json: ..." and optionally --json=FILE) — the
// payload behind BENCH_kernel.json.
//
//   bench_microkernel [--n=1000000] [--k=32] [--reps=5] [--threshold=1.3]
//                     [--json=FILE] [--smoke]
//
// --smoke shrinks the graph and skips the speedup gate (identity + JSON
// shape only) so the ctest `perf` label stays fast on loaded CI machines.
// Exit code: 0 on pass, 1 on route divergence or a missed threshold.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "reference_partitioners.hpp"
#include "util/cli.hpp"
#include "util/perf_stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace spnl;

/// Pure place() loop — no stream or driver overhead on either side.
template <typename Partitioner>
double time_run(Partitioner& partitioner, const Graph& graph) {
  Timer timer;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    partitioner.place(v, graph.out_neighbors(v));
  }
  return timer.seconds();
}

struct Race {
  double reference_seconds = 0.0;
  double fused_seconds = 0.0;
  bool identical = false;
  double speedup() const {
    return fused_seconds > 0.0 ? reference_seconds / fused_seconds : 0.0;
  }
};

/// Best-of-reps race; route identity checked on every rep.
template <typename Fused, typename Reference, typename Options>
Race race(const Graph& graph, const PartitionConfig& config,
          const Options& options, int reps) {
  Race result;
  result.identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    Reference reference(graph.num_vertices(), graph.num_edges(), config, options);
    const double ref_s = time_run(reference, graph);
    Fused fused(graph.num_vertices(), graph.num_edges(), config, options);
    const double fused_s = time_run(fused, graph);
    result.identical = result.identical && fused.route() == reference.route();
    if (rep == 0 || ref_s < result.reference_seconds) {
      result.reference_seconds = ref_s;
    }
    if (rep == 0 || fused_s < result.fused_seconds) result.fused_seconds = fused_s;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto n = static_cast<VertexId>(args.get_int("n", smoke ? 20'000 : 1'000'000));
  const auto k = static_cast<PartitionId>(args.get_int("k", 32));
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 1 : 5));
  const double threshold = args.get_double("threshold", 1.3);

  std::printf("generating webcrawl graph: n=%u (power-law out-degrees)...\n", n);
  WebCrawlParams params;
  params.num_vertices = n;
  params.avg_out_degree = 8.0;
  params.degree_alpha = 2.0;
  params.seed = 42;
  const Graph graph = generate_webcrawl(params);
  std::printf("graph ready: n=%u m=%llu\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  PartitionConfig config;
  config.num_partitions = k;

  const SpnOptions spn_options{};  // paper defaults: lambda=0.5, X recommended
  const Race spn =
      race<SpnPartitioner, ReferenceSpnPartitioner>(graph, config, spn_options, reps);
  std::printf("SPN  place(): reference %.3fs, fused %.3fs -> %.2fx%s\n",
              spn.reference_seconds, spn.fused_seconds, spn.speedup(),
              spn.identical ? "" : "  ROUTES DIVERGED");

  const SpnlOptions spnl_options{};
  const Race spnl = race<SpnlPartitioner, ReferenceSpnlPartitioner>(
      graph, config, spnl_options, reps);
  std::printf("SPNL place(): reference %.3fs, fused %.3fs -> %.2fx%s\n",
              spnl.reference_seconds, spnl.fused_seconds, spnl.speedup(),
              spnl.identical ? "" : "  ROUTES DIVERGED");

  // Instrumented pass: how the fused run's time splits across stages.
  PerfStats perf;
  {
    SpnPartitioner instrumented(graph.num_vertices(), graph.num_edges(), config,
                                spn_options);
    instrumented.set_perf_stats(&perf);
    time_run(instrumented, graph);
  }
  std::printf("%s", perf.report().c_str());

  const bool gate_speedup = !smoke;
  const bool pass =
      spn.identical && spnl.identical && (!gate_speedup || spn.speedup() >= threshold);

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "\"n\":%u,\"m\":%llu,\"k\":%u,\"reps\":%d,"
      "\"spn\":{\"reference_seconds\":%.6f,\"fused_seconds\":%.6f,"
      "\"speedup\":%.3f,\"routes_identical\":%s},"
      "\"spnl\":{\"reference_seconds\":%.6f,\"fused_seconds\":%.6f,"
      "\"speedup\":%.3f,\"routes_identical\":%s},"
      "\"threshold\":%.2f,\"speedup_gated\":%s,\"pass\":%s,\"perf\":",
      graph.num_vertices(), static_cast<unsigned long long>(graph.num_edges()), k,
      reps, spn.reference_seconds, spn.fused_seconds, spn.speedup(),
      spn.identical ? "true" : "false", spnl.reference_seconds, spnl.fused_seconds,
      spnl.speedup(), spnl.identical ? "true" : "false", threshold,
      gate_speedup ? "true" : "false", pass ? "true" : "false");
  const std::string payload = "{\"bench\":\"microkernel\",\"host\":" +
                              bench::host_stamp_json() + "," + json +
                              perf.to_json() + "}";
  std::printf("bench-json: %s\n", payload.c_str());
  if (args.has("json")) {
    std::ofstream out(args.get("json", ""));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", args.get("json", "").c_str());
      return 1;
    }
    out << payload << "\n";
  }

  if (!spn.identical || !spnl.identical) {
    std::fprintf(stderr, "FAIL: fused kernel diverged from the reference\n");
    return 1;
  }
  if (gate_speedup && spn.speedup() < threshold) {
    std::fprintf(stderr, "FAIL: SPN speedup %.2fx below threshold %.2fx\n",
                 spn.speedup(), threshold);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
