// bench_fig12_parallel — scaling benchmark for the claim-based parallel
// pipeline (paper Sec. V-B / Fig. 12), plus the original paper-shaped tables
// behind --paper.
//
// Default (scaling) mode streams a 1M-vertex power-law webcrawl graph at
// K=32 through the sequential SPNL baseline and the parallel driver at
// M ∈ {1, 2, 4, 8} with the default options (no RCT), reporting
// records/sec, per-M speedups (vs the sequential run and vs M=1) and the
// edge-cut delta vs the sequential run. After the timed reps each M runs ONE
// extra instrumented rep (PerfStats attached) whose per-stage time breakdown
// lands in the JSON — the instrumented rep never feeds the gate timing, so
// observability cannot perturb the gated numbers. The RCT on/off comparison
// is bench_ablation's A4.
// The whole result is emitted as one JSON object (stdout line
// "bench-json: ..." and optionally --json=FILE), stamped with the host it ran
// on (nproc, CPU, build type, compiler, git sha) — the payload behind
// BENCH_parallel.json.
//
//   bench_fig12_parallel [--n=1000000] [--k=32] [--reps=3]
//                        [--threshold=1.0] [--quality-threshold=0.05]
//                        [--json=FILE] [--smoke] [--force-gate]
//                        [--paper] [--scale=1.0]
//
// Gates (exit 1 on failure), all at the gate point M = min(4, hardware
// threads) — the paper's claim is that M workers beat the *sequential*
// partitioner within a few percent of its ECR, not that they beat M=1:
//   speedup_vs_seq > --threshold — skipped in --smoke (a 20k-vertex graph
//     measures thread start-up, not throughput) unless --force-gate, and on
//     a host with fewer than 2 hardware threads, where the gate point is
//     M=1: the sequential scorer plus a reader thread, which measures
//     0.86-1.05x sequential on a 4-core Xeon VM, so the gate would only
//     read noise.
//   quality_delta <= --quality-threshold — best-of-reps ECR delta vs the
//     sequential baseline; always enforced, at the gate point and at every
//     other M the host has cores for. An M above the core count interleaves
//     by the scheduler's whim and only has to stay under twice the bound
//     (quality_ceiling), except in --smoke, which shrinks the graph, holds
//     every M to the bound and relaxes it to 0.08 (the small-graph noise
//     floor the unit suite also uses).
//
// --paper reproduces the old Fig. 12 tables (PT vs M on uk2002/sk2005).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/parallel_driver.hpp"
#include "graph/generators.hpp"
#include "util/perf_stats.hpp"

using namespace spnl;
using namespace spnl::bench;

namespace {

struct ScalingPoint {
  unsigned threads = 0;
  double best_seconds = 0.0;
  double records_per_sec = 0.0;
  double best_ecr = 0.0;  // best (lowest) over reps — the gated number
  double delta_v = 0.0;
  // From the extra instrumented rep (excluded from best_seconds).
  double instrumented_seconds = 0.0;
  PerfStats perf;
};

// Per-stage nanos/calls from the instrumented rep, stage name -> [nanos,
// calls]. Every stage is always present so trajectory diffs line up.
std::string stages_json(const PerfStats& perf) {
  std::string json = "[";
  for (std::size_t i = 0; i < kPerfStageCount; ++i) {
    const auto stage = static_cast<PerfStage>(i);
    if (i > 0) json += ",";
    json += "{\"stage\":\"" + std::string(perf_stage_name(stage)) +
            "\",\"nanos\":" + std::to_string(perf.nanos(stage)) +
            ",\"calls\":" + std::to_string(perf.calls(stage)) + "}";
  }
  return json + "]";
}

int run_paper_mode(const CliArgs& args) {
  const double scale = args.get_double("scale", 1.0);
  const auto k = static_cast<PartitionId>(args.get_int("k", 32));
  const PartitionConfig config{.num_partitions = k};

  for (const char* dataset : {"uk2002", "sk2005"}) {
    const Graph graph = load_dataset(dataset_by_name(dataset), scale);
    print_header((std::string("Fig. 12: PT vs threads (SPNL, ") + dataset + ")").c_str());
    std::printf("%s\n\n", describe(graph, dataset).c_str());

    const Outcome sequential = run_one(graph, "SPNL", config);
    TablePrinter table({"M", "PT", "ECR", "dv"});
    table.add_row({"seq", fmt_pt(sequential.seconds),
                   TablePrinter::fmt(sequential.quality.ecr, 4),
                   TablePrinter::fmt(sequential.quality.delta_v, 2)});
    for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
      InMemoryStream stream(graph);
      ParallelOptions options;
      options.num_threads = threads;
      const auto result = run_parallel(stream, config, options);
      const auto metrics = evaluate_partition(graph, result.route, k);
      table.add_row({TablePrinter::fmt(static_cast<int>(threads)),
                     fmt_pt(result.partition_seconds),
                     TablePrinter::fmt(metrics.ecr, 4),
                     TablePrinter::fmt(metrics.delta_v, 2)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf("Paper (32-core Xeon): sweet spot M=4 (uk2002) to M=8 (sk2005), "
              "up to 63%% PT reduction.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.get_bool("paper", false)) return run_paper_mode(args);

  const bool smoke = args.get_bool("smoke", false);
  const auto n = static_cast<VertexId>(args.get_int("n", smoke ? 20'000 : 1'000'000));
  const auto k = static_cast<PartitionId>(args.get_int("k", 32));
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 2 : 3));
  const double threshold = args.get_double("threshold", 1.0);
  const double quality_threshold =
      args.get_double("quality-threshold", smoke ? 0.08 : 0.05);
  const bool force_gate = args.get_bool("force-gate", false);
  const unsigned hardware = std::thread::hardware_concurrency();

  std::printf("generating webcrawl graph: n=%u (power-law out-degrees)...\n", n);
  WebCrawlParams params;
  params.num_vertices = n;
  params.avg_out_degree = 8.0;
  params.degree_alpha = 2.0;
  params.seed = 42;
  const Graph graph = generate_webcrawl(params);
  std::printf("graph ready: n=%u m=%llu, hardware threads: %u\n",
              graph.num_vertices(), static_cast<unsigned long long>(graph.num_edges()),
              hardware);

  PartitionConfig config;
  config.num_partitions = k;

  // Sequential SPNL baseline: the quality reference and the throughput
  // denominator for the per-M rows.
  double seq_seconds = 0.0;
  double seq_ecr = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const Outcome outcome = run_one(graph, "SPNL", config);
    if (rep == 0 || outcome.seconds < seq_seconds) seq_seconds = outcome.seconds;
    if (rep == 0 || outcome.quality.ecr < seq_ecr) seq_ecr = outcome.quality.ecr;
  }
  const double seq_rps = seq_seconds > 0.0 ? graph.num_vertices() / seq_seconds : 0.0;
  std::printf("sequential SPNL: %.3fs (%.0f rec/s), ECR %.4f\n", seq_seconds,
              seq_rps, seq_ecr);

  print_header("Parallel scaling (claim-based pipeline)");
  TablePrinter table({"M", "PT", "rec/s", "ECR", "dECR", "dv"});
  table.add_row({"seq", fmt_pt(seq_seconds), TablePrinter::fmt(seq_rps, 0),
                 TablePrinter::fmt(seq_ecr, 4), "-", "-"});

  std::vector<ScalingPoint> points;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ScalingPoint point;
    point.threads = threads;
    ParallelOptions options;
    options.num_threads = threads;
    for (int rep = 0; rep < reps; ++rep) {
      InMemoryStream stream(graph);
      const auto result = run_parallel(stream, config, options);
      const auto metrics = evaluate_partition(graph, result.route, k);
      if (rep == 0 || result.partition_seconds < point.best_seconds) {
        point.best_seconds = result.partition_seconds;
      }
      if (rep == 0 || metrics.ecr < point.best_ecr) point.best_ecr = metrics.ecr;
      point.delta_v = metrics.delta_v;
    }
    // One extra instrumented rep per M for the per-stage time breakdown. Kept
    // out of best_seconds so the clock reads in PerfScope cannot perturb the
    // gated timing.
    {
      InMemoryStream stream(graph);
      ParallelOptions instrumented = options;
      instrumented.perf = &point.perf;
      const auto result = run_parallel(stream, config, instrumented);
      point.instrumented_seconds = result.partition_seconds;
    }
    point.records_per_sec =
        point.best_seconds > 0.0 ? graph.num_vertices() / point.best_seconds : 0.0;
    table.add_row({TablePrinter::fmt(static_cast<int>(threads)),
                   fmt_pt(point.best_seconds),
                   TablePrinter::fmt(point.records_per_sec, 0),
                   TablePrinter::fmt(point.best_ecr, 4),
                   TablePrinter::fmt(point.best_ecr - seq_ecr, 4),
                   TablePrinter::fmt(point.delta_v, 2)});
    points.push_back(point);
  }
  table.print();

  const ScalingPoint& m1 = points.front();
  // The largest measured M that is at most min(4, hardware threads).
  const unsigned gate_threads = std::clamp(hardware, 1u, 4u);
  const ScalingPoint& gated = *std::find_if(
      points.rbegin(), points.rend(),
      [&](const ScalingPoint& p) { return p.threads <= gate_threads; });
  const double speedup =
      gated.best_seconds > 0.0 ? seq_seconds / gated.best_seconds : 0.0;
  const double quality_delta = gated.best_ecr - seq_ecr;
  const double quality_ceiling = 2.0 * quality_threshold;
  double worst_delta = 0.0;
  bool quality_ok = true;
  for (const ScalingPoint& point : points) {
    const double delta = point.best_ecr - seq_ecr;
    worst_delta = std::max(worst_delta, delta);
    const bool oversubscribed = !smoke && point.threads > hardware;
    quality_ok = quality_ok &&
                 delta <= (oversubscribed ? quality_ceiling : quality_threshold);
  }
  std::printf("\nM=%u: speedup vs sequential %.2fx, quality delta %+.4f ECR; "
              "worst quality delta %+.4f ECR\n",
              gated.threads, speedup, quality_delta, worst_delta);

  const bool gate_speedup = force_gate || (!smoke && gated.threads >= 2);
  const std::string gate_skip_reason =
      gate_speedup ? ""
      : smoke      ? "smoke mode"
                   : "fewer than 2 hardware threads: the gate point is M=1";
  const bool speedup_ok = !gate_speedup || speedup > threshold;
  const bool pass = speedup_ok && quality_ok;

  std::string json;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"parallel_scaling\",\"n\":%u,\"m\":%llu,\"k\":%u,"
                "\"claim_records\":%zu,\"reps\":%d,\"hardware_concurrency\":%u,",
                graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_edges()), k,
                kParallelClaimRecords, reps, hardware);
  json += buf;
  json += "\"host\":" + host_stamp_json() + ",";
  std::snprintf(buf, sizeof(buf),
                "\"sequential\":{\"seconds\":%.6f,\"records_per_sec\":%.1f,"
                "\"ecr\":%.6f},\"runs\":[",
                seq_seconds, seq_rps, seq_ecr);
  json += buf;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& point = points[i];
    // effective_threads: how many of the requested workers the host can
    // actually run at once — the honest ceiling of the per-M speedup.
    const unsigned effective =
        std::min(point.threads, std::max(hardware, 1u));
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\":%u,\"effective_threads\":%u,"
                  "\"seconds\":%.6f,\"records_per_sec\":%.1f,"
                  "\"speedup_vs_seq\":%.3f,\"speedup_vs_m1\":%.3f,"
                  "\"ecr\":%.6f,\"ecr_delta\":%.6f,\"delta_v\":%.4f,"
                  "\"instrumented_seconds\":%.6f,",
                  i == 0 ? "" : ",", point.threads, effective,
                  point.best_seconds, point.records_per_sec,
                  point.best_seconds > 0.0 ? seq_seconds / point.best_seconds
                                           : 0.0,
                  point.best_seconds > 0.0
                      ? m1.best_seconds / point.best_seconds
                      : 0.0,
                  point.best_ecr, point.best_ecr - seq_ecr, point.delta_v,
                  point.instrumented_seconds);
    json += buf;
    json += "\"stages\":" + stages_json(point.perf) + "}";
  }
  std::snprintf(buf, sizeof(buf),
                "],\"gate_threads\":%u,\"speedup_vs_seq\":%.3f,"
                "\"quality_delta\":%.6f,\"worst_quality_delta\":%.6f,"
                "\"threshold\":%.2f,\"quality_threshold\":%.3f,"
                "\"quality_ceiling\":%.3f,"
                "\"speedup_gated\":%s,\"gate_skip_reason\":\"%s\","
                "\"pass\":%s}",
                gated.threads, speedup, quality_delta, worst_delta, threshold,
                quality_threshold, quality_ceiling, gate_speedup ? "true" : "false",
                gate_skip_reason.c_str(), pass ? "true" : "false");
  json += buf;
  std::printf("bench-json: %s\n", json.c_str());
  if (args.has("json")) {
    std::ofstream out(args.get("json", ""));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", args.get("json", "").c_str());
      return 1;
    }
    out << json << "\n";
  }

  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: M=%u speedup vs sequential %.2fx not above %.2fx\n",
                 gated.threads, speedup, threshold);
    return 1;
  }
  if (!quality_ok) {
    std::fprintf(stderr,
                 "FAIL: quality delta %.4f at M=%u, worst %.4f (bound %.3f, "
                 "%.3f for M above the cores)\n",
                 quality_delta, gated.threads, worst_delta, quality_threshold,
                 quality_ceiling);
    return 1;
  }
  if (!gate_speedup) {
    std::printf("speedup gate skipped: %s\n", gate_skip_reason.c_str());
  }
  std::printf("PASS\n");
  return 0;
}
