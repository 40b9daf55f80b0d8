// bench_ingest — end-to-end ingestion throughput: the text reader vs the
// sadj binary reader, on the same graph.
//
// Two phases per reader, best-of-reps:
//   ingest  — drain-only pass (parse every record, place nothing): isolates
//             the parse path the PR optimizes.
//   e2e     — full ingest -> SPNL route pass through run_streaming.
//
// The gate is on the ingest phase: the binary reader must parse at least
// --threshold x (default 3x) the records/sec of the text reader. The e2e ratio is reported but not gated — on a 1M-vertex graph
// SPNL placement dominates end-to-end time, so gating it would measure the
// partitioner, not the readers. Route identity IS gated in every mode: both
// readers must produce byte-identical SPNL routes, or the speed is
// meaningless.
//
//   bench_ingest [--n=1000000] [--k=32] [--reps=3] [--threshold=3.0]
//                [--dir=PATH] [--json=FILE] [--smoke] [--force-gate]
//
// --smoke shrinks the graph (n=20000) and skips the throughput gate (the
// margin only stabilizes on multi-second parses); the route-identity gate
// stays on. The full-size run's JSON is committed
// as BENCH_ingest.json.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stream_binary.hpp"

using namespace spnl;
using namespace spnl::bench;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ReaderPoint {
  std::string name;
  double ingest_seconds = 0.0;  // best-of-reps drain-only pass
  double ingest_rps = 0.0;
  double e2e_seconds = 0.0;  // best-of-reps ingest + SPNL route
  double e2e_rps = 0.0;
  std::vector<PartitionId> route;
};

using StreamFactory = std::function<std::unique_ptr<AdjacencyStream>()>;

// Measures every reader best-of-reps, with the reps *interleaved*: round r
// runs all readers back-to-back before round r+1. The gate is a ratio, so
// what matters is that a slow patch on a shared box hits every reader of
// that round roughly equally instead of silently inflating whichever reader
// happened to own that wall-clock window.
std::vector<ReaderPoint> measure_all(
    const std::vector<std::pair<std::string, StreamFactory>>& readers,
    PartitionId k, int reps) {
  std::vector<ReaderPoint> points(readers.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    points[i].name = readers[i].first;
  }

  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < readers.size(); ++i) {
      const auto stream = readers[i].second();
      const double start = now_seconds();
      std::uint64_t records = 0;
      while (stream->next()) ++records;
      const double seconds = now_seconds() - start;
      if (rep == 0 || seconds < points[i].ingest_seconds) {
        points[i].ingest_seconds = seconds;
      }
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < readers.size(); ++i) {
      const auto stream = readers[i].second();
      PartitionConfig config;
      config.num_partitions = k;
      SpnlPartitioner partitioner(stream->num_vertices(), stream->num_edges(),
                                  config);
      const double start = now_seconds();
      RunResult run = run_streaming(*stream, partitioner);
      const double seconds = now_seconds() - start;
      if (rep == 0 || seconds < points[i].e2e_seconds) {
        points[i].e2e_seconds = seconds;
        points[i].route = std::move(run.route);
      }
    }
  }
  for (ReaderPoint& point : points) {
    const double n = static_cast<double>(point.route.size());
    point.ingest_rps =
        point.ingest_seconds > 0.0 ? n / point.ingest_seconds : 0.0;
    point.e2e_rps = point.e2e_seconds > 0.0 ? n / point.e2e_seconds : 0.0;
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto n =
      static_cast<VertexId>(args.get_int("n", smoke ? 20'000 : 1'000'000));
  const auto k = static_cast<PartitionId>(args.get_int("k", 32));
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 2 : 3));
  const double threshold = args.get_double("threshold", 3.0);
  const bool force_gate = args.get_bool("force-gate", false);
  const std::string dir =
      args.get("dir", (std::filesystem::temp_directory_path() /
                       "spnl_bench_ingest")
                          .string());

  std::filesystem::create_directories(dir);
  const std::string text_path = dir + "/ingest.adj";
  const std::string sadj_path = dir + "/ingest.sadj";

  std::printf("generating webcrawl graph: n=%u (power-law out-degrees)...\n", n);
  WebCrawlParams params;
  params.num_vertices = n;
  params.avg_out_degree = 8.0;
  params.degree_alpha = 2.0;
  params.seed = 42;
  {
    const Graph graph = generate_webcrawl(params);
    write_adjacency_list(graph, text_path);
    FileAdjacencyStream source(text_path);
    write_sadj(source, sadj_path);
  }  // drop the in-memory graph before measuring: readers run standalone
  const auto text_bytes = std::filesystem::file_size(text_path);
  const auto sadj_bytes = std::filesystem::file_size(sadj_path);
  std::printf("text %.1f MB -> sadj %.1f MB (%.1f%%)\n",
              text_bytes / 1048576.0, sadj_bytes / 1048576.0,
              100.0 * static_cast<double>(sadj_bytes) /
                  static_cast<double>(text_bytes));

  print_header("Ingestion throughput (drain-only + end-to-end SPNL route)");
  const std::vector<std::pair<std::string, StreamFactory>> readers = {
      {"text-buffered",
       [&] { return std::make_unique<FileAdjacencyStream>(text_path); }},
      {"binary-sadj",
       [&] { return std::make_unique<BinaryAdjacencyStream>(sadj_path); }},
  };
  std::vector<ReaderPoint> points = measure_all(readers, k, reps);

  TablePrinter table({"reader", "ingest", "rec/s", "e2e", "rec/s(e2e)"});
  for (const ReaderPoint& point : points) {
    table.add_row({point.name, fmt_pt(point.ingest_seconds),
                   TablePrinter::fmt(point.ingest_rps, 0),
                   fmt_pt(point.e2e_seconds),
                   TablePrinter::fmt(point.e2e_rps, 0)});
  }
  table.print();

  const ReaderPoint& text = points[0];
  const ReaderPoint& binary = points[1];
  const double ratio_binary =
      text.ingest_rps > 0.0 ? binary.ingest_rps / text.ingest_rps : 0.0;
  const double ratio_e2e =
      text.e2e_rps > 0.0 ? binary.e2e_rps / text.e2e_rps : 0.0;
  const bool routes_identical = binary.route == text.route;
  std::printf("\ningest speedup vs text: binary %.2fx (e2e %.2fx); "
              "routes identical: %s\n",
              ratio_binary, ratio_e2e, routes_identical ? "yes" : "NO");

  const bool gate_speed = force_gate || !smoke;
  const std::string gate_skip_reason = gate_speed ? "" : "smoke mode";
  const bool speed_ok = !gate_speed || ratio_binary >= threshold;
  const bool pass = speed_ok && routes_identical;

  std::string json;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"ingest\",\"n\":%u,\"k\":%u,\"reps\":%d,"
                "\"text_bytes\":%llu,\"sadj_bytes\":%llu,",
                n, k, reps, static_cast<unsigned long long>(text_bytes),
                static_cast<unsigned long long>(sadj_bytes));
  json += buf;
  json += "\"host\":" + host_stamp_json() + ",\"readers\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ReaderPoint& point = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"reader\":\"%s\",\"ingest_seconds\":%.6f,"
                  "\"ingest_records_per_sec\":%.1f,\"e2e_seconds\":%.6f,"
                  "\"e2e_records_per_sec\":%.1f}",
                  i == 0 ? "" : ",", point.name.c_str(), point.ingest_seconds,
                  point.ingest_rps, point.e2e_seconds, point.e2e_rps);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"ingest_speedup_binary_vs_text\":%.3f,"
                "\"e2e_speedup_binary_vs_text\":%.3f,\"threshold\":%.2f,"
                "\"routes_identical\":%s,\"speed_gated\":%s,"
                "\"gate_skip_reason\":\"%s\",\"pass\":%s}",
                ratio_binary, ratio_e2e, threshold,
                routes_identical ? "true" : "false",
                gate_speed ? "true" : "false", gate_skip_reason.c_str(),
                pass ? "true" : "false");
  json += buf;
  std::printf("bench-json: %s\n", json.c_str());
  if (args.has("json")) {
    std::ofstream out(args.get("json", ""));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.get("json", "").c_str());
      return 1;
    }
    out << json << "\n";
  }

  std::filesystem::remove(text_path);
  std::filesystem::remove(sadj_path);

  if (!routes_identical) {
    std::fprintf(stderr, "FAIL: readers disagreed on the route\n");
    return 1;
  }
  if (gate_speed && !speed_ok) {
    std::fprintf(stderr,
                 "FAIL: binary ingest speedup %.2fx below threshold %.2fx\n",
                 ratio_binary, threshold);
    return 1;
  }
  if (!gate_speed) {
    std::printf("speed gate skipped: %s\n", gate_skip_reason.c_str());
  }
  std::printf("PASS\n");
  return 0;
}
