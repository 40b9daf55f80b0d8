// perfbench_job — one partitioning job of the end-to-end benchmark, from the
// input file to the published route file, through the public calls
// spnl_partition makes: stream open, materialize (unless --stream),
// cluster_prepass (--prepass=2ps), partitioner construction, run_streaming
// or run_parallel, validate_route, evaluate_partition, write_route_table.
// perfbench/run.py runs one fresh process per job, so peak RSS is per job.
//
//   perfbench_job gen --model=crawl --vertices=N --seed=S --avg-degree=D
//                     --alpha=A --dir=DIR             (DIR/graph.adj + .sadj)
//   perfbench_job gen --model=planted --vertices=N --seed=S --avg-degree=D
//                     --communities=C --mu=MU --order=random --dir=DIR
//                                                     (DIR/graph.sadj + labels.route)
//   perfbench_job run --input=FILE --format=adj|sadj [--stream] --k=K
//                     [--threads=M] [--prepass=2ps] [--labels=FILE]
//                     --out=ROUTE [--trace] [--corrupt=valid|invalid]
//   perfbench_job info
//
// `run` prints one JSON line: the job's end-to-end figures, the FNV-1a
// digest of the published route file and, with --trace, the per-layer split
// (see perfbench/README.md). --trace wraps the stream and the partitioner in
// the decorators of trace.hpp; without it only the ten or so span boundaries
// read the clock. After the route is published the job reads it back and
// fails unless it parses to the route that was computed. --corrupt alters one
// route entry before validation, to prove the checks fire: `invalid` must
// fail validate_route, `valid` must change the digest.
//
// Exit status: 0 on success, 1 on any failure (message on stderr), 2 on
// usage errors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/stream_binary.hpp"
#include "partition/driver.hpp"
#include "partition/metrics.hpp"
#include "prepass/two_phase.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"

namespace {

using namespace spnl;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::Tracer;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h;
}

int generate(const CliArgs& args) {
  const std::string model = args.get("model", "");
  const std::filesystem::path dir = args.get("dir", "");
  const auto n = static_cast<VertexId>(args.get_int("vertices", 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (dir.empty() || n == 0) throw CliError("gen needs --dir and --vertices");
  std::filesystem::create_directories(dir);
  if (model == "crawl") {
    WebCrawlParams params;
    params.num_vertices = n;
    params.avg_out_degree = args.get_double("avg-degree", 8.0);
    params.degree_alpha = args.get_double("alpha", 2.0);
    params.seed = seed;
    const Graph graph = generate_webcrawl(params);
    write_adjacency_list(graph, (dir / "graph.adj").string());
    InMemoryStream stream(graph);
    write_sadj(stream, (dir / "graph.sadj").string());
    return 0;
  }
  if (model == "planted") {
    PlantedPartitionParams params;
    params.num_vertices = n;
    params.num_communities =
        static_cast<PartitionId>(args.get_int("communities", 8));
    params.avg_out_degree = args.get_double("avg-degree", 16.0);
    params.mixing = args.get_double("mu", 0.3);
    params.seed = seed;
    PlantedGraph planted = generate_planted_partition(params);
    // Relabel into the attack order the way spnl_gen --order does, so the
    // id-ordered file streams in that order; labels follow their vertices.
    const std::vector<VertexId> new_id = make_stream_order(
        planted.graph, stream_order_by_name(args.get("order", "random")),
        &planted.labels, planted.num_communities, seed + 2);
    const Graph graph = apply_permutation(planted.graph, new_id);
    std::vector<PartitionId> labels(planted.labels.size());
    for (VertexId v = 0; v < new_id.size(); ++v) {
      labels[new_id[v]] = planted.labels[v];
    }
    InMemoryStream stream(graph);
    write_sadj(stream, (dir / "graph.sadj").string());
    write_route_table(labels, (dir / "labels.route").string());
    return 0;
  }
  throw CliError("gen: --model must be crawl or planted");
}

std::unique_ptr<AdjacencyStream> open_stream(const std::string& path,
                                             const std::string& format) {
  if (format == "sadj") return std::make_unique<BinaryAdjacencyStream>(path);
  if (format == "adj") return std::make_unique<FileAdjacencyStream>(path);
  throw CliError("--format must be adj or sadj");
}

// What one job measured, beyond the spans themselves.
struct JobResult {
  std::vector<PartitionId> route;
  std::size_t mc_bytes = 0;
  ParallelRunResult parallel;  // RCT counters; empty for sequential jobs
  PrepassResult prepass;
  QualityMetrics quality;
};

double seconds_of(const Tracer& tracer, const char* name) {
  const Span* span = tracer.find(name);
  return span != nullptr ? span->seconds() : 0.0;
}

double percentile(std::vector<std::uint32_t> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

// The per-layer split of a traced job, as "name":value JSON members.
std::string layer_json(const Tracer& tracer, int job, const JobResult& result) {
  double ingest_s = 0.0;
  std::uint64_t ingest_calls = 0;
  std::uint64_t ingest_bytes = 0;
  double covered_s = 0.0;
  for (const Span& span : tracer.spans()) {
    const perfbench::SampledCalls& ingest = span.calls[perfbench::kIngest];
    ingest_s += ingest.extrapolated_seconds();
    ingest_calls += ingest.calls;
    ingest_bytes += ingest.bytes;
    if (span.parent == job) covered_s += span.seconds();
  }
  const Span* driver = tracer.find("partition.run_streaming");
  double place_s = 0.0;
  double driver_self_s = 0.0;
  std::uint64_t place_calls = 0;
  std::vector<std::uint32_t> place_samples;
  if (driver != nullptr) {
    const perfbench::SampledCalls& place = driver->calls[perfbench::kPlace];
    place_s = place.extrapolated_seconds();
    place_calls = place.calls;
    place_samples = place.samples_ns;
    driver_self_s = driver->seconds() - place_s -
                    driver->calls[perfbench::kIngest].extrapolated_seconds();
  }
  const double wall_s = tracer.spans()[static_cast<std::size_t>(job)].seconds();
  const ContentionReport& contention = result.parallel.contention;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<std::pair<const char*, double>> layers = {
      {"graph.open_s", seconds_of(tracer, "graph.open")},
      {"graph.ingest_s", ingest_s},
      {"graph.ingest_calls", count(ingest_calls)},
      {"graph.ingest_bytes", count(ingest_bytes)},
      {"graph.materialize_s", seconds_of(tracer, "graph.materialize")},
      {"graph.validate_s", seconds_of(tracer, "graph.validate")},
      {"graph.route_write_s", seconds_of(tracer, "graph.route_write")},
      {"core.construct_s", seconds_of(tracer, "core.construct")},
      {"core.place_s", place_s},
      {"core.place_calls", count(place_calls)},
      {"core.place_ns_p50", percentile(place_samples, 0.50)},
      {"core.place_ns_p99", percentile(place_samples, 0.99)},
      {"core.mc_bytes", count(result.mc_bytes)},
      {"core.parallel_s", seconds_of(tracer, "core.run_parallel")},
      {"core.rct_delayed", count(result.parallel.delayed_vertices)},
      {"core.rct_forced", count(result.parallel.forced_vertices)},
      {"core.rct_untracked_overflow", count(result.parallel.untracked_overflow)},
      {"core.rct_exclusive_acquires", count(contention.rct_exclusive_acquires)},
      {"core.rct_exclusive_contended", count(contention.rct_exclusive_contended)},
      {"partition.driver_self_s", driver_self_s},
      {"partition.metrics_s", seconds_of(tracer, "partition.metrics")},
      {"prepass.cluster_s", seconds_of(tracer, "prepass.cluster")},
      {"prepass.clusters", count(result.prepass.num_clusters)},
      {"prepass.reassigned", count(result.prepass.reassigned)},
      {"prepass.degraded", result.prepass.degraded ? 1.0 : 0.0},
      {"trace.coverage_frac", wall_s > 0.0 ? covered_s / wall_s : 0.0},
  };
  std::string json;
  char buf[128];
  for (const auto& [name, value] : layers) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", json.empty() ? "" : ",",
                  name, value);
    json += buf;
  }
  return json;
}

int run(const CliArgs& args) {
  const std::string input = args.get("input", "");
  const std::string format = args.get("format", "adj");
  const std::string out = args.get("out", "");
  const bool stream_direct = args.get_bool("stream", false);
  const bool traced = args.get_bool("trace", false);
  const auto threads = static_cast<unsigned>(args.get_int("threads", 1));
  const std::string prepass = args.get("prepass", "none");
  const std::string corrupt = args.get("corrupt", "none");
  PartitionConfig config;
  config.num_partitions = static_cast<PartitionId>(args.get_int("k", 0));
  if (input.empty() || out.empty() || config.num_partitions == 0) {
    throw CliError("run needs --input, --out and --k");
  }
  if (prepass != "none" && prepass != "2ps") throw CliError("--prepass: none|2ps");
  if (prepass == "2ps" && threads > 1) {
    throw CliError("--prepass=2ps runs on the sequential driver only");
  }
  if (corrupt != "none" && corrupt != "valid" && corrupt != "invalid") {
    throw CliError("--corrupt: none|valid|invalid");
  }
  Tracer tracer;
  JobResult result;
  const PartitionId k = config.num_partitions;
  const int job = tracer.begin("job");

  std::unique_ptr<AdjacencyStream> file_stream;
  {
    ScopedSpan span(tracer, "graph.open");
    file_stream = open_stream(input, format);
  }
  std::optional<perfbench::TracedStream> traced_file;
  AdjacencyStream* stream = file_stream.get();
  if (traced) stream = &traced_file.emplace(*file_stream, tracer);

  std::optional<Graph> graph;
  if (!stream_direct) {
    ScopedSpan span(tracer, "graph.materialize");
    graph = materialize(*stream);
  }
  std::optional<InMemoryStream> memory_stream;
  std::optional<perfbench::TracedStream> traced_memory;
  if (graph) {
    stream = &memory_stream.emplace(*graph);
    if (traced) stream = &traced_memory.emplace(*memory_stream, tracer);
  }
  const VertexId n = stream->num_vertices();

  const std::vector<PartitionId>* hints = nullptr;
  if (prepass == "2ps") {
    ScopedSpan span(tracer, "prepass.cluster");
    result.prepass = cluster_prepass(*stream, config);
    stream->reset();
    if (!result.prepass.degraded && !result.prepass.hints.empty()) {
      hints = &result.prepass.hints;
    }
  }

  if (threads > 1) {
    ParallelOptions options;
    options.num_threads = threads;
    ScopedSpan span(tracer, "core.run_parallel");
    result.parallel = run_parallel(*stream, config, options);
    result.route = std::move(result.parallel.route);
    result.mc_bytes = result.parallel.peak_partitioner_bytes;
  } else {
    std::optional<SpnlPartitioner> spnl;
    {
      ScopedSpan span(tracer, "core.construct");
      spnl.emplace(n, stream->num_edges(), config,
                   SpnlOptions{.logical_hints = hints});
    }
    std::optional<perfbench::TracedPartitioner> traced_spnl;
    StreamingPartitioner* partitioner = &*spnl;
    if (traced) partitioner = &traced_spnl.emplace(*spnl, tracer);
    ScopedSpan span(tracer, "partition.run_streaming");
    RunResult run = run_streaming(*stream, *partitioner);
    result.route = std::move(run.route);
    result.mc_bytes = run.peak_partitioner_bytes;
  }

  if (corrupt != "none" && !result.route.empty()) {
    result.route[0] = corrupt == "invalid" ? k : (result.route[0] + 1) % k;
  }
  {
    ScopedSpan span(tracer, "graph.validate");
    validate_route(result.route, k, n);
  }
  {
    ScopedSpan span(tracer, "partition.metrics");
    if (graph) {
      result.quality = evaluate_partition(*graph, result.route, k);
    } else {
      stream->reset();
      result.quality = evaluate_partition(*stream, result.route, k);
    }
  }
  {
    ScopedSpan span(tracer, "graph.route_write");
    write_route_table(result.route, out);
  }
  tracer.end(job);
  const std::size_t peak_rss = peak_rss_bytes();

  // Outside the measured job: the published file must parse back to the
  // route that was computed; its digest pins the route across jobs.
  const std::string published = read_file(out);
  if (read_route_table(out, k) != result.route) {
    throw std::runtime_error("published route differs from the computed route");
  }
  // Ground truth for the recovery metric, loaded after peak RSS is taken:
  // spnl_partition never holds it.
  std::vector<PartitionId> truth;
  if (args.has("labels")) {
    truth = read_route_table(args.get("labels", ""));
  } else {
    // Crawl inputs carry no planted truth: score against K contiguous id
    // blocks, the crawl's own pseudo-communities (graph/reorder.hpp).
    truth.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      truth[v] = static_cast<PartitionId>(static_cast<std::uint64_t>(v) * k / n);
    }
  }
  PartitionId communities = 0;
  for (const PartitionId label : truth) communities = std::max(communities, label + 1);
  const double recovery = recovery_rate(truth, communities, result.route, k);

  const Span& job_span = tracer.spans()[static_cast<std::size_t>(job)];
  const Span* driver = tracer.find(threads > 1 ? "core.run_parallel"
                                               : "partition.run_streaming");
  std::printf(
      "{\"wall_s\":%.9g,\"pt_s\":%.9g,\"setup_s\":%.9g,\"peak_rss_mb\":%.9g,"
      "\"ecr\":%.9g,\"delta_v\":%.9g,\"delta_e\":%.9g,\"recovery\":%.9g,"
      "\"digest\":\"%016llx\"",
      job_span.seconds(), driver->seconds(),
      1e-9 * static_cast<double>(driver->start_ns - job_span.start_ns),
      static_cast<double>(peak_rss) / (1024.0 * 1024.0), result.quality.ecr,
      result.quality.delta_v, result.quality.delta_e, recovery,
      static_cast<unsigned long long>(fnv1a(published)));
  if (traced) {
    std::printf(",\"layers\":{%s}",
                layer_json(tracer, job, result).c_str());
  }
  std::printf("}\n");
  return 0;
}

// Build identity for the benchmark's host/build stamp.
int info() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("{\"build_type\":\"%s\",\"compiler\":\"%s\",\"sanitized\":%s,"
              "\"ndebug\":%s}\n",
              PERFBENCH_BUILD_TYPE, __VERSION__, sanitized ? "true" : "false",
              ndebug ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string mode = args.positional().empty() ? "" : args.positional()[0];
  try {
    if (mode == "gen") return generate(args);
    if (mode == "run") return run(args);
    if (mode == "info") return info();
    std::fprintf(stderr, "usage: perfbench_job gen|run|info [flags]\n");
    return 2;
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
