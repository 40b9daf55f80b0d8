// spnl_partition — command-line front end for the whole partitioner suite.
//
// Usage:
//   spnl_partition <graph-file> --k=32 [--algo=spnl] [--out=route.txt]
//                  [--lambda=0.5] [--shards=0] [--balance=vertex|edge]
//                  [--slack=1.1] [--threads=1] [--passes=1]
//                  [--buffer=0] [--prepass=none|2ps]
//                  [--format=adj|edgelist|binary|sadj] [--stream] [--window=0]
//                  [--quiet]
//                  [--checkpoint=ckpt.bin] [--checkpoint-every=N]
//                  [--resume-from=ckpt.bin]
//                  [--inject-faults=stuck:W@N,wedge:W@N,slow:W@D,
//                                   pressure:BYTES]
//                  [--memory-budget=BYTES[K|M|G]] [--deadline=SECS]
//                  [--degrade-policy=ladder|abort|off] [--governor-interval=N]
//                  [--watchdog-timeout=SECS]
//                  [--max-bad-records=N] [--quarantine-log=bad.txt]
//                  [--perf-report] [--perf-json=stats.json]
//
// Algorithms: hash, range, ldg, fennel, spn, spnl (default), multilevel,
// labelprop. At most one mode may be set: --threads > 1 selects parallel
// SPN/SPNL or parallel label-prop; --passes > 1 re-streams an LDG or SPNL
// first pass with ReLDG; --buffer > 0 uses the hybrid buffered mode and
// --window > 0 WSGP-style most-confident-first selection, each with the LDG
// or SPNL rule. A mode given an algorithm it does not run exits 2, as does
// an unknown --algo. --prepass=2ps (SPNL only, sequential and
// --passes paths) runs the two-phase streaming clustering prepass and feeds
// its cluster-derived placement hints into SPNL's logical table — one extra
// scan that buys order-robustness (see prepass/two_phase.hpp); a degraded
// prepass (cluster budget overflow) falls back to plain SPNL.
//
// Ingestion: --format=sadj reads the delta-compressed binary adjacency
// format written by spnl_convert (identical records, identical routes to the
// adj text it came from). --stream skips graph
// materialization entirely and feeds the file stream straight to the
// partitioner — the memory profile the paper's streaming model assumes —
// for the streaming algorithm paths (greedy sequential, --threads, --passes,
// --window, --buffer); quality metrics then cost one extra
// read-only pass after routing. The offline algos (multilevel, labelprop)
// still need the materialized graph and reject --stream.
//
// Robustness flags: --checkpoint + --checkpoint-every snapshot the
// partitioner state every N placements (sequential greedy algos and the
// parallel driver; any other path exits 2); --resume-from continues an
// interrupted run from a snapshot and produces the same route the
// uninterrupted run would have.
//
// Resource governance: --memory-budget (partitioner-footprint bytes, K/M/G
// suffixes) and --deadline (wall-clock seconds) attach a ResourceGovernor to
// the sequential greedy, --passes and parallel SPNL/SPN paths (with --window,
// --buffer or an offline algo they exit 2); on breach the run steps
// a degradation ladder (shrink Γ window → coarse slide → capacity-weighted
// hash fallback) instead of OOMing — --degrade-policy=abort makes a breach a
// hard error, =off records samples without intervening. --watchdog-timeout
// arms the parallel pipeline watchdog (so it requires --threads > 1 with spn
// or spnl): a worker stalled past the timeout has its in-flight record
// stolen and rescued; a fully wedged pipeline aborts cleanly.
// --max-bad-records / --quarantine-log harden the adj-format file stream:
// malformed mid-stream lines are skipped, counted and logged rather than
// fatal, up to the bound. --inject-faults (keys stuck/wedge/slow/
// pressure) drives the parallel pipeline's fault plan, so it requires
// --threads > 1 with spn or spnl.
//
// Instrumentation: --perf-report attaches per-stage counters/timers (score,
// Γ increment, window advance, commit, queue wait) to the sequential greedy,
// --passes (summed over the passes) and parallel SPNL/SPN paths, exiting 2
// on the paths that have no sink, and prints a table plus one machine-readable
// JSON line (prefix "perf-json: "); --perf-json writes that JSON object to a
// file. When neither flag is given the instrumentation is compiled in but
// never attached — the hot path only sees untaken null-pointer branches.
//
// Prints ECR / δv / δe / PT / MC and the process's peak RSS (VmHWM, RSS=)
// and writes the route table when --out is given; --perf-json carries the
// same peak as "peak_rss_bytes". Exit code 0 on success; a flag this tool
// does not read, like a malformed flag value, exits 2.
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/stream_binary.hpp"
#include "offline/label_prop.hpp"
#include "offline/multilevel.hpp"
#include "partition/buffered.hpp"
#include "partition/driver.hpp"
#include "partition/fennel.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/ldg.hpp"
#include "partition/metrics.hpp"
#include "partition/range_partitioner.hpp"
#include "partition/restream.hpp"
#include "prepass/two_phase.hpp"
#include "partition/window_stream.hpp"
#include "util/cli.hpp"
#include "util/fault_fs.hpp"
#include "util/memory.hpp"
#include "util/perf_stats.hpp"
#include "util/resource_governor.hpp"
#include "util/shutdown.hpp"

namespace {

using namespace spnl;

int usage() {
  std::fprintf(stderr,
               "usage: spnl_partition <graph-file> --k=K [--algo=spnl] "
               "[--out=route.txt]\n"
               "  [--lambda=0.5] [--shards=0] [--balance=vertex|edge] "
               "[--slack=1.1]\n"
               "  [--threads=1] [--passes=1] [--buffer=0] "
               "[--prepass=none|2ps] "
               "[--window=0] [--format=adj|edgelist|binary|sadj]\n"
               "  [--stream] [--quiet]\n"
               "  [--checkpoint=ckpt.bin] [--checkpoint-every=N] "
               "[--resume-from=ckpt.bin]\n"
               "  [--inject-faults=stuck:W@N,wedge:W@N,slow:W@D,pressure:BYTES]\n"
               "  [--memory-budget=BYTES[K|M|G]] [--deadline=SECS]\n"
               "  [--degrade-policy=ladder|abort|off] [--governor-interval=N]\n"
               "  [--watchdog-timeout=SECS]\n"
               "  [--max-bad-records=N] [--quarantine-log=bad.txt]\n"
               "  [--inject-io-faults=seed:S,fail:OP@N[@ERR],eintr:OP@N[@R],"
               "short:OP@N[@D],enospc:BYTES,torn:N[@BYTES],kill:OP@N]\n"
               "  [--perf-report] [--perf-json=stats.json]\n"
               "algos: hash range ldg fennel spn spnl multilevel labelprop\n"
               "modes (at most one): --threads>1 runs spn spnl labelprop; "
               "--passes>1, --buffer, --window run ldg spnl\n");
  return 2;
}

bool one_of(const std::string& value, std::initializer_list<const char*> set) {
  for (const char* item : set) {
    if (value == item) return true;
  }
  return false;
}

// Parses the comma-separated parallel-pipeline fault spec: "stuck:W@N"
// (freeze between publish and claim at worker W's Nth record), "wedge:W@N"
// (freeze inside the placement — unstealable), "slow:W@D" (sleep D seconds
// per record), "pressure:BYTES" (heap ballast, K/M/G suffixes).
ParallelFaultPlan parse_fault_plan(const std::string& spec) {
  ParallelFaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("--inject-faults: expected key:value in '" + item + "'");
    }
    const std::string key = item.substr(0, colon);
    const std::string value = item.substr(colon + 1);
    // "A@B" / "A@B@C" splitter shared by the scheduled-event keys.
    auto split_at = [&](std::vector<std::string>& out) {
      out.clear();
      std::size_t p = 0;
      while (p <= value.size()) {
        std::size_t at = value.find('@', p);
        if (at == std::string::npos) at = value.size();
        out.push_back(value.substr(p, at - p));
        p = at + 1;
      }
    };
    std::vector<std::string> parts;
    try {
      if (key == "stuck" || key == "wedge") {
        split_at(parts);
        if (parts.size() != 2) throw std::runtime_error(key + " wants W@N");
        StuckWorkerFault stuck;
        stuck.worker = static_cast<unsigned>(std::stoul(parts[0]));
        stuck.at_pop = std::stoull(parts[1]);
        stuck.in_processing = key == "wedge";
        plan.stuck.push_back(stuck);
      } else if (key == "slow") {
        split_at(parts);
        if (parts.size() != 2) throw std::runtime_error("slow wants W@D");
        SlowWorkerFault slow;
        slow.worker = static_cast<unsigned>(std::stoul(parts[0]));
        slow.delay_seconds = std::stod(parts[1]);
        plan.slow.push_back(slow);
      } else if (key == "pressure") {
        plan.ballast_bytes = parse_byte_size(value);
      } else {
        throw std::runtime_error("unknown fault key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("--inject-faults: bad value in '" + item + "'");
    } catch (const std::out_of_range&) {
      throw std::runtime_error("--inject-faults: value out of range in '" + item + "'");
    }
  }
  return plan;
}

// File-backed stream for the formats that have a streaming reader: adj text
// and the sadj binary format. Returns nullptr for materialize-only formats
// (edgelist, binary CSR).
std::unique_ptr<AdjacencyStream> open_stream(
    const std::string& path, const std::string& format,
    const StreamHardeningOptions& hardening) {
  if (format == "sadj") return std::make_unique<BinaryAdjacencyStream>(path);
  if (format == "adj") return std::make_unique<FileAdjacencyStream>(path, hardening);
  return nullptr;
}

Graph load_graph(const std::string& path, const std::string& format) {
  if (format == "edgelist") return read_edge_list(path, /*compact_ids=*/true);
  if (format == "binary") return read_binary(path);
  throw std::runtime_error("unknown --format " + format);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (!args.known_flags_only(
          {"k", "algo", "out", "lambda", "shards", "balance", "slack",
           "threads", "passes", "buffer", "window", "prepass", "format",
           "stream", "quiet", "checkpoint", "checkpoint-every", "resume-from",
           "inject-faults", "inject-io-faults", "memory-budget", "deadline",
           "degrade-policy", "governor-interval", "watchdog-timeout",
           "max-bad-records", "quarantine-log", "perf-report", "perf-json"})) {
    return 2;
  }
  if (args.positional().size() != 1) return usage();

  // Everything below — including the flag reads — sits in one try so a
  // malformed numeric flag (--threads=abc) surfaces as a typed CliError with
  // usage status, never a silent default.
  try {
    // Storage-fault plan (distinct from --inject-faults, which schedules
    // worker faults): armed before the first file is opened so the plan's
    // operation indices count from the very first syscall of the run.
    if (args.has("inject-io-faults")) {
      try {
        faultfs::configure(args.get("inject-io-faults", ""));
      } catch (const std::exception& e) {
        throw CliError(e.what());
      }
    }

    const auto k = static_cast<PartitionId>(args.get_int("k", 0));
    if (k == 0) return usage();
    const std::string algo = args.get("algo", "spnl");
    const std::string format = args.get("format", "adj");
    const bool stream_direct = args.get_bool("stream", false);
    const bool quiet = args.get_bool("quiet", false);

    PartitionConfig config;
    config.num_partitions = k;
    config.slack = args.get_double("slack", 1.1);
    config.balance = args.get("balance", "vertex") == "edge"
                         ? BalanceMode::kEdge
                         : BalanceMode::kVertex;
    const double lambda = args.get_double("lambda", 0.5);
    const auto shards = static_cast<std::uint32_t>(args.get_int("shards", 0));
    const auto threads = static_cast<unsigned>(args.get_int("threads", 1));
    const int passes = static_cast<int>(args.get_int("passes", 1));
    const auto buffer = static_cast<VertexId>(args.get_int("buffer", 0));
    const auto window = static_cast<VertexId>(args.get_int("window", 0));
    const std::string prepass = args.get("prepass", "none");
    if (prepass != "none" && prepass != "2ps") {
      throw std::runtime_error("--prepass: want none|2ps");
    }
    const bool use_prepass = prepass == "2ps";

    // Every algorithm/mode combination is checked before the input is
    // opened: a combination no path implements exits 2 instead of running
    // some other algorithm under the requested label.
    if (!one_of(algo, {"hash", "range", "ldg", "fennel", "spn", "spnl",
                       "multilevel", "labelprop"})) {
      throw CliError("--algo: unknown algorithm '" + algo + "'");
    }
    std::vector<std::string> modes;
    if (window > 0) modes.push_back("--window");
    if (buffer > 0) modes.push_back("--buffer");
    if (passes > 1) modes.push_back("--passes");
    if (threads > 1) modes.push_back("--threads");
    if (modes.size() > 1) {
      throw CliError(modes[0] + " and " + modes[1] +
                     " select different modes; set one");
    }
    const std::string mode = modes.empty() ? "" : modes[0];
    const bool threaded = mode == "--threads";
    if (threaded ? !one_of(algo, {"spn", "spnl", "labelprop"})
                 : !mode.empty() && !one_of(algo, {"ldg", "spnl"})) {
      throw CliError(mode + " does not run --algo=" + algo);
    }
    const bool offline = algo == "multilevel" || algo == "labelprop";
    if ((args.has("checkpoint") || args.has("resume-from")) &&
        (offline || !(mode.empty() || threaded))) {
      throw CliError(
          "--checkpoint/--resume-from apply only to the sequential streaming "
          "algorithms and --threads>1 with spn or spnl");
    }
    if (args.has("inject-faults") && !(threaded && !offline)) {
      throw CliError("--inject-faults requires --threads>1 with spn or spnl");
    }
    if (args.has("watchdog-timeout") && !(threaded && !offline)) {
      throw CliError("--watchdog-timeout requires --threads>1 with spn or spnl");
    }
    // These paths take neither a perf sink nor a resource governor, so the
    // flags that feed them would be dropped.
    const std::string unobserved = window > 0   ? "--window"
                                   : buffer > 0 ? "--buffer"
                                   : offline    ? "--algo=" + algo
                                                : "";
    if (!unobserved.empty()) {
      for (const char* flag : {"perf-report", "perf-json", "memory-budget", "deadline",
                               "degrade-policy", "governor-interval"}) {
        if (args.has(flag)) {
          throw CliError("--" + std::string(flag) + " has no effect with " + unobserved);
        }
      }
    }

    const std::string checkpoint_path = args.get("checkpoint", "");
    const auto checkpoint_every =
        static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
    const std::string resume_from = args.get("resume-from", "");
    if (use_prepass) {
      if (algo != "spnl") {
        throw std::runtime_error("--prepass=2ps requires --algo=spnl");
      }
      if (threads > 1 || window > 0 || buffer > 0) {
        throw std::runtime_error(
            "--prepass=2ps supports the sequential and --passes paths only");
      }
    }

    const bool perf_report = args.get_bool("perf-report", false);
    const std::string perf_json_path = args.get("perf-json", "");
    PerfStats perf;
    // Instrumented paths: sequential greedy algos and the parallel driver.
    PerfStats* perf_ptr =
        (perf_report || !perf_json_path.empty()) ? &perf : nullptr;

    // Resource governor (memory budget / deadline) for the greedy sequential
    // and parallel SPNL/SPN paths.
    ResourceGovernor::Options governor_options;
    if (args.has("memory-budget")) {
      governor_options.memory_budget_bytes =
          parse_byte_size(args.get("memory-budget", ""));
    }
    governor_options.deadline_seconds = args.get_double("deadline", 0.0);
    const std::string policy = args.get("degrade-policy", "ladder");
    if (policy == "abort") {
      governor_options.policy = DegradePolicy::kAbort;
    } else if (policy == "off") {
      governor_options.policy = DegradePolicy::kOff;
    } else if (policy != "ladder") {
      throw std::runtime_error("--degrade-policy: want ladder|abort|off");
    }
    if (args.has("governor-interval")) {
      governor_options.sample_interval =
          static_cast<std::uint64_t>(args.get_int("governor-interval", 256));
      if (governor_options.sample_interval == 0) {
        throw std::runtime_error("--governor-interval: want >= 1");
      }
    }
    ResourceGovernor governor(governor_options);
    ResourceGovernor* governor_ptr = governor.enabled() ? &governor : nullptr;
    const double watchdog_timeout = args.get_double("watchdog-timeout", 0.0);

    StreamHardeningOptions hardening;
    hardening.max_bad_records =
        static_cast<std::uint64_t>(args.get_int("max-bad-records", 0));
    hardening.quarantine_log = args.get("quarantine-log", "");

    // Parsed before the input is opened, so a malformed spec fails fast.
    ParallelFaultPlan faults;
    if (args.has("inject-faults")) {
      faults = parse_fault_plan(args.get("inject-faults", ""));
    }

    const std::string input_path = args.positional()[0];
    if (format != "adj" && format != "edgelist" && format != "binary" &&
        format != "sadj") {
      throw std::runtime_error("unknown --format " + format);
    }

    std::uint64_t bad_records = 0;
    std::unique_ptr<AdjacencyStream> file_stream =
        open_stream(input_path, format, hardening);
    if (stream_direct && file_stream == nullptr) {
      throw std::runtime_error(
          "--stream requires --format=adj or --format=sadj");
    }

    // Materialize unless --stream: the offline algos need the CSR, and the
    // materialized path keeps the seed behavior
    // (metrics over the in-memory graph, no second file pass).
    std::optional<Graph> graph;
    if (!stream_direct) {
      if (file_stream != nullptr) {
        graph = materialize(*file_stream);
        bad_records = file_stream->bad_records();
      } else {
        graph = load_graph(input_path, format);
      }
    }
    std::optional<InMemoryStream> mem_stream;
    if (graph) mem_stream.emplace(*graph);
    AdjacencyStream& stream =
        graph ? static_cast<AdjacencyStream&>(*mem_stream) : *file_stream;

    if (!quiet) {
      if (graph) {
        std::printf("%s\n", describe(*graph, input_path).c_str());
      } else {
        std::printf("%s: V=%u E=%llu (direct streaming via %s)\n",
                    input_path.c_str(), stream.num_vertices(),
                    static_cast<unsigned long long>(stream.num_edges()),
                    format.c_str());
      }
    }
    if (!quiet && bad_records > 0) {
      std::printf("quarantined %llu malformed record(s)%s%s\n",
                  static_cast<unsigned long long>(bad_records),
                  hardening.quarantine_log.empty() ? "" : " -> ",
                  hardening.quarantine_log.c_str());
    }
    if (file_stream != nullptr && file_stream->quarantine_log_drops() > 0) {
      std::printf("WARNING: %llu quarantined record(s) lost to quarantine-log "
                  "write failures\n",
                  static_cast<unsigned long long>(
                      file_stream->quarantine_log_drops()));
    }

    std::vector<PartitionId> route;
    double seconds = 0.0;
    std::size_t bytes = 0;
    std::vector<DegradationEvent> degradations;

    // 2PS clustering prepass: one extra scan before the scoring pass. A
    // resumed run re-derives the identical hint table here (the prepass is
    // deterministic), so snapshots stay byte-compatible.
    PrepassResult prepass_result;
    const std::vector<PartitionId>* spnl_hints = nullptr;
    if (use_prepass) {
      prepass_result = cluster_prepass(stream, config);
      stream.reset();
      if (!prepass_result.degraded && !prepass_result.hints.empty()) {
        spnl_hints = &prepass_result.hints;
      }
      if (!quiet) {
        std::printf("prepass: clusters=%u reassigned=%llu degraded=%s "
                    "seconds=%.3f\n",
                    prepass_result.num_clusters,
                    static_cast<unsigned long long>(prepass_result.reassigned),
                    prepass_result.degraded ? "yes (plain SPNL fallback)" : "no",
                    prepass_result.seconds);
      }
    }

    if (algo == "multilevel") {
      if (!graph) {
        throw std::runtime_error(
            "--algo=multilevel needs the materialized graph; drop --stream");
      }
      auto result = multilevel_partition(*graph, config);
      route = std::move(result.route);
      seconds = result.partition_seconds;
      bytes = result.peak_bytes;
    } else if (algo == "labelprop") {
      if (!graph) {
        throw std::runtime_error(
            "--algo=labelprop needs the materialized graph; drop --stream");
      }
      LabelPropOptions options;
      options.num_threads = threads;
      auto result = label_prop_partition(*graph, config, options);
      route = std::move(result.route);
      seconds = result.partition_seconds;
      bytes = result.peak_bytes;
    } else if (window > 0) {
      auto result = window_stream_partition(
          stream, config,
          {.window_size = window,
           .logical_weight = algo == "spnl" ? 0.5 : 0.0});
      route = std::move(result.route);
      seconds = result.partition_seconds;
      bytes = result.peak_bytes;
    } else if (buffer > 0) {
      BufferedOptions options;
      options.buffer_size = buffer;
      options.seed_rule =
          algo == "ldg" ? BufferSeedRule::kLdg : BufferSeedRule::kSpnl;
      auto result = buffered_partition(stream, config, options);
      route = std::move(result.route);
      seconds = result.partition_seconds;
      bytes = result.peak_bytes;
    } else if (passes > 1) {
      RestreamOptions options;
      options.passes = passes;
      options.seed_with_spnl = algo == "spnl";
      options.spnl_hints = spnl_hints;
      options.perf = perf_ptr;
      options.governor = governor_ptr;
      auto result = restream_partition(stream, config, options);
      route = std::move(result.route);
      seconds = result.partition_seconds;
      bytes = result.peak_bytes;
      degradations = std::move(result.degradations);
    } else if (threaded) {
      ParallelOptions options;
      options.num_threads = threads;
      options.use_locality = algo == "spnl";
      options.spnl.lambda = lambda;
      options.spnl.num_shards = shards;
      options.checkpoint_path = checkpoint_path;
      options.checkpoint_every = checkpoint_every;
      options.resume_from = resume_from;
      options.perf = perf_ptr;
      options.watchdog_timeout_seconds = watchdog_timeout;
      options.governor = governor_ptr;
      options.faults = faults;
      ParallelRunResult result;
      try {
        result = run_parallel(stream, config, options);
      } catch (const StreamAborted& e) {
        std::fprintf(stderr,
                     "error: %s (stalled_workers=%llu rescued_records=%llu)\n",
                     e.what(),
                     static_cast<unsigned long long>(e.result.stalled_workers),
                     static_cast<unsigned long long>(e.result.rescued_records));
        return 1;
      }
      route = std::move(result.route);
      seconds = result.partition_seconds;
      bytes = result.peak_partitioner_bytes;
      degradations = std::move(result.degradations);
      if (!quiet && (result.checkpoints_written > 0 || result.resumed_at > 0)) {
        std::printf("checkpoints_written=%llu resumed_at=%llu\n",
                    static_cast<unsigned long long>(result.checkpoints_written),
                    static_cast<unsigned long long>(result.resumed_at));
      }
      if (!quiet && result.stalled_workers > 0) {
        std::printf("watchdog: stalled_workers=%llu rescued_records=%llu\n",
                    static_cast<unsigned long long>(result.stalled_workers),
                    static_cast<unsigned long long>(result.rescued_records));
      }
    } else {
      std::unique_ptr<StreamingPartitioner> partitioner;
      const VertexId n = stream.num_vertices();
      const EdgeId m = stream.num_edges();
      if (algo == "hash") {
        partitioner = std::make_unique<HashPartitioner>(n, m, config);
      } else if (algo == "range") {
        partitioner = std::make_unique<RangePartitioner>(n, m, config);
      } else if (algo == "ldg") {
        partitioner = std::make_unique<LdgPartitioner>(n, m, config);
      } else if (algo == "fennel") {
        partitioner = std::make_unique<FennelPartitioner>(n, m, config);
      } else if (algo == "spn") {
        partitioner = std::make_unique<SpnPartitioner>(
            n, m, config, SpnOptions{.lambda = lambda, .num_shards = shards});
      } else {  // spnl
        partitioner = std::make_unique<SpnlPartitioner>(
            n, m, config,
            SpnlOptions{.lambda = lambda,
                        .num_shards = shards,
                        .logical_hints = spnl_hints});
      }
      const StreamingCheckpointOptions checkpoint{
          .path = checkpoint_path,
          .every = checkpoint_every,
          .resume_from = resume_from};
      // Graceful SIGINT/SIGTERM: the driver polls the process-global flag,
      // finishes the record in flight, writes a final snapshot (when
      // --checkpoint is set) and returns with interrupted set — instead of
      // the process dying mid-route.
      arm_shutdown_flag();
      RunResult run = run_streaming(stream, *partitioner, checkpoint, perf_ptr,
                                    governor_ptr, &shutdown_flag());
      // The route is in `run` now: the metrics pass below runs without the
      // partitioner's Γ window and tables.
      partitioner.reset();
      if (run.interrupted) {
        std::fprintf(stderr,
                     "interrupted: %llu of %u records placed; %s\n",
                     static_cast<unsigned long long>(run.vertices_placed),
                     stream.num_vertices(),
                     checkpoint_path.empty()
                         ? "no --checkpoint configured, progress not persisted"
                         : ("final checkpoint written to " + checkpoint_path)
                               .c_str());
        return kExitInterrupted;
      }
      route = std::move(run.route);
      seconds = run.partition_seconds;
      bytes = run.peak_partitioner_bytes;
      degradations = std::move(run.degradations);
      if (!quiet && (run.checkpoints_written > 0 || run.resumed_at > 0)) {
        std::printf("checkpoints_written=%llu resumed_at=%llu\n",
                    static_cast<unsigned long long>(run.checkpoints_written),
                    static_cast<unsigned long long>(run.resumed_at));
      }
    }

    // Direct streaming counts quarantined records during the routing pass
    // itself, so report them now (the materialized path reported at load).
    if (stream_direct) {
      bad_records = stream.bad_records();
      if (!quiet && bad_records > 0) {
        std::printf("quarantined %llu malformed record(s)%s%s\n",
                    static_cast<unsigned long long>(bad_records),
                    hardening.quarantine_log.empty() ? "" : " -> ",
                    hardening.quarantine_log.c_str());
      }
      if (stream.quarantine_log_drops() > 0) {
        std::printf("WARNING: %llu quarantined record(s) lost to "
                    "quarantine-log write failures\n",
                    static_cast<unsigned long long>(
                        stream.quarantine_log_drops()));
      }
    }

    // A direct-stream run whose quarantined records were never placed
    // legitimately leaves holes; every other path must produce a complete
    // assignment.
    const bool may_have_holes = stream_direct && bad_records > 0;
    if (!may_have_holes) validate_route(route, k, stream.num_vertices());
    if (may_have_holes && !is_complete_assignment(route, k)) {
      std::printf("%s K=%u route incomplete (records quarantined mid-stream); "
                  "quality metrics skipped\n",
                  algo.c_str(), k);
    } else {
      // Without the graph, metrics cost one extra read-only pass; PT above
      // excludes it, matching the paper's definition (partitioning ends when
      // the route is final). After reset(), a sadj stream whose partitioning
      // pass indexed it offers segments, and the pass is split over them on
      // the spare cores; any other stream is read once on this thread.
      if (!graph) stream.reset();
      const auto metrics = graph ? evaluate_partition(*graph, route, k)
                                 : evaluate_partition(stream, route, k);
      // RSS is what the process paid at its peak, MC the partitioner's share.
      std::printf("%s K=%u %s PT=%.3fs MC=%s RSS=%s\n", algo.c_str(), k,
                  summarize(metrics).c_str(), seconds, format_bytes(bytes).c_str(),
                  format_bytes(peak_rss_bytes()).c_str());
    }
    if (!quiet) {
      for (const DegradationEvent& event : degradations) {
        std::printf(
            "degraded: stage=%s at=%llu reason=%s bytes=%zu->%zu budget=%zu "
            "elapsed=%.3fs\n",
            degradation_stage_name(event.stage),
            static_cast<unsigned long long>(event.at_placement),
            event.reason.c_str(), event.partitioner_bytes, event.post_bytes,
            event.budget_bytes, event.elapsed_seconds);
      }
    }
    if (perf_ptr != nullptr) {
      // Splice the peak RSS and the governor's ladder transitions into the
      // perf JSON object so one artifact carries timing, memory and
      // degradation history.
      std::string json = perf.to_json();
      json.pop_back();  // the closing brace
      json += ",\"peak_rss_bytes\":" + std::to_string(peak_rss_bytes());
      if (!degradations.empty()) {
        json += ",\"degradations\":" + degradation_events_json(degradations);
      }
      json += "}";
      if (perf_report) {
        std::printf("%s", perf.report().c_str());
        std::printf("perf-json: %s\n", json.c_str());
      }
      if (!perf_json_path.empty()) {
        std::ofstream out(perf_json_path);
        if (!out) {
          throw std::runtime_error("--perf-json: cannot write " + perf_json_path);
        }
        out << json << "\n";
        if (!quiet) std::printf("wrote %s\n", perf_json_path.c_str());
      }
    }
    if (args.has("out")) {
      write_route_table(route, args.get("out", ""));
      if (!quiet) std::printf("wrote %s\n", args.get("out", "").c_str());
    }
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
