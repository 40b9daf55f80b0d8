// Client for spnl_server: streams a graph file to the daemon and writes the
// returned route table, surviving Busy replies, server restarts, and torn
// connections via retry/backoff + token resume (docs/server.md).
//
//   spnl_client <graph-file> --connect=unix:/tmp/spnl.sock --k=4
//               [--algo=spnl] [--format=adj|edges|sadj] [--lambda=0.5]
//               [--shards=N] [--balance=vertex|edge] [--slack=1.1]
//               [--out=route.txt] [--deadline=SEC] [--max-attempts=N]
//               [--batch=RECORDS] [--inject-disconnect-after=N] [--quiet]
#include <cstdio>
#include <memory>
#include <string>

#include "graph/adjacency_stream.hpp"
#include "graph/io.hpp"
#include "graph/stream_binary.hpp"
#include "server/client.hpp"
#include "util/cli.hpp"
#include "util/fault_fs.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: spnl_client <graph-file> --connect=<unix:PATH|tcp:HOST:PORT> "
      "--k=<parts> [options]\n"
      "  --algo=NAME             spnl|spn|ldg|fennel|hash|range (spnl)\n"
      "  --format=adj|edges|sadj input format (adj = adjacency lines,\n"
      "                          edges = source-grouped edge list,\n"
      "                          sadj = binary from spnl_convert; adj)\n"
      "  --lambda=F --shards=N   SPNL scoring knobs\n"
      "  --balance=vertex|edge --slack=F   capacity model\n"
      "  --out=PATH              write the route, one partition per line\n"
      "  --deadline=SEC          wall-clock budget (0 = unbounded)\n"
      "  --max-attempts=N        transport failures tolerated (8)\n"
      "  --batch=N               records per frame (256)\n"
      "  --inject-disconnect-after=N  fault injection: drop the connection\n"
      "                          once after N acked records (tests)\n"
      "  --inject-io-faults=PLAN storage-fault plan for the reader/route\n"
      "                          writer (docs/fault_tolerance.md)\n");
}

}  // namespace

int main(int argc, char** argv) {
  spnl::CliArgs args(argc, argv);
  if (!args.known_flags_only(
          {"help", "connect", "k", "algo", "format", "lambda", "shards",
           "balance", "slack", "out", "deadline", "max-attempts", "batch",
           "inject-disconnect-after", "inject-io-faults", "quiet"})) {
    return 2;
  }
  if (args.has("help") || args.positional().empty() || !args.has("connect") ||
      !args.has("k")) {
    usage();
    return args.has("help") ? 0 : 2;
  }
  const bool quiet = args.get_bool("quiet", false);

  if (args.has("inject-io-faults")) {
    try {
      spnl::faultfs::configure(args.get("inject-io-faults", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  spnl::ClientOptions options;
  std::unique_ptr<spnl::AdjacencyStream> stream;
  try {
    options.endpoint = spnl::Endpoint::parse(args.get("connect", ""));
    options.deadline_seconds = args.get_double("deadline", 0.0);
    options.max_attempts =
        static_cast<std::uint32_t>(args.get_int("max-attempts", 8));
    options.batch_records =
        static_cast<std::uint32_t>(args.get_int("batch", 256));
    options.inject_disconnect_after_records =
        static_cast<std::uint64_t>(args.get_int("inject-disconnect-after", 0));

    const std::string path = args.positional()[0];
    const std::string format = args.get("format", "adj");
    if (format == "adj") {
      stream = std::make_unique<spnl::FileAdjacencyStream>(path);
    } else if (format == "edges") {
      stream = std::make_unique<spnl::EdgeListAdjacencyStream>(path);
    } else if (format == "sadj") {
      stream = std::make_unique<spnl::BinaryAdjacencyStream>(path);
    } else {
      std::fprintf(stderr, "error: unknown --format=%s\n", format.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  spnl::WireSessionConfig config;
  try {
    config.algo = args.get("algo", "spnl");
    config.num_vertices = stream->num_vertices();
    config.num_edges = stream->num_edges();
    config.num_partitions = static_cast<std::uint32_t>(args.get_int("k", 2));
    config.lambda = args.get_double("lambda", 0.5);
    config.num_shards = static_cast<std::uint32_t>(args.get_int("shards", 0));
    const std::string balance = args.get("balance", "vertex");
    if (balance != "vertex" && balance != "edge") {
      std::fprintf(stderr, "error: unknown --balance=%s\n", balance.c_str());
      return 2;
    }
    config.balance = balance == "edge" ? 1 : 0;
    config.slack = args.get_double("slack", 1.1);
  } catch (const spnl::CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  spnl::SpnlClient client(options);
  spnl::ClientRunResult result;
  try {
    result = client.partition(*stream, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const std::string out_path = args.get("out", "");
  if (!out_path.empty()) {
    try {
      // Same "# vertex partition" table spnl_partition writes, so the two
      // front-ends are drop-in interchangeable downstream.
      spnl::write_route_table(result.route, out_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (!quiet) {
    std::printf(
        "partitioned %zu vertices (session %s, attempts=%u busy_retries=%llu "
        "reconnects=%llu)\n",
        result.route.size(), result.token.c_str(), result.attempts,
        static_cast<unsigned long long>(result.busy_retries),
        static_cast<unsigned long long>(result.reconnects));
  }
  return 0;
}
