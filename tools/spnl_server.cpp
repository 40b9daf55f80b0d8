// Partitioning-as-a-service daemon: listens on a unix or TCP endpoint and
// multiplexes concurrent streaming-partitioning sessions over the framed
// protocol (docs/server.md).
//
//   spnl_server --listen=unix:/tmp/spnl.sock [--max-sessions=N]
//               [--memory-budget=BYTES[K|M|G]] [--idle-timeout=SECONDS]
//               [--read-timeout=SECONDS] [--drain-dir=DIR]
//               [--retry-after-ms=MS] [--quiet]
//
// SIGINT/SIGTERM triggers a graceful drain: the server stops accepting,
// winds down in-flight connections, checkpoints every live session into
// --drain-dir (PR-1 atomic checkpoint format), and exits. Restarting with
// the same --drain-dir restores the sessions; clients resume by token.
// A second signal during a stuck drain kills the process (SA_RESETHAND).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/fault_fs.hpp"
#include "util/resource_governor.hpp"
#include "util/shutdown.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: spnl_server --listen=<unix:PATH|tcp:HOST:PORT> [options]\n"
      "  --max-sessions=N      admission cap on live sessions (default 64)\n"
      "  --memory-budget=BYTES summed partitioner footprint cap, K/M/G "
      "suffixes (0 = off)\n"
      "  --idle-timeout=SEC    reap detached sessions idle this long (30)\n"
      "  --read-timeout=SEC    close connections with no frame for this "
      "long (10)\n"
      "  --drain-dir=DIR       checkpoint sessions here on SIGTERM and\n"
      "                        restore them on startup (empty = disabled)\n"
      "  --retry-after-ms=MS   hint carried by Busy replies (200)\n"
      "  --inject-io-faults=PLAN  storage-fault plan for drain/restore I/O\n"
      "                        (docs/fault_tolerance.md)\n"
      "  --quiet               suppress the startup/stats lines\n");
}

}  // namespace

int main(int argc, char** argv) {
  spnl::CliArgs args(argc, argv);
  if (!args.known_flags_only(
          {"help", "listen", "max-sessions", "memory-budget", "idle-timeout",
           "read-timeout", "drain-dir", "retry-after-ms", "inject-io-faults",
           "quiet"})) {
    return 2;
  }
  if (args.has("help") || !args.has("listen")) {
    usage();
    return args.has("help") ? 0 : 2;
  }
  const bool quiet = args.get_bool("quiet", false);

  // Armed before the drain-dir restore scan so the plan's operation indices
  // cover restore reads as well as drain writes.
  if (args.has("inject-io-faults")) {
    try {
      spnl::faultfs::configure(args.get("inject-io-faults", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  spnl::ServerOptions options;
  try {
    options.endpoint = spnl::Endpoint::parse(args.get("listen", ""));
    options.admission.max_sessions =
        static_cast<std::uint32_t>(args.get_int("max-sessions", 64));
    options.admission.memory_budget_bytes =
        spnl::parse_byte_size(args.get("memory-budget", "0"));
    options.idle_timeout_seconds = args.get_double("idle-timeout", 30.0);
    options.read_timeout_seconds = args.get_double("read-timeout", 10.0);
    options.drain_dir = args.get("drain-dir", "");
    options.retry_after_ms =
        static_cast<std::uint32_t>(args.get_int("retry-after-ms", 200));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  options.watch_shutdown_flag = true;

  // SIGINT/SIGTERM -> pollable flag -> graceful drain in the accept loop.
  spnl::arm_shutdown_flag();

  spnl::SpnlServer server(std::move(options));
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!quiet) {
    std::printf("listening on %s\n", server.endpoint().describe().c_str());
    std::fflush(stdout);
  }

  server.wait();

  const spnl::ServerStats stats = server.stats();
  if (!quiet) {
    std::printf(
        "drained: connections=%llu opened=%llu restored=%llu completed=%llu "
        "reaped=%llu drained=%llu busy=%llu quarantined=%llu "
        "protocol_errors=%llu midstream_disconnects=%llu reconciles=%s\n",
        static_cast<unsigned long long>(stats.connections_accepted),
        static_cast<unsigned long long>(stats.opened),
        static_cast<unsigned long long>(stats.restored),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.reaped),
        static_cast<unsigned long long>(stats.drained),
        static_cast<unsigned long long>(stats.rejected_busy),
        static_cast<unsigned long long>(stats.quarantined),
        static_cast<unsigned long long>(stats.protocol_errors),
        static_cast<unsigned long long>(stats.midstream_disconnects),
        stats.reconciles() ? "yes" : "NO");
  }
  return stats.reconciles() ? 0 : 1;
}
