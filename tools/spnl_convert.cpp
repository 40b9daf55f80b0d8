// spnl_convert — converts text graph formats to the delta-compressed binary
// sadj streaming format (docs/ingestion.md) and back.
//
//   spnl_convert <input> --out=graph.sadj [--format=adj|edges|sadj]
//                [--to=sadj|adj] [--max-bad-records=N]
//                [--quarantine-log=bad.txt] [--quiet]
//
// --format names the INPUT format (adj = adjacency lines, edges =
// source-grouped edge list, sadj = binary); --to names the output (default
// sadj). sadj -> adj round-trips a binary file back to text for inspection.
// Conversion preserves the exact record and neighbor order of the input
// stream — a partitioner fed the converted file produces a byte-identical
// route. Quarantine flags apply to text inputs only: malformed lines are
// skipped (and logged) up to the bound, and never reach the output file.
#include <cstdio>
#include <memory>
#include <string>

#include "graph/adjacency_stream.hpp"
#include "graph/io.hpp"
#include "graph/stream_binary.hpp"
#include "util/checked_io.hpp"
#include "util/cli.hpp"
#include "util/fault_fs.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: spnl_convert <input> --out=PATH [options]\n"
      "  --format=adj|edges|sadj  input format (adj)\n"
      "  --to=sadj|adj            output format (sadj)\n"
      "  --max-bad-records=N      quarantine up to N malformed text lines\n"
      "  --quarantine-log=PATH    append quarantined lines to PATH\n"
      "  --inject-io-faults=PLAN  storage-fault plan (docs/fault_tolerance.md)\n"
      "  --quiet                  suppress the summary line\n");
}

// Text output: same "# V <n> E <m>"-headed adjacency-list format
// write_adjacency_list emits, but streamed record-by-record so a
// larger-than-RAM sadj file converts back without materializing. Published
// crash-atomically, like the sadj path: an interrupted conversion leaves the
// previous output intact, never a truncated half-file at the final name.
void write_adj_text(spnl::AdjacencyStream& stream, const std::string& path) {
  spnl::AtomicFileWriter atomic(path);
  spnl::FdWriter& out = atomic.out();
  out.append("# V ");
  out.append_u64(stream.num_vertices());
  out.append(" E ");
  out.append_u64(stream.num_edges());
  out.append_char('\n');
  while (auto record = stream.next()) {
    out.append_u64(record->id);
    for (spnl::VertexId nbr : record->out) {
      out.append_char(' ');
      out.append_u64(nbr);
    }
    out.append_char('\n');
  }
  atomic.commit();
}

}  // namespace

int main(int argc, char** argv) {
  const spnl::CliArgs args(argc, argv);
  if (!args.known_flags_only({"help", "out", "format", "to", "max-bad-records",
                              "quarantine-log", "inject-io-faults", "quiet"})) {
    return 2;
  }
  if (args.has("help") || args.positional().size() != 1 || !args.has("out")) {
    usage();
    return args.has("help") ? 0 : 2;
  }

  // Armed before the first file is opened so the plan's operation indices
  // count from the very first syscall of the run.
  if (args.has("inject-io-faults")) {
    try {
      spnl::faultfs::configure(args.get("inject-io-faults", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  try {
    const std::string input = args.positional()[0];
    const std::string out_path = args.get("out", "");
    const std::string format = args.get("format", "adj");
    const std::string to = args.get("to", "sadj");
    const bool quiet = args.get_bool("quiet", false);

    spnl::StreamHardeningOptions hardening;
    hardening.max_bad_records =
        static_cast<std::uint64_t>(args.get_int("max-bad-records", 0));
    hardening.quarantine_log = args.get("quarantine-log", "");

    std::unique_ptr<spnl::AdjacencyStream> stream;
    if (format == "adj") {
      stream = std::make_unique<spnl::FileAdjacencyStream>(input, hardening);
    } else if (format == "edges") {
      stream = std::make_unique<spnl::EdgeListAdjacencyStream>(input, hardening);
    } else if (format == "sadj") {
      stream = std::make_unique<spnl::BinaryAdjacencyStream>(input);
    } else {
      throw std::runtime_error("--format: want adj|edges|sadj");
    }

    std::uint64_t records = 0;
    if (to == "sadj") {
      records = spnl::write_sadj(*stream, out_path);
    } else if (to == "adj") {
      write_adj_text(*stream, out_path);
    } else {
      throw std::runtime_error("--to: want sadj|adj");
    }

    if (!quiet) {
      std::printf("wrote %s: V=%u E=%llu records=%llu",
                  out_path.c_str(), stream->num_vertices(),
                  static_cast<unsigned long long>(stream->num_edges()),
                  static_cast<unsigned long long>(records));
      if (stream->bad_records() > 0) {
        std::printf(" quarantined=%llu",
                    static_cast<unsigned long long>(stream->bad_records()));
      }
      if (stream->quarantine_log_drops() > 0) {
        std::printf(" quarantine-log-drops=%llu",
                    static_cast<unsigned long long>(
                        stream->quarantine_log_drops()));
      }
      std::printf("\n");
    }
  } catch (const spnl::CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
