// Shared helpers for the bench harness binaries. Each bench binary
// regenerates one table or figure of the paper (see DESIGN.md experiment
// index) and prints paper-style rows; `--scale` shrinks or grows the
// synthetic datasets (1.0 = the defaults in graph/datasets.cpp).
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/stats.hpp"
#include "partition/driver.hpp"
#include "partition/fennel.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/ldg.hpp"
#include "partition/metrics.hpp"
#include "partition/partitioning.hpp"
#include "partition/range_partitioner.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table_printer.hpp"

namespace spnl::bench {

/// Quality + cost of one partitioning run.
struct Outcome {
  std::string partitioner;
  QualityMetrics quality;
  std::vector<PartitionId> route;
  double seconds = 0.0;
  std::size_t bytes = 0;
};

using PartitionerFactory =
    std::function<std::unique_ptr<StreamingPartitioner>(VertexId, EdgeId,
                                                        const PartitionConfig&)>;

inline PartitionerFactory make_factory(const std::string& name,
                                       SpnOptions spn_options = {},
                                       SpnlOptions spnl_options = {}) {
  if (name == "LDG") {
    return [](VertexId n, EdgeId m, const PartitionConfig& c) {
      return std::make_unique<LdgPartitioner>(n, m, c);
    };
  }
  if (name == "FENNEL") {
    return [](VertexId n, EdgeId m, const PartitionConfig& c) {
      return std::make_unique<FennelPartitioner>(n, m, c);
    };
  }
  if (name == "Hash") {
    return [](VertexId n, EdgeId m, const PartitionConfig& c) {
      return std::make_unique<HashPartitioner>(n, m, c);
    };
  }
  if (name == "Range") {
    return [](VertexId n, EdgeId m, const PartitionConfig& c) {
      return std::make_unique<RangePartitioner>(n, m, c);
    };
  }
  if (name == "SPN") {
    return [spn_options](VertexId n, EdgeId m, const PartitionConfig& c) {
      return std::make_unique<SpnPartitioner>(n, m, c, spn_options);
    };
  }
  if (name == "SPNL") {
    return [spnl_options](VertexId n, EdgeId m, const PartitionConfig& c) {
      return std::make_unique<SpnlPartitioner>(n, m, c, spnl_options);
    };
  }
  std::fprintf(stderr, "unknown partitioner %s\n", name.c_str());
  std::exit(1);
}

/// One sequential streaming run over the in-memory graph + evaluation.
inline Outcome run_one(const Graph& graph, const std::string& name,
                       const PartitionConfig& config, SpnOptions spn_options = {},
                       SpnlOptions spnl_options = {}) {
  auto factory = make_factory(name, spn_options, spnl_options);
  auto partitioner = factory(graph.num_vertices(), graph.num_edges(), config);
  InMemoryStream stream(graph);
  RunResult run = run_streaming(stream, *partitioner);
  Outcome outcome;
  outcome.partitioner = name;
  outcome.quality = evaluate_partition(graph, run.route, config.num_partitions);
  outcome.route = std::move(run.route);
  outcome.seconds = run.partition_seconds;
  outcome.bytes = run.peak_partitioner_bytes;
  return outcome;
}

inline std::string fmt_pt(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

/// First line of `command`'s stdout, "" when it fails.
inline std::string command_line_output(const std::string& command) {
  std::string out;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

/// The bracketed transparent-huge-page mode ("always", "madvise", "never"),
/// or "unknown" when the kernel does not say. The Γ window and route tables
/// ask for huge pages, which only "never" refuses.
inline std::string transparent_huge_page_mode() {
  std::ifstream file("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(file, line);
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "unknown";
  return line.substr(open + 1, close - open - 1);
}

/// Where a bench figure came from, as a JSON object: hardware threads, CPU
/// model, build type, compiler, the git sha of the source tree the bench
/// was built from ("-dirty" when tracked files differ from it) and the
/// transparent-huge-page mode.
inline std::string host_stamp_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  // Only the source tree's own repository counts, not one it sits inside.
  const std::string git = std::string("git -C '") + SPNL_SOURCE_DIR + "' ";
  const std::string top = command_line_output(git + "rev-parse --show-toplevel 2>/dev/null");
  std::error_code error;
  std::string sha;
  if (!top.empty() && std::filesystem::equivalent(top, SPNL_SOURCE_DIR, error)) {
    sha = command_line_output(git + "rev-parse --short=12 HEAD 2>/dev/null");
  }
  if (sha.empty()) {
    sha = "unknown";
  } else if (!command_line_output(git + "status --porcelain --untracked-files=no "
                                        "2>/dev/null").empty()) {
    sha += "-dirty";
  }
  auto quoted = [](const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + quoted(cpu) + ",\"build_type\":" + quoted(SPNL_BUILD_TYPE) +
         ",\"compiler\":" + quoted(__VERSION__) + ",\"git_sha\":" + quoted(sha) +
         ",\"thp\":" + quoted(transparent_huge_page_mode()) + "}";
}

inline void print_header(const char* what) {
  std::printf("\n=== %s ===\n", what);
}

}  // namespace spnl::bench
