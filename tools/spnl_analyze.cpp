// spnl_analyze — inspect a partitioning: per-partition statistics, the
// inter-partition communication matrix, boundary structure, and the
// simulated BSP cost of a PageRank job on it.
//
// Usage:
//   spnl_analyze <graph-file> <route-file> [--format=adj|edgelist|binary]
//                [--matrix] [--pagerank-steps=0]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/algorithms.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "partition/metrics.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace spnl;

Graph load_graph(const std::string& path, const std::string& format) {
  if (format == "edgelist") return read_edge_list(path, true);
  if (format == "binary") return read_binary(path);
  FileAdjacencyStream stream(path);
  return materialize(stream);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (!args.known_flags_only({"format", "matrix", "pagerank-steps"})) return 2;
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: spnl_analyze <graph-file> <route-file> "
                 "[--format=adj|edgelist|binary] [--matrix] "
                 "[--pagerank-steps=N]\n");
    return 2;
  }
  try {
    // Read before the load, so a malformed value fails before any output.
    const int steps = static_cast<int>(args.get_int("pagerank-steps", 0));
    const Graph graph = load_graph(args.positional()[0], args.get("format", "adj"));
    const auto route = read_route_table(args.positional()[1]);
    if (route.size() != graph.num_vertices()) {
      std::fprintf(stderr, "error: route covers %zu vertices, graph has %u\n",
                   route.size(), graph.num_vertices());
      return 1;
    }
    PartitionId k = 0;
    for (PartitionId p : route) {
      if (p == kUnassigned) {
        std::fprintf(stderr, "error: unassigned vertex in route table\n");
        return 1;
      }
      k = std::max(k, static_cast<PartitionId>(p + 1));
    }

    std::printf("%s\n", describe(graph, args.positional()[0]).c_str());
    const auto metrics = evaluate_partition(graph, route, k);
    std::printf("K=%u %s\n\n", k, summarize(metrics).c_str());

    // Per-partition breakdown: sizes, internal/external edges, boundary
    // vertices (those with at least one cross-partition edge, in either
    // direction — the replication frontier a distributed runtime maintains).
    std::vector<EdgeId> internal(k, 0), external(k, 0);
    std::vector<VertexId> boundary(k, 0);
    std::vector<bool> is_boundary(graph.num_vertices(), false);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (VertexId u : graph.out_neighbors(v)) {
        if (route[u] == route[v]) {
          ++internal[route[v]];
        } else {
          ++external[route[v]];
          is_boundary[v] = true;
          is_boundary[u] = true;
        }
      }
    }
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (is_boundary[v]) ++boundary[route[v]];
    }

    TablePrinter table({"part", "|V_i|", "|E_i|", "internal", "external",
                        "ext%", "boundary|V|"});
    for (PartitionId p = 0; p < k; ++p) {
      const EdgeId total = internal[p] + external[p];
      table.add_row({TablePrinter::fmt(static_cast<int>(p)),
                     TablePrinter::fmt(std::size_t{metrics.vertices_per_partition[p]}),
                     TablePrinter::fmt(std::size_t{metrics.edges_per_partition[p]}),
                     TablePrinter::fmt(std::size_t{internal[p]}),
                     TablePrinter::fmt(std::size_t{external[p]}),
                     TablePrinter::fmt(total == 0 ? 0.0
                                                  : 100.0 * external[p] / total, 1),
                     TablePrinter::fmt(std::size_t{boundary[p]})});
    }
    table.print();

    if (args.get_bool("matrix", false)) {
      std::printf("\ncommunication matrix (edges from row-partition to "
                  "column-partition):\n");
      std::vector<std::vector<EdgeId>> matrix(k, std::vector<EdgeId>(k, 0));
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        for (VertexId u : graph.out_neighbors(v)) ++matrix[route[v]][route[u]];
      }
      std::vector<std::string> headers = {"from\\to"};
      for (PartitionId p = 0; p < k; ++p) headers.push_back(std::to_string(p));
      TablePrinter mt(headers);
      for (PartitionId p = 0; p < k; ++p) {
        std::vector<std::string> row = {std::to_string(p)};
        for (PartitionId q = 0; q < k; ++q) {
          row.push_back(std::to_string(matrix[p][q]));
        }
        mt.add_row(std::move(row));
      }
      mt.print();
    }

    if (steps > 0) {
      const auto result = pagerank(graph, route, k, steps);
      std::printf("\nPageRank x%d under this partitioning: %llu local + %llu "
                  "remote messages (remote %.1f%%), critical path %.0f cost "
                  "units\n",
                  steps,
                  static_cast<unsigned long long>(result.stats.local_messages),
                  static_cast<unsigned long long>(result.stats.remote_messages),
                  100.0 * result.stats.remote_fraction(),
                  result.stats.critical_path_cost);
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
