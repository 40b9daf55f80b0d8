// Graph and route-table I/O.
//
// Formats:
//  * SNAP edge list: "<from> <to>" per line, '#' comments (the format of the
//    public datasets the paper uses).
//  * Adjacency list text: "<id> <out...>" per line with a "# V <n> E <m>"
//    header — the streaming input format (see FileAdjacencyStream).
//  * Binary CSR: magic + counts + raw arrays, for fast reloads.
//  * Route table: "<vertex> <partition>" per line — the partitioner output
//    the paper's PT measurement ends at.
//
// Robustness: every reader validates structure before constructing objects —
// corrupt or truncated input throws IoError instead of yielding graphs whose
// traversal reads out of bounds far from the load site. read_binary checks
// the header against the real file size, offset monotonicity,
// offsets.back()==m and target ranges; read_route_table rejects duplicate
// vertices and ids that overflow PartitionId, and validate_route() gives
// tools/tests one hole-and-range check for complete route tables.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace spnl {

/// Typed error for malformed, truncated or structurally invalid input files.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Loads a SNAP-style edge list. Vertex ids are used as-is (assumed dense);
/// set `compact_ids` to renumber the encountered ids densely by first
/// appearance instead.
Graph read_edge_list(const std::string& path, bool compact_ids = false);

void write_edge_list(const Graph& graph, const std::string& path);

/// Writes the adjacency-list text format with a "# V <n> E <m>" header.
void write_adjacency_list(const Graph& graph, const std::string& path);

/// Binary CSR round-trip.
void write_binary(const Graph& graph, const std::string& path);
Graph read_binary(const std::string& path);

/// Vertices per chunk write_route_table formats on one thread; routes of
/// more than one chunk are formatted in parallel and written in order.
inline constexpr std::size_t kRouteChunkVertices = std::size_t{1} << 11;

/// Vertex -> partition assignments. Reading rejects malformed lines,
/// duplicate vertices and partition ids that overflow PartitionId; unseen
/// vertices below the max id are left kUnassigned (validate_route detects
/// such holes when completeness is required).
void write_route_table(const std::vector<PartitionId>& route, const std::string& path);
std::vector<PartitionId> read_route_table(const std::string& path);

/// As above, then validates the table is a complete assignment into k
/// partitions (no holes, every id < k).
std::vector<PartitionId> read_route_table(const std::string& path, PartitionId k);

/// Throws IoError unless `route` is a complete assignment: size == n (when
/// n > 0), no kUnassigned holes, every partition id < k.
void validate_route(const std::vector<PartitionId>& route, PartitionId k,
                    VertexId num_vertices = 0);

}  // namespace spnl
