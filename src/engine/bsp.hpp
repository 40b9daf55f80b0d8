// A small vertex-centric BSP engine — the Pregel-style consumer the paper's
// partitions are made for (Sec. I-II: partitioners are built-in components
// of vertex-centric systems; cut edges become network messages).
//
// The engine simulates a K-worker cluster defined by a route table: each
// superstep, every active vertex emits one message value along each outgoing
// edge; messages are combined per target; targets apply the combined value
// and decide whether to stay active. The engine counts local vs remote
// (cross-partition) messages, which is exactly the communication-cost model
// the ECR metric stands for.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace spnl {

/// User algorithm plugged into the engine (PageRank, BFS, WCC, ...).
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Initial value; return true to start the vertex active.
  virtual bool init(VertexId v, const Graph& graph, double& value) = 0;

  /// Message an active vertex sends along EVERY out-edge this superstep
  /// (nullopt = sends nothing).
  virtual std::optional<double> emit(VertexId v, double value,
                                     const Graph& graph) = 0;

  /// Per-edge refinement of emit(): the value actually delivered along the
  /// specific edge (v, u). The default ignores the edge — algorithms with
  /// edge weights (weighted SSSP) override it. `base` is emit()'s result.
  virtual double emit_to(VertexId v, double base, VertexId u, const Graph& graph) {
    (void)v;
    (void)u;
    (void)graph;
    return base;
  }

  /// Commutative/associative message combiner (e.g. sum, min).
  virtual double combine(double a, double b) = 0;

  /// Applies the combined inbox (nullopt = no messages received). Returns
  /// true to be active in the next superstep.
  virtual bool apply(VertexId v, double& value, std::optional<double> inbox,
                     int superstep, const Graph& graph) = 0;
};

struct BspStats {
  int supersteps = 0;
  std::uint64_t local_messages = 0;
  std::uint64_t remote_messages = 0;
  /// Σ over supersteps of the slowest worker's cost under the model
  /// local=1, remote=remote_cost_factor (BSP barrier per superstep).
  double critical_path_cost = 0.0;

  double remote_fraction() const {
    const std::uint64_t total = local_messages + remote_messages;
    return total == 0 ? 0.0 : static_cast<double>(remote_messages) / total;
  }
};

struct BspOptions {
  int max_supersteps = 50;
  /// Relative cost of a cross-partition message (serialization + network).
  double remote_cost_factor = 20.0;
};

struct BspResult {
  std::vector<double> values;
  BspStats stats;
};

/// Runs the program over the partitioned graph. route.size() must equal
/// |V| and every id must be < k.
BspResult run_bsp(const Graph& graph, const std::vector<PartitionId>& route,
                  PartitionId k, VertexProgram& program, BspOptions options = {});

}  // namespace spnl
