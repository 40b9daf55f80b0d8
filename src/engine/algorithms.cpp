#include "engine/algorithms.hpp"

#include <limits>

#include "util/rng.hpp"

namespace spnl {

namespace {

class PageRankProgram final : public VertexProgram {
 public:
  explicit PageRankProgram(int supersteps) : supersteps_(supersteps) {}

  bool init(VertexId, const Graph& graph, double& value) override {
    value = 1.0 / std::max<VertexId>(graph.num_vertices(), 1);
    return true;
  }

  std::optional<double> emit(VertexId v, double value, const Graph& graph) override {
    const EdgeId degree = graph.out_degree(v);
    if (degree == 0) return std::nullopt;
    return kDamping * value / degree;
  }

  double combine(double a, double b) override { return a + b; }

  bool apply(VertexId, double& value, std::optional<double> inbox, int superstep,
             const Graph& graph) override {
    value = (1.0 - kDamping) / graph.num_vertices() + inbox.value_or(0.0);
    return superstep + 1 < supersteps_;
  }

 private:
  static constexpr double kDamping = 0.85;
  int supersteps_;
};

class MinLabelProgram final : public VertexProgram {
 public:
  /// source = kInvalidVertex: every vertex starts with its own id (WCC);
  /// otherwise only `source` starts active at 0 (BFS depths).
  explicit MinLabelProgram(VertexId source) : source_(source) {}

  bool init(VertexId v, const Graph&, double& value) override {
    if (source_ == kInvalidVertex) {
      value = v;
      return true;
    }
    value = v == source_ ? 0.0 : std::numeric_limits<double>::infinity();
    return v == source_;
  }

  std::optional<double> emit(VertexId, double value, const Graph&) override {
    // BFS sends depth+1; WCC sends its label.
    return source_ == kInvalidVertex ? value : value + 1.0;
  }

  double combine(double a, double b) override { return std::min(a, b); }

  bool apply(VertexId, double& value, std::optional<double> inbox, int,
             const Graph&) override {
    if (inbox && *inbox < value) {
      value = *inbox;
      return true;
    }
    return false;
  }

 private:
  VertexId source_;
};

/// Weighted distance relaxation: emits its distance, edges add their weight.
class SsspProgram final : public VertexProgram {
 public:
  explicit SsspProgram(VertexId source) : source_(source) {}

  bool init(VertexId v, const Graph&, double& value) override {
    value = v == source_ ? 0.0 : std::numeric_limits<double>::infinity();
    return v == source_;
  }

  std::optional<double> emit(VertexId, double value, const Graph&) override {
    return value;
  }

  double emit_to(VertexId v, double base, VertexId u, const Graph&) override {
    return base + synthetic_edge_weight(v, u);
  }

  double combine(double a, double b) override { return std::min(a, b); }

  bool apply(VertexId, double& value, std::optional<double> inbox, int,
             const Graph&) override {
    if (inbox && *inbox < value) {
      value = *inbox;
      return true;
    }
    return false;
  }

 private:
  VertexId source_;
};

}  // namespace

double synthetic_edge_weight(VertexId from, VertexId to) {
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(from) << 32) | to);
  return 1.0 + static_cast<double>(h % 9000) / 1000.0;  // [1, 10)
}

BspResult sssp(const Graph& graph, const std::vector<PartitionId>& route,
               PartitionId k, VertexId source, double remote_cost_factor) {
  SsspProgram program(source);
  return run_bsp(graph, route, k, program,
                 {.max_supersteps = static_cast<int>(graph.num_vertices()) + 1,
                  .remote_cost_factor = remote_cost_factor});
}

BspResult pagerank(const Graph& graph, const std::vector<PartitionId>& route,
                   PartitionId k, int supersteps, double remote_cost_factor) {
  PageRankProgram program(supersteps);
  return run_bsp(graph, route, k, program,
                 {.max_supersteps = supersteps, .remote_cost_factor = remote_cost_factor});
}

BspResult bfs_depths(const Graph& graph, const std::vector<PartitionId>& route,
                     PartitionId k, VertexId source, double remote_cost_factor) {
  MinLabelProgram program(source);
  return run_bsp(graph, route, k, program,
                 {.max_supersteps = static_cast<int>(graph.num_vertices()) + 1,
                  .remote_cost_factor = remote_cost_factor});
}

BspResult connected_components(const Graph& graph,
                               const std::vector<PartitionId>& route, PartitionId k,
                               double remote_cost_factor) {
  // Min-label propagation needs information to flow both ways.
  const Graph sym = graph.symmetrized();
  MinLabelProgram program(kInvalidVertex);
  return run_bsp(sym, route, k, program,
                 {.max_supersteps = static_cast<int>(sym.num_vertices()) + 1,
                  .remote_cost_factor = remote_cost_factor});
}

}  // namespace spnl
