#include "engine/bsp.hpp"

#include <algorithm>
#include <stdexcept>

namespace spnl {

BspResult run_bsp(const Graph& graph, const std::vector<PartitionId>& route,
                  PartitionId k, VertexProgram& program, BspOptions options) {
  const VertexId n = graph.num_vertices();
  if (route.size() != n) throw std::invalid_argument("run_bsp: route size != |V|");
  for (PartitionId p : route) {
    if (p >= k) throw std::invalid_argument("run_bsp: partition id out of range");
  }

  BspResult result;
  result.values.resize(n);
  std::vector<bool> active(n, false);
  for (VertexId v = 0; v < n; ++v) {
    active[v] = program.init(v, graph, result.values[v]);
  }

  std::vector<std::optional<double>> inbox(n);
  std::vector<double> worker_cost(k);

  for (int step = 0; step < options.max_supersteps; ++step) {
    bool any_active = false;
    std::fill(inbox.begin(), inbox.end(), std::nullopt);
    std::fill(worker_cost.begin(), worker_cost.end(), 0.0);
    std::uint64_t local = 0, remote = 0;

    for (VertexId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      any_active = true;
      const auto message = program.emit(v, result.values[v], graph);
      if (!message) continue;
      for (VertexId u : graph.out_neighbors(v)) {
        const double delivered = program.emit_to(v, *message, u, graph);
        if (inbox[u]) {
          inbox[u] = program.combine(*inbox[u], delivered);
        } else {
          inbox[u] = delivered;
        }
        if (route[u] == route[v]) {
          ++local;
          worker_cost[route[v]] += 1.0;
        } else {
          ++remote;
          worker_cost[route[v]] += options.remote_cost_factor;
        }
      }
    }
    if (!any_active) break;

    ++result.stats.supersteps;
    result.stats.local_messages += local;
    result.stats.remote_messages += remote;
    result.stats.critical_path_cost +=
        *std::max_element(worker_cost.begin(), worker_cost.end());

    for (VertexId v = 0; v < n; ++v) {
      active[v] = program.apply(v, result.values[v], inbox[v], step, graph);
    }
  }
  return result;
}

}  // namespace spnl
