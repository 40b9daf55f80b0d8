#include "partition/partitioning.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/memory.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

double partition_capacity(VertexId num_vertices, EdgeId num_edges,
                          const PartitionConfig& config) {
  if (config.num_partitions == 0) {
    throw std::invalid_argument("partition_capacity: K must be >= 1");
  }
  if (config.slack < 1.0) {
    throw std::invalid_argument("partition_capacity: slack must be >= 1.0");
  }
  const double total = config.balance == BalanceMode::kEdge
                           ? static_cast<double>(num_edges)
                           : static_cast<double>(num_vertices);
  // Guard against zero-capacity partitions on degenerate inputs (e.g. an
  // edgeless graph under edge balance): one load unit is always allowed.
  const double capacity = config.slack * total / config.num_partitions;
  return capacity > 1.0 ? capacity : 1.0;
}

GreedyStreamingBase::GreedyStreamingBase(VertexId num_vertices, EdgeId num_edges,
                                         const PartitionConfig& config)
    : config_(config),
      num_vertices_(num_vertices),
      num_edges_(num_edges),
      capacity_(partition_capacity(num_vertices, num_edges, config)),
      edge_capacity_(config.balance == BalanceMode::kBoth
                         ? std::max(1.0, config.edge_slack *
                                             static_cast<double>(num_edges) /
                                             config.num_partitions)
                         : 0.0),
      vertex_counts_(config.num_partitions, 0),
      edge_counts_(config.num_partitions, 0),
      loads_(config.num_partitions),
      weights_(config.num_partitions),
      scores_(config.num_partitions, 0.0) {
  // Scoring reads route_ at every out-neighbor: huge pages before the fill.
  route_.reserve(num_vertices);
  advise_huge_pages(route_);
  route_.assign(num_vertices, kUnassigned);
  for (PartitionId i = 0; i < config.num_partitions; ++i) update_load(i);
}

void GreedyStreamingBase::update_load(PartitionId i) {
  double value = 0.0;
  switch (config_.balance) {
    case BalanceMode::kVertex:
      value = static_cast<double>(vertex_counts_[i]);
      break;
    case BalanceMode::kEdge:
      value = static_cast<double>(edge_counts_[i]);
      break;
    case BalanceMode::kBoth: {
      // Binding constraint: the larger utilization, expressed in vertex
      // capacity units so remaining_weight/is_full keep their meaning.
      const double vertex_util = static_cast<double>(vertex_counts_[i]);
      const double edge_util =
          static_cast<double>(edge_counts_[i]) / edge_capacity_ * capacity_;
      value = std::max(vertex_util, edge_util);
      break;
    }
  }
  loads_[i] = value;
  weights_[i] = 1.0 - value / capacity_;
}

PartitionId GreedyStreamingBase::pick_best(std::span<const double> scores) const {
  const PartitionId k = config_.num_partitions;
  PartitionId best = kUnassigned;
  for (PartitionId i = 0; i < k; ++i) {
    if (is_full(i)) continue;
    if (best == kUnassigned || scores[i] > scores[best] ||
        (scores[i] == scores[best] &&
         (load(i) < load(best) || (load(i) == load(best) && i < best)))) {
      best = i;
    }
  }
  if (best != kUnassigned) return best;
  // Every partition is at capacity (possible when slack is tight and loads
  // are granular): overflow into the least-loaded one.
  best = 0;
  for (PartitionId i = 1; i < k; ++i) {
    if (load(i) < load(best)) best = i;
  }
  return best;
}

void GreedyStreamingBase::commit(VertexId v, std::span<const VertexId> out,
                                 PartitionId pid) {
  if (v >= num_vertices_) throw std::out_of_range("commit: vertex id out of range");
  if (route_[v] != kUnassigned) {
    throw std::logic_error("commit: vertex placed twice (stream replayed a record?)");
  }
  route_[v] = pid;
  ++vertex_counts_[pid];
  edge_counts_[pid] += out.size();
  update_load(pid);
}

void GreedyStreamingBase::save_state(StateWriter& out) const {
  out.put_u64(num_vertices_);
  out.put_u64(num_edges_);
  out.put_u32(config_.num_partitions);
  out.put_u32(static_cast<std::uint32_t>(config_.balance));
  out.put_vec(route_);
  out.put_vec(vertex_counts_);
  out.put_vec(edge_counts_);
}

void GreedyStreamingBase::restore_state(StateReader& in) {
  in.expect_u64(num_vertices_, "vertex count");
  in.expect_u64(num_edges_, "edge count");
  in.expect_u32(config_.num_partitions, "partition count");
  in.expect_u32(static_cast<std::uint32_t>(config_.balance), "balance mode");
  auto route = in.get_vec<PartitionId>();
  auto vertex_counts = in.get_vec<VertexId>();
  auto edge_counts = in.get_vec<EdgeId>();
  if (route.size() != route_.size() || vertex_counts.size() != vertex_counts_.size() ||
      edge_counts.size() != edge_counts_.size()) {
    throw CheckpointError("restore_state: table sizes do not match configuration");
  }
  route_ = std::move(route);
  vertex_counts_ = std::move(vertex_counts);
  edge_counts_ = std::move(edge_counts);
  for (PartitionId i = 0; i < config_.num_partitions; ++i) update_load(i);
}

std::size_t GreedyStreamingBase::memory_footprint_bytes() const {
  return vector_bytes(route_) + vector_bytes(vertex_counts_) +
         vector_bytes(edge_counts_) + vector_bytes(loads_) + vector_bytes(weights_) +
         vector_bytes(scores_);
}

}  // namespace spnl
