#include "core/spnl.hpp"

#include <stdexcept>

#include "util/memory.hpp"

namespace spnl {

namespace {

/// PlainReads plus the logical table and η of Eq. 6.
struct SpnlReads : PlainReads {
  bool locality() const { return true; }
  PartitionId logical_of(VertexId u) const { return spnl.logical_partition_of(u); }
  PartitionView view() const { return {loads, eta, weights}; }

  const SpnlPartitioner& spnl;
  std::span<const double> eta;
};
}  // namespace

SpnlPartitioner::SpnlPartitioner(VertexId num_vertices, EdgeId num_edges,
                                 const PartitionConfig& config, SpnlOptions options)
    : SpnPartitioner(num_vertices, num_edges, config,
                     {.lambda = options.lambda,
                      .num_shards = options.num_shards,
                      .estimator = options.estimator,
                      .slide = options.slide},
                     "SPNL"),
      options_(options),
      logical_(num_vertices, config.num_partitions),
      logical_counts_(config.num_partitions, 0),
      eta_(config.num_partitions) {
  if (options_.logical_hints != nullptr) {
    const std::vector<PartitionId>& hints = *options_.logical_hints;
    if (hints.size() != num_vertices) {
      throw std::invalid_argument("SPNL: logical hint table size != |V|");
    }
    for (PartitionId hint : hints) {
      if (hint >= config.num_partitions) {
        throw std::invalid_argument("SPNL: logical hint partition out of range");
      }
      ++logical_counts_[hint];
    }
  } else {
    for (PartitionId i = 0; i < config.num_partitions; ++i) {
      logical_counts_[i] = logical_.range_size(i);
    }
  }
  update_all_eta();
}

void SpnlPartitioner::update_eta(PartitionId i) {
  eta_[i] = eta_value(options_.eta_policy, options_.eta0, logical_counts_[i],
                      vertex_count(i), placed_total_, num_vertices_);
}

void SpnlPartitioner::update_all_eta() {
  for (PartitionId i = 0; i < num_partitions(); ++i) update_eta(i);
}

PartitionId SpnlPartitioner::place(VertexId v, std::span<const VertexId> out) {
  return place_with(SpnlReads{plain_reads(), *this, eta_}, v, out,
                    [this](VertexId u, PartitionId pid) {
                      // u leaves its logical partition the moment it is
                      // physically placed.
                      const PartitionId lp = logical_partition_of(u);
                      if (logical_counts_[lp] > 0) --logical_counts_[lp];
                      ++placed_total_;
                      if (options_.eta_policy == EtaPolicy::kLinear) {
                        update_all_eta();
                      } else {
                        update_eta(pid);
                        update_eta(lp);
                      }
                    });
}

void SpnlPartitioner::save_state(StateWriter& out) const {
  GreedyStreamingBase::save_state(out);
  gamma_.save(out);
  out.put_vec(logical_counts_);
  out.put_u32(placed_total_);
  out.put_u32(static_cast<std::uint32_t>(degradation_stage()));
}

void SpnlPartitioner::restore_state(StateReader& in) {
  GreedyStreamingBase::restore_state(in);
  gamma_.restore(in);
  auto logical_counts = in.get_vec<VertexId>();
  if (logical_counts.size() != logical_counts_.size()) {
    throw CheckpointError("SPNL restore: logical table size mismatch");
  }
  logical_counts_ = std::move(logical_counts);
  placed_total_ = in.get_u32();
  restore_stage(in);
  update_all_eta();
}

std::size_t SpnlPartitioner::memory_footprint_bytes() const {
  // An injected hint table replaces the O(2K) range bounds with O(|V|)
  // borrowed state that is nonetheless required to run — charge it.
  const std::size_t logical_bytes =
      options_.logical_hints != nullptr
          ? options_.logical_hints->size() * sizeof(PartitionId)
          : 2 * sizeof(VertexId) * num_partitions();
  return SpnPartitioner::memory_footprint_bytes() + vector_bytes(logical_counts_) +
         vector_bytes(eta_) + logical_bytes;
}

}  // namespace spnl
