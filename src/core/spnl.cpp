#include "core/spnl.hpp"

#include <stdexcept>

#include "util/memory.hpp"

namespace spnl {

namespace {
std::uint32_t resolve_shards(std::uint32_t requested, VertexId n, PartitionId k) {
  return requested == 0 ? GammaWindow::recommended_shards(n, k) : requested;
}

/// PlainReads plus the logical table and η of Eq. 6.
struct SpnlReads : PlainReads {
  bool locality() const { return true; }
  PartitionId logical_of(VertexId u) const { return spnl.logical_partition_of(u); }
  void snapshot(std::span<double> loads, std::span<double> eta) const {
    PlainReads::snapshot(loads, eta);
    for (std::size_t i = 0; i < eta.size(); ++i) {
      eta[i] = spnl.eta(static_cast<PartitionId>(i));
    }
  }

  const SpnlPartitioner& spnl;
};
}  // namespace

SpnlPartitioner::SpnlPartitioner(VertexId num_vertices, EdgeId num_edges,
                                 const PartitionConfig& config, SpnlOptions options)
    : GreedyStreamingBase(num_vertices, num_edges, config),
      options_(options),
      gamma_(num_vertices, config.num_partitions,
             resolve_shards(options.num_shards, num_vertices, config.num_partitions),
             options.slide),
      logical_(num_vertices, config.num_partitions),
      logical_counts_(config.num_partitions, 0),
      params_{options.lambda, capacity_,
              options.estimator == InNeighborEstimator::kNeighborSum} {
  if (options_.lambda < 0.0 || options_.lambda > 1.0) {
    throw std::invalid_argument("SPNL: lambda must be in [0,1]");
  }
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
}

double SpnlPartitioner::eta(PartitionId i) const {
  return eta_value(options_.eta_policy, options_.eta0, logical_counts_[i],
                   vertex_count(i), placed_total_, num_vertices_);
}

PartitionId SpnlPartitioner::place(VertexId v, std::span<const VertexId> out) {
  const SpnlReads reads{{gamma_, route_, vertex_counts_, edge_counts_, config_.balance,
                         capacity_, edge_capacity_},
                        *this};
  if (hash_fallback_) {
    // Last-rung degraded mode — see SpnPartitioner::place. The logical-table
    // bookkeeping below still runs so a later checkpoint stays coherent, but
    // the Eq. 6 score is replaced by a deterministic hash vote.
    PartitionId pid;
    {
      PerfScope t(perf_, PerfStage::kScore);
      pid = hash_vote_pick(reads, params_, v, scratch_);
    }
    PerfScope t(perf_, PerfStage::kCommit);
    commit(v, out, pid);
    const PartitionId lp = logical_partition_of(v);
    if (logical_counts_[lp] > 0) --logical_counts_[lp];
    ++placed_total_;
    return pid;
  }

  // Prefetch pass — see spn.cpp: the row addresses are final before the
  // slide (a vertex's ring slot is u % W regardless of the window base), so
  // the misses overlap with the row-retirement clear and the scoring work.
  const std::uint32_t* gamma_data = gamma_.data();
  for (VertexId u : out) {
    if (u < route_.size()) prefetch_read(&route_[u]);
    if (gamma_.contains(u)) prefetch_write(gamma_data + gamma_.row_offset(u));
  }

  {
    PerfScope t(perf_, PerfStage::kWindowAdvance);
    gamma_.advance_to(v);
  }

  PartitionId pid;
  {
    PerfScope t(perf_, PerfStage::kScore);
    pid = score_record(reads, params_, v, out, scratch_);
  }

  {
    PerfScope t(perf_, PerfStage::kCommit);
    commit(v, out, pid);

    // v leaves its logical partition the moment it is physically placed.
    const PartitionId lp = logical_partition_of(v);
    if (logical_counts_[lp] > 0) --logical_counts_[lp];
    ++placed_total_;
  }

  {
    PerfScope t(perf_, PerfStage::kGammaIncrement);
    for (VertexId u : out) {
      if (gamma_.contains(u)) gamma_.increment_at(gamma_.row_offset(u), pid);
    }
  }
  return pid;
}

bool SpnlPartitioner::apply_degradation(DegradationStage stage) {
  return apply_gamma_ladder(stage, gamma_, stage_, hash_fallback_);
}

void SpnlPartitioner::save_state(StateWriter& out) const {
  GreedyStreamingBase::save_state(out);
  gamma_.save(out);
  out.put_vec(logical_counts_);
  out.put_u32(placed_total_);
  out.put_u32(static_cast<std::uint32_t>(stage_));
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
  stage_ = static_cast<DegradationStage>(in.get_u32());
  hash_fallback_ = stage_ == DegradationStage::kHashFallback;
}

std::size_t SpnlPartitioner::memory_footprint_bytes() const {
  // An injected hint table replaces the O(2K) range bounds with O(|V|)
  // borrowed state that is nonetheless required to run — charge it.
  const std::size_t logical_bytes =
      options_.logical_hints != nullptr
          ? options_.logical_hints->size() * sizeof(PartitionId)
          : 2 * sizeof(VertexId) * num_partitions();
  return GreedyStreamingBase::memory_footprint_bytes() +
         gamma_.memory_footprint_bytes() + vector_bytes(logical_counts_) +
         logical_bytes;
}

}  // namespace spnl
