#include "core/spnl.hpp"

#include <stdexcept>

#include "core/score_kernel.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace spnl {

namespace {
std::uint32_t resolve_shards(std::uint32_t requested, VertexId n, PartitionId k) {
  return requested == 0 ? GammaWindow::recommended_shards(n, k) : requested;
}
}  // namespace

SpnlPartitioner::SpnlPartitioner(VertexId num_vertices, EdgeId num_edges,
                                 const PartitionConfig& config, SpnlOptions options)
    : GreedyStreamingBase(num_vertices, num_edges, config),
      options_(options),
      gamma_(num_vertices, config.num_partitions,
             resolve_shards(options.num_shards, num_vertices, config.num_partitions),
             options.slide),
      logical_(num_vertices, config.num_partitions),
      logical_counts_(config.num_partitions, 0) {
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
  const PartitionId k = num_partitions();
  const double lambda = options_.lambda;

  if (hash_fallback_) {
    // Last-rung degraded mode — see SpnPartitioner::place. The logical-table
    // bookkeeping below still runs so a later checkpoint stays coherent, but
    // the Eq. 6 score is replaced by a deterministic hash vote.
    PartitionId pid;
    {
      PerfScope t(perf_, PerfStage::kScore);
      scores_.assign(k, 0.0);
      scores_[static_cast<PartitionId>(mix64(kDegradedHashSeed ^ v) % k)] = 1.0;
      compute_loads(config_.balance, vertex_counts_, edge_counts_, capacity_,
                    edge_capacity_, scratch_.loads);
      pid = weigh_and_pick(scores_, scratch_.loads, capacity_);
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
  const PartitionId* route = route_.data();
  const std::size_t route_size = route_.size();
  for (VertexId u : out) {
    if (u < route_size) prefetch_read(route + u);
    if (gamma_.contains(u)) prefetch_write(gamma_data + gamma_.row_offset(u));
  }

  {
    PerfScope t(perf_, PerfStage::kWindowAdvance);
    gamma_.advance_to(v);
  }

  PartitionId pid;
  auto& gamma_rows = scratch_.gamma_rows;
  {
    PerfScope t(perf_, PerfStage::kScore);

    // Stash pass over the out-list: each neighbor's post-slide Γ-window
    // membership and row offset, computed once and reused by the
    // kNeighborSum reads and the post-commit increments.
    scores_.assign(k, 0.0);
    physical_.assign(k, 0.0);
    logical_hits_.assign(k, 0.0);
    gamma_rows.clear();
    for (VertexId u : out) {
      if (gamma_.contains(u)) gamma_rows.push_back(gamma_.row_offset(u));
    }

    // Out-neighbor term: the physical/logical tallies (Eq. 6 weights the two
    // intersection sizes separately). Per-bucket accumulation chains are
    // unchanged from the reference, so the sums are bit-identical.
    for (VertexId u : out) {
      if (u < route_size) {
        if (route[u] != kUnassigned) {
          physical_[route[u]] += 1.0;
        } else {
          logical_hits_[logical_partition_of(u)] += 1.0;
        }
      }
    }
    for (PartitionId i = 0; i < k; ++i) {
      const double e = eta(i);
      scores_[i] = lambda * ((1.0 - e) * physical_[i] + e * logical_hits_[i]);
    }

    // In-neighbor expectation term (see spn.hpp for the Eq. 5 fidelity note).
    if (options_.estimator == InNeighborEstimator::kSelf) {
      if (gamma_.contains(v)) {
        const std::uint32_t* row = gamma_data + gamma_.row_offset(v);
        for (PartitionId i = 0; i < k; ++i) {
          scores_[i] += (1.0 - lambda) * row[i];
        }
      }
    } else {
      for (const std::size_t offset : gamma_rows) {
        const std::uint32_t* row = gamma_data + offset;
        for (PartitionId i = 0; i < k; ++i) {
          scores_[i] += (1.0 - lambda) * row[i];
        }
      }
    }

    compute_loads(config_.balance, vertex_counts_, edge_counts_, capacity_,
                  edge_capacity_, scratch_.loads);
    pid = weigh_and_pick(scores_, scratch_.loads, capacity_);
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
    // The window cannot have moved since the scoring pass, so the stashed
    // row offsets are still the live slots.
    PerfScope t(perf_, PerfStage::kGammaIncrement);
    for (const std::size_t offset : gamma_rows) gamma_.increment_at(offset, pid);
  }
  return pid;
}

bool SpnlPartitioner::apply_degradation(DegradationStage stage) {
  const auto raise_to = [this](DegradationStage s) {
    if (static_cast<int>(s) > static_cast<int>(stage_)) stage_ = s;
  };
  switch (stage) {
    case DegradationStage::kShrinkWindow: {
      const VertexId w = gamma_.window_size();
      if (w <= 1) return false;
      gamma_.shrink_to(w / 2);
      raise_to(stage);
      return true;
    }
    case DegradationStage::kCoarseSlide:
      if (gamma_.slide_mode() == SlideMode::kCoarse || gamma_.window_size() <= 1) {
        return false;
      }
      gamma_.set_slide_mode(SlideMode::kCoarse);
      raise_to(stage);
      return true;
    case DegradationStage::kHashFallback:
      if (hash_fallback_) return false;
      hash_fallback_ = true;
      gamma_.shrink_to(1);
      raise_to(stage);
      return true;
    case DegradationStage::kNone:
      break;
  }
  return false;
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
