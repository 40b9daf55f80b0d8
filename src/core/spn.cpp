#include "core/spn.hpp"

#include <stdexcept>

namespace spnl {

namespace {
std::uint32_t resolve_shards(std::uint32_t requested, VertexId n, PartitionId k) {
  return requested == 0 ? GammaWindow::recommended_shards(n, k) : requested;
}
}  // namespace

SpnPartitioner::SpnPartitioner(VertexId num_vertices, EdgeId num_edges,
                               const PartitionConfig& config, SpnOptions options)
    : GreedyStreamingBase(num_vertices, num_edges, config),
      options_(options),
      gamma_(num_vertices, config.num_partitions,
             resolve_shards(options.num_shards, num_vertices, config.num_partitions),
             options.slide),
      params_{options.lambda, capacity_,
              options.estimator == InNeighborEstimator::kNeighborSum} {
  if (options_.lambda < 0.0 || options_.lambda > 1.0) {
    throw std::invalid_argument("SPN: lambda must be in [0,1]");
  }
}

PartitionId SpnPartitioner::place(VertexId v, std::span<const VertexId> out) {
  const PlainReads reads{gamma_, route_, vertex_counts_, edge_counts_,
                         config_.balance, capacity_, edge_capacity_};
  if (hash_fallback_) {
    // Last-rung degraded mode: Γ bookkeeping is skipped entirely (the
    // window was shrunk to one row when the rung engaged).
    PartitionId pid;
    {
      PerfScope t(perf_, PerfStage::kScore);
      pid = hash_vote_pick(reads, params_, v, scratch_);
    }
    PerfScope t(perf_, PerfStage::kCommit);
    commit(v, out, pid);
    return pid;
  }

  // Prefetch pass: the route entries and Γ rows this record touches are
  // scattered (tens of MB at recommended shard counts), so they are almost
  // always cache misses. A vertex's ring slot is u % W regardless of the
  // window base, so the row addresses are already final before the slide —
  // issuing the prefetches here overlaps the misses with the row-retirement
  // clear and the scoring arithmetic. Membership is re-evaluated after the
  // slide; a prefetch of a row that then retires (or a miss on one that just
  // entered) only costs a wasted hint.
  const std::uint32_t* gamma_data = gamma_.data();
  for (VertexId u : out) {
    if (u < route_.size()) prefetch_read(&route_[u]);
    if (gamma_.contains(u)) prefetch_write(gamma_data + gamma_.row_offset(u));
  }

  {
    // Fine-grained slide: the window now starts at the arriving vertex, so
    // its own Γ row is still live for the in-neighbor estimate below.
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
  }

  {
    // Algorithm 1, lines 5-7: placing v raises P_pid's expectation for every
    // out-neighbor of v. Counts for out-of-window ids are dropped.
    PerfScope t(perf_, PerfStage::kGammaIncrement);
    for (VertexId u : out) {
      if (gamma_.contains(u)) gamma_.increment_at(gamma_.row_offset(u), pid);
    }
  }
  return pid;
}

std::size_t SpnPartitioner::memory_footprint_bytes() const {
  return GreedyStreamingBase::memory_footprint_bytes() +
         gamma_.memory_footprint_bytes();
}

bool apply_gamma_ladder(DegradationStage stage, GammaWindow& gamma,
                        DegradationStage& deepest, bool& hash_fallback) {
  switch (stage) {
    case DegradationStage::kShrinkWindow: {
      const VertexId w = gamma.window_size();
      if (w <= 1) return false;
      gamma.shrink_to(w / 2);
      break;
    }
    case DegradationStage::kCoarseSlide:
      if (gamma.slide_mode() == SlideMode::kCoarse || gamma.window_size() <= 1) {
        return false;
      }
      gamma.set_slide_mode(SlideMode::kCoarse);
      break;
    case DegradationStage::kHashFallback:
      if (hash_fallback) return false;
      hash_fallback = true;
      gamma.shrink_to(1);
      break;
    case DegradationStage::kNone:
      return false;
  }
  if (static_cast<int>(stage) > static_cast<int>(deepest)) deepest = stage;
  return true;
}

bool SpnPartitioner::apply_degradation(DegradationStage stage) {
  return apply_gamma_ladder(stage, gamma_, stage_, hash_fallback_);
}

void SpnPartitioner::save_state(StateWriter& out) const {
  GreedyStreamingBase::save_state(out);
  gamma_.save(out);
  out.put_u32(static_cast<std::uint32_t>(stage_));
}

void SpnPartitioner::restore_state(StateReader& in) {
  GreedyStreamingBase::restore_state(in);
  gamma_.restore(in);
  stage_ = static_cast<DegradationStage>(in.get_u32());
  hash_fallback_ = stage_ == DegradationStage::kHashFallback;
}

}  // namespace spnl
