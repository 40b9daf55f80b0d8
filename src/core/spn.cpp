#include "core/spn.hpp"

#include <stdexcept>

namespace spnl {

SpnPartitioner::SpnPartitioner(VertexId num_vertices, EdgeId num_edges,
                               const PartitionConfig& config,
                               const SpnOptions& options, const char* who)
    : GreedyStreamingBase(num_vertices, num_edges, config),
      gamma_(num_vertices, config.num_partitions,
             options.num_shards == 0
                 ? GammaWindow::recommended_shards(num_vertices,
                                                   config.num_partitions)
                 : options.num_shards,
             options.slide),
      params_{options.lambda, capacity_,
              options.estimator == InNeighborEstimator::kNeighborSum} {
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    throw std::invalid_argument(std::string(who) + ": lambda must be in [0,1]");
  }
}

PartitionId SpnPartitioner::place(VertexId v, std::span<const VertexId> out) {
  return place_with(plain_reads(), v, out, [](VertexId, PartitionId) {});
}

std::size_t SpnPartitioner::memory_footprint_bytes() const {
  return GreedyStreamingBase::memory_footprint_bytes() +
         gamma_.memory_footprint_bytes();
}

bool SpnPartitioner::apply_degradation(DegradationStage stage) {
  switch (stage) {
    case DegradationStage::kShrinkWindow: {
      const VertexId w = gamma_.window_size();
      if (w <= 1) return false;
      gamma_.shrink_to(w / 2);
      break;
    }
    case DegradationStage::kCoarseSlide:
      if (gamma_.slide_mode() == SlideMode::kCoarse || gamma_.window_size() <= 1) {
        return false;
      }
      gamma_.set_slide_mode(SlideMode::kCoarse);
      break;
    case DegradationStage::kHashFallback:
      if (hash_fallback_) return false;
      hash_fallback_ = true;
      gamma_.shrink_to(1);
      break;
    case DegradationStage::kNone:
      return false;
  }
  if (static_cast<int>(stage) > static_cast<int>(stage_)) stage_ = stage;
  return true;
}

void SpnPartitioner::save_state(StateWriter& out) const {
  GreedyStreamingBase::save_state(out);
  gamma_.save(out);
  out.put_u32(static_cast<std::uint32_t>(stage_));
}

void SpnPartitioner::restore_state(StateReader& in) {
  GreedyStreamingBase::restore_state(in);
  gamma_.restore(in);
  restore_stage(in);
}

void SpnPartitioner::restore_stage(StateReader& in) {
  stage_ = static_cast<DegradationStage>(in.get_u32());
  hash_fallback_ = stage_ == DegradationStage::kHashFallback;
}

}  // namespace spnl
