#include "partition/restream.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/spnl.hpp"
#include "partition/driver.hpp"
#include "partition/ldg.hpp"

namespace spnl {

namespace {

/// One ReLDG pass: scoring against the previous pass's complete route table
/// with fresh capacity bookkeeping.
class RestreamPass final : public GreedyStreamingBase {
 public:
  RestreamPass(VertexId num_vertices, EdgeId num_edges, const PartitionConfig& config,
               const std::vector<PartitionId>& previous)
      : GreedyStreamingBase(num_vertices, num_edges, config), previous_(&previous) {}

  PartitionId place(VertexId v, std::span<const VertexId> out) override {
    const PartitionId k = num_partitions();
    const PartitionId prev =
        v < previous_->size() ? (*previous_)[v] : kUnassigned;

    scores_.assign(k, 0.0);
    for (VertexId u : out) {
      if (u < previous_->size() && (*previous_)[u] != kUnassigned) {
        scores_[(*previous_)[u]] += 1.0;
      }
    }
    // Inertia: prefer the vertex's previous home on near-ties. Damps the
    // oscillation label-propagation-style refinements are prone to.
    if (prev < k) scores_[prev] += 0.5;

    for (PartitionId i = 0; i < k; ++i) scores_[i] *= remaining_weight(i);
    const PartitionId pid = pick_best(scores_);
    commit(v, out, pid);
    return pid;
  }

  std::size_t memory_footprint_bytes() const override {
    return GreedyStreamingBase::memory_footprint_bytes() +
           previous_->size() * sizeof(PartitionId);
  }

  std::string name() const override { return "ReLDG"; }

 private:
  const std::vector<PartitionId>* previous_;
};

}  // namespace

RestreamResult restream_partition(AdjacencyStream& stream,
                                  const PartitionConfig& config,
                                  const RestreamOptions& options) {
  if (options.passes < 1) {
    throw std::invalid_argument("restream_partition: passes must be >= 1");
  }
  if (options.spnl_hints != nullptr && !options.seed_with_spnl) {
    throw std::invalid_argument(
        "restream_partition: spnl_hints requires seed_with_spnl");
  }
  const VertexId n = stream.num_vertices();
  const EdgeId m = stream.num_edges();

  RestreamResult result;
  auto run_pass = [&](StreamingPartitioner& partitioner) {
    RunResult run =
        run_streaming(stream, partitioner, {}, options.perf, options.governor);
    result.partition_seconds += run.partition_seconds;
    result.peak_bytes = std::max(result.peak_bytes, run.peak_partitioner_bytes);
    result.route = std::move(run.route);
    result.degradations = std::move(run.degradations);
  };
  if (options.seed_with_spnl) {
    SpnlPartitioner seed(n, m, config,
                         SpnlOptions{.logical_hints = options.spnl_hints});
    run_pass(seed);
  } else {
    LdgPartitioner seed(n, m, config);
    run_pass(seed);
  }

  for (int pass = 1; pass < options.passes; ++pass) {
    stream.reset();
    const std::vector<PartitionId> previous = std::move(result.route);
    RestreamPass refine(n, m, config, previous);
    run_pass(refine);
  }
  return result;
}

}  // namespace spnl
