// Reference (pre-fusion) SPN/SPNL scoring oracles.
//
// These reproduce the original place() formulations verbatim: two passes over
// the out-list, per-id Γ increments, η recomputed for every partition on
// every record, and the original load()/remaining_weight()/pick_best()
// capacity handling, which recomputes each partition's load from its counts
// on every call (ReferenceGreedyBase) where GreedyStreamingBase reads its
// cache. The fused kernel in core/score_kernel.hpp promises byte-identical
// routes to this formulation; test_scoring_kernel fuzzes that promise across
// estimators, slide modes, shard counts, η policies and logical hint tables,
// and bench_microkernel measures the speedup against it. Kept under tests/ so
// the production sources carry exactly one scoring implementation.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/gamma_table.hpp"
#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "partition/partitioning.hpp"
#include "partition/range_partitioner.hpp"
#include "util/memory.hpp"

namespace spnl {

/// GreedyStreamingBase with its capacity handling as first implemented:
/// these hide the base's cached load(), remaining_weight(), is_full() and
/// pick_best() with versions that derive every load from the counts.
class ReferenceGreedyBase : public GreedyStreamingBase {
 public:
  using GreedyStreamingBase::GreedyStreamingBase;

 protected:
  double load(PartitionId i) const {
    switch (config_.balance) {
      case BalanceMode::kVertex:
        return static_cast<double>(vertex_counts_[i]);
      case BalanceMode::kEdge:
        return static_cast<double>(edge_counts_[i]);
      case BalanceMode::kBoth: {
        const double vertex_util = static_cast<double>(vertex_counts_[i]);
        const double edge_util =
            static_cast<double>(edge_counts_[i]) / edge_capacity_ * capacity_;
        return std::max(vertex_util, edge_util);
      }
    }
    return 0.0;
  }

  double remaining_weight(PartitionId i) const { return 1.0 - load(i) / capacity_; }

  bool is_full(PartitionId i) const { return load(i) >= capacity_; }

  PartitionId pick_best(std::span<const double> scores) const {
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
    best = 0;
    for (PartitionId i = 1; i < k; ++i) {
      if (load(i) < load(best)) best = i;
    }
    return best;
  }
};

/// SPN exactly as first implemented: λ pass, Γ pass, weight loop, pick_best.
class ReferenceSpnPartitioner final : public ReferenceGreedyBase {
 public:
  ReferenceSpnPartitioner(VertexId num_vertices, EdgeId num_edges,
                          const PartitionConfig& config, SpnOptions options = {})
      : ReferenceGreedyBase(num_vertices, num_edges, config),
        options_(options),
        gamma_(num_vertices, config.num_partitions,
               options.num_shards == 0
                   ? GammaWindow::recommended_shards(num_vertices,
                                                     config.num_partitions)
                   : options.num_shards,
               options.slide) {
    if (options_.lambda < 0.0 || options_.lambda > 1.0) {
      throw std::invalid_argument("ReferenceSPN: lambda must be in [0,1]");
    }
  }

  PartitionId place(VertexId v, std::span<const VertexId> out) override {
    const PartitionId k = num_partitions();
    const double lambda = options_.lambda;

    gamma_.advance_to(v);

    scores_.assign(k, 0.0);
    for (VertexId u : out) {
      if (u < route_.size() && route_[u] != kUnassigned) {
        scores_[route_[u]] += lambda;
      }
    }

    if (options_.estimator == InNeighborEstimator::kSelf) {
      const auto row = gamma_.row(v);
      for (PartitionId i = 0; i < static_cast<PartitionId>(row.size()); ++i) {
        scores_[i] += (1.0 - lambda) * row[i];
      }
    } else {
      for (VertexId u : out) {
        const auto row = gamma_.row(u);
        for (PartitionId i = 0; i < static_cast<PartitionId>(row.size()); ++i) {
          scores_[i] += (1.0 - lambda) * row[i];
        }
      }
    }

    for (PartitionId i = 0; i < k; ++i) scores_[i] *= remaining_weight(i);
    const PartitionId pid = pick_best(scores_);
    commit(v, out, pid);

    for (VertexId u : out) gamma_.increment(pid, u);
    return pid;
  }

  std::string name() const override { return "ReferenceSPN"; }
  std::size_t memory_footprint_bytes() const override {
    return ReferenceGreedyBase::memory_footprint_bytes() +
           gamma_.memory_footprint_bytes();
  }

 private:
  SpnOptions options_;
  GammaWindow gamma_;
};

/// SPNL exactly as first implemented (thread-local scratch replaced by plain
/// members; the arithmetic and its order are unchanged), plus the logical
/// hint table the 2PS prepass injects in place of the range table.
class ReferenceSpnlPartitioner final : public ReferenceGreedyBase {
 public:
  ReferenceSpnlPartitioner(VertexId num_vertices, EdgeId num_edges,
                           const PartitionConfig& config, SpnlOptions options = {})
      : ReferenceGreedyBase(num_vertices, num_edges, config),
        options_(options),
        gamma_(num_vertices, config.num_partitions,
               options.num_shards == 0
                   ? GammaWindow::recommended_shards(num_vertices,
                                                     config.num_partitions)
                   : options.num_shards,
               options.slide),
        logical_(num_vertices, config.num_partitions),
        logical_counts_(config.num_partitions, 0) {
    if (options_.lambda < 0.0 || options_.lambda > 1.0) {
      throw std::invalid_argument("ReferenceSPNL: lambda must be in [0,1]");
    }
    if (options_.logical_hints != nullptr) {
      for (PartitionId hint : *options_.logical_hints) ++logical_counts_[hint];
    } else {
      for (PartitionId i = 0; i < config.num_partitions; ++i) {
        logical_counts_[i] = logical_.range_size(i);
      }
    }
  }

  PartitionId logical_of(VertexId u) const {
    return options_.logical_hints != nullptr ? (*options_.logical_hints)[u]
                                             : logical_.partition_of(u);
  }

  double eta(PartitionId i) const {
    switch (options_.eta_policy) {
      case EtaPolicy::kPaper: {
        const double lt = logical_counts_[i];
        if (lt <= 0.0) return 0.0;
        const double e = (lt - static_cast<double>(vertex_count(i))) / lt;
        return e > 0.0 ? e : 0.0;
      }
      case EtaPolicy::kLinear:
        return num_vertices_ == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(placed_total_) / num_vertices_;
      case EtaPolicy::kConstant:
        return options_.eta0;
      case EtaPolicy::kZero:
        return 0.0;
    }
    return 0.0;
  }

  PartitionId place(VertexId v, std::span<const VertexId> out) override {
    const PartitionId k = num_partitions();
    const double lambda = options_.lambda;

    gamma_.advance_to(v);

    scores_.assign(k, 0.0);
    physical_.assign(k, 0.0);
    logical_hits_.assign(k, 0.0);
    for (VertexId u : out) {
      if (u >= route_.size()) continue;
      if (route_[u] != kUnassigned) {
        physical_[route_[u]] += 1.0;
      } else {
        logical_hits_[logical_of(u)] += 1.0;
      }
    }
    for (PartitionId i = 0; i < k; ++i) {
      const double e = eta(i);
      scores_[i] = lambda * ((1.0 - e) * physical_[i] + e * logical_hits_[i]);
    }

    if (options_.estimator == InNeighborEstimator::kSelf) {
      const auto row = gamma_.row(v);
      for (PartitionId i = 0; i < static_cast<PartitionId>(row.size()); ++i) {
        scores_[i] += (1.0 - lambda) * row[i];
      }
    } else {
      for (VertexId u : out) {
        const auto row = gamma_.row(u);
        for (PartitionId i = 0; i < static_cast<PartitionId>(row.size()); ++i) {
          scores_[i] += (1.0 - lambda) * row[i];
        }
      }
    }

    for (PartitionId i = 0; i < k; ++i) scores_[i] *= remaining_weight(i);
    const PartitionId pid = pick_best(scores_);
    commit(v, out, pid);

    const PartitionId lp = logical_of(v);
    if (logical_counts_[lp] > 0) --logical_counts_[lp];
    ++placed_total_;

    for (VertexId u : out) gamma_.increment(pid, u);
    return pid;
  }

  std::string name() const override { return "ReferenceSPNL"; }
  std::size_t memory_footprint_bytes() const override {
    return ReferenceGreedyBase::memory_footprint_bytes() +
           gamma_.memory_footprint_bytes() + vector_bytes(logical_counts_) +
           2 * sizeof(VertexId) * num_partitions();
  }

 private:
  SpnlOptions options_;
  GammaWindow gamma_;
  RangeTable logical_;
  std::vector<VertexId> logical_counts_;
  VertexId placed_total_ = 0;
  std::vector<double> physical_, logical_hits_;
};

}  // namespace spnl
