// SPNL — SPN plus topology Locality (paper Sec. IV-C).
//
// Before streaming, all vertices are logically pre-assigned by contiguous id
// ranges (O(2K) lookup table; valid because crawl-ordered graphs embed
// topology locality in the numbering). The placement score (Eq. 6) blends
// the physically-placed out-neighbor distribution with the logical one:
//
//   pid = argmax_i w_t(i,v) · ( (1−λ)·Γ_i(v)
//           + λ·( (1−η_i^t)·|V_i^pt ∩ N_out(v)| + η_i^t·|V_i^lt ∩ N_out(v)| ) )
//
// where the decay η_i^t = max{0, (|V_i^lt| − |V_i^pt|)/|V_i^lt|} trusts the
// logical guess early (few physical placements) and fades as real placements
// accumulate. A vertex leaves V_i^lt the moment it is physically placed.
//
// Multigraph semantics match SPN (see spn.hpp): parallel edges count with
// multiplicity in the physical, logical and Γ terms; self-loops contribute a
// logical-table vote at scoring time (v is unplaced, so the self-edge falls
// into the |V_i^lt ∩ N_out(v)| term of its own logical partition) and an
// inert Γ_pid(v) increment after placement.
#pragma once

#include <cstdint>

#include "core/gamma_table.hpp"
#include "core/spn.hpp"
#include "partition/partitioning.hpp"
#include "partition/range_partitioner.hpp"

namespace spnl {

/// Decay policy for η (the paper fixes one and leaves others as future work;
/// bench_ablation compares them).
enum class EtaPolicy {
  kPaper,      ///< max{0, (|V_lt| - |V_pt|)/|V_lt|}
  kLinear,     ///< 1 - (placed vertices)/|V| (global linear decay)
  kConstant,   ///< fixed eta0
  kZero,       ///< ignore logical table entirely (degrades SPNL to SPN)
};

/// η_i^t of Eq. 6 under `policy`, from lt = |V_i^lt|, pt = |V_i^pt| and the
/// `placed` vertices out of n = |V|. Shared by the sequential partitioner and
/// the parallel worker. (lt > pt implies lt > 0: pt counts placements.)
inline double eta_value(EtaPolicy policy, double eta0, double lt, double pt,
                        double placed, double n) {
  switch (policy) {
    case EtaPolicy::kPaper:
      return lt > pt ? (lt - pt) / lt : 0.0;
    case EtaPolicy::kLinear:
      return n == 0.0 ? 0.0 : 1.0 - placed / n;
    case EtaPolicy::kConstant:
      return eta0;
    case EtaPolicy::kZero:
      break;
  }
  return 0.0;
}

struct SpnlOptions {
  double lambda = 0.5;
  std::uint32_t num_shards = 0;  ///< 0 = paper recommendation, 1 = full table
  InNeighborEstimator estimator = InNeighborEstimator::kSelf;
  /// Window slide granularity; kCoarse reproduces the paper's rejected
  /// shard-by-shard design for the ablation.
  SlideMode slide = SlideMode::kFine;
  EtaPolicy eta_policy = EtaPolicy::kPaper;
  double eta0 = 0.5;  ///< only for kConstant
  /// Optional per-vertex logical pre-assignment replacing the contiguous
  /// range table in Eq. 6 (the 2PS clustering prepass feeds cluster-derived
  /// placement hints through here — see prepass/two_phase.hpp). Borrowed:
  /// must outlive the partitioner, have size |V|, and every value < K.
  /// Trades the paper's O(2K) logical table for an O(|V|) one, which is
  /// charged to memory_footprint_bytes; nullptr keeps the paper behavior. A
  /// checkpointed run must be restored with the same hint table it was
  /// constructed with (the prepass is deterministic, so re-running it
  /// reproduces the table).
  const std::vector<PartitionId>* logical_hints = nullptr;
};

/// SpnPartitioner's placement body and Γ machinery with the Eq. 6 read
/// policy. The degradation ladder is SPN's: the logical table is never
/// degraded, so the rungs act on the Γ window and, at the last rung, replace
/// Eq. 6 scoring with a capacity-weighted hash.
class SpnlPartitioner final : public SpnPartitioner {
 public:
  SpnlPartitioner(VertexId num_vertices, EdgeId num_edges,
                  const PartitionConfig& config, SpnlOptions options = {});

  PartitionId place(VertexId v, std::span<const VertexId> out) override;
  std::string name() const override { return "SPNL"; }
  std::size_t memory_footprint_bytes() const override;
  void save_state(StateWriter& out) const override;
  void restore_state(StateReader& in) override;

  const RangeTable& logical_table() const { return logical_; }

  /// Current η for partition i (exposed for tests).
  double eta(PartitionId i) const { return eta_[i]; }

  /// Logical pre-assignment of v: the hint table when one was injected, the
  /// contiguous range table otherwise (exposed for tests).
  PartitionId logical_partition_of(VertexId v) const {
    return options_.logical_hints != nullptr ? (*options_.logical_hints)[v]
                                             : logical_.partition_of(v);
  }

 private:
  SpnlOptions options_;
  RangeTable logical_;
  /// |V_i^lt|: logical members not yet physically placed (anywhere).
  std::vector<VertexId> logical_counts_;
  VertexId placed_total_ = 0;
  /// η_i of every partition, recomputed when its inputs change: lt and pt of
  /// its own partition, or, under EtaPolicy::kLinear, the placed total.
  std::vector<double> eta_;

  void update_eta(PartitionId i);
  void update_all_eta();
};

}  // namespace spnl
