// SPN — Streaming Partitioner based on in&out-Neighbors (paper Sec. IV-B).
//
// Extends LDG's out-neighbor score with an in-neighbor expectation estimate
// maintained in Γ tables: when a vertex u is placed into P_i, Γ_i(w) is
// incremented for every w ∈ N_out(u), so Γ_i(v) equals |V_i^pt ∩ N_in(v)| at
// the moment v arrives. Placement rule (Eq. 4, estimated as Eq. 5):
//
//   pid = argmax_i { (λ·|V_i^pt ∩ N_out(v)| + (1−λ)·InEstimate_i(v)) · w_t(i,v) }
//
// NOTE on Eq. 5 fidelity: as printed, Eq. 5 sums Γ_i(u) over u ∈ N_out(v).
// The paper's own worked examples (Fig. 2: score (0,1,1) for vertex 7 from
// placed in-neighbors 2 and 6; Fig. 4 likewise) instead use Γ_i(v) of the
// arriving vertex itself — which is exactly the placed-in-neighbor count the
// surrounding text describes. We default to the example-consistent estimator
// (kSelf) and provide the literal reading (kNeighborSum) as an ablation
// option; bench_ablation compares them.
//
// Multigraph semantics (intended, not an accident): parallel edges in the
// out-list count with multiplicity everywhere — each duplicate of u adds λ to
// u's partition in the out-neighbor term, contributes its Γ row again under
// kNeighborSum, and increments Γ_pid(u) once more after placement. The paper's
// sets V_i ∩ N_out(v) are defined over simple crawl graphs where the question
// never arises; on multigraph input a repeated edge is repeated evidence of
// affinity, consistent with how the LDG/FENNEL implementations here weigh it.
// A self-loop (v ∈ N_out(v)) adds nothing at scoring time — v is unplaced and
// its own Γ row only biases the kSelf estimate it is already the subject of —
// but does increment Γ_pid(v) after placement, which is definition-faithful
// (v ∈ N_in(v) ∩ V_pid) and inert since v's row is never read again. Callers
// wanting simple-graph semantics dedupe at load time via
// GraphBuilder::FinishOptions{strip_self_loops, strip_duplicate_edges};
// test_spn_semantics pins these behaviours.
#pragma once

#include <cstdint>

#include "core/gamma_table.hpp"
#include "core/score_kernel.hpp"
#include "partition/partitioning.hpp"

namespace spnl {

/// How the in-neighbor term of Eq. 4 is estimated from Γ (see file comment).
enum class InNeighborEstimator {
  kSelf,         ///< Γ_i(v): placed in-neighbors of v (matches Figs. 2 and 4)
  kNeighborSum,  ///< Σ_{u∈N_out(v)} Γ_i(u): Eq. 5 as literally printed
};

struct SpnOptions {
  /// λ balances out-neighbors vs in-neighbors; the paper's Fig. 3 sweep
  /// selects 0.5. λ=1 degrades SPN to LDG exactly.
  double lambda = 0.5;
  /// Number of sliding-window shards X (Sec. V-A). 0 selects the paper's
  /// recommendation min{4K, |V|/(10^4·K)}; 1 keeps the exact full table.
  std::uint32_t num_shards = 0;
  InNeighborEstimator estimator = InNeighborEstimator::kSelf;
  /// Window slide granularity; kCoarse reproduces the paper's rejected
  /// shard-by-shard design for the ablation.
  SlideMode slide = SlideMode::kFine;
};

/// SPN, and the Γ machinery and placement body SpnlPartitioner inherits:
/// SPNL is SPN plus the logical term of Eq. 6, supplied through its read
/// policy (core/score_kernel.hpp).
class SpnPartitioner : public GreedyStreamingBase {
 public:
  SpnPartitioner(VertexId num_vertices, EdgeId num_edges,
                 const PartitionConfig& config, SpnOptions options = {})
      : SpnPartitioner(num_vertices, num_edges, config, options, "SPN") {}

  PartitionId place(VertexId v, std::span<const VertexId> out) override;
  std::string name() const override { return "SPN"; }
  std::size_t memory_footprint_bytes() const override;
  void save_state(StateWriter& out) const override;
  void restore_state(StateReader& in) override;

  /// Degradation ladder (util/resource_governor.hpp): kShrinkWindow halves
  /// the Γ window (repeatable until W == 1), kCoarseSlide switches the slide
  /// granularity once, kHashFallback drops scoring entirely in favour of a
  /// capacity-weighted hash and releases the Γ storage. Each rung only loses
  /// heuristic accuracy — the capacity invariants and the one-pass contract
  /// are untouched.
  bool apply_degradation(DegradationStage stage) override;
  DegradationStage degradation_stage() const override { return stage_; }

  const GammaWindow& gamma() const { return gamma_; }
  double lambda() const { return params_.lambda; }

 protected:
  /// `who` prefixes the invalid-λ error.
  SpnPartitioner(VertexId num_vertices, EdgeId num_edges,
                 const PartitionConfig& config, const SpnOptions& options,
                 const char* who);

  PlainReads plain_reads() const { return {gamma_, route_, loads_, weights_}; }

  /// The one placement body: prefetch, slide, score (a hash vote on the last
  /// ladder rung), commit followed by placed(v, pid), then the Γ increments.
  /// `reads` is PlainReads for SPN and adds the logical term for SPNL.
  template <class Reads, class Placed>
  PartitionId place_with(const Reads& reads, VertexId v,
                         std::span<const VertexId> out, Placed placed);

  /// Reads the ladder stage save_state wrote after the Γ window.
  void restore_stage(StateReader& in);

  GammaWindow gamma_;

 private:
  RecordParams params_;
  RecordScratch<PlainReads::Row> scratch_;
  /// Deepest degradation rung applied (persisted across checkpoints).
  DegradationStage stage_ = DegradationStage::kNone;
  bool hash_fallback_ = false;
};

template <class Reads, class Placed>
PartitionId SpnPartitioner::place_with(const Reads& reads, VertexId v,
                                       std::span<const VertexId> out,
                                       Placed placed) {
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
    placed(v, pid);
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
  const GammaCount* gamma_data = gamma_.data();
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
    placed(v, pid);
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

}  // namespace spnl
