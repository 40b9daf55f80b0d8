// The one scoring kernel of SPN (Eq. 4/5) and SPNL (Eq. 6), shared by the
// sequential partitioners and the parallel worker.
//
// score_record() reads the partitioner state through a read policy, so the
// kernel does not depend on how that state is stored. There are two:
//
//  * PlainReads (below) reads a sequential partitioner's plain arrays and
//    its GammaWindow. SpnPartitioner::place_with, the one sequential
//    placement body, is a template over the policy: SPN passes PlainReads
//    as is, SPNL passes SpnlReads, which adds the logical table and η
//    (core/spnl.cpp).
//  * WorkerReads (core/parallel_driver.cpp) reads the parallel driver's
//    relaxed atomics and its ConcurrentGammaWindow, and keeps the
//    partition view of one worker: shared counters plus its own unflushed
//    placements.
//
// The reference formulation (kept verbatim as the oracle in
// tests/reference_partitioners.hpp and raced by bench_microkernel) walks the
// out-list twice. The kernel reads the per-partition factors (balance load,
// η_i and the capacity weight 1 - load/C) from one cached PartitionView that
// the policy's owner keeps current: a placement recomputes only the entries
// whose counts it changed, those of the placed partition and of the placed
// vertex's logical partition (every η under EtaPolicy::kLinear, which
// depends on the placed total). The kernel stashes the Γ rows it reads and
// fuses the weight multiply with the argmax (weigh_and_pick). Its scratch
// buffers live in RecordScratch, reused across records.
//
// Byte-identity contract: every floating-point operation is performed on the
// same values in the same order as the reference (λ additions first, then Γ
// contributions in out-list order, then the weight multiply; the cached
// weight and η are computed by the reference's expressions from the same
// counts), so routes are bit-identical — the golden tests and
// test_scoring_kernel enforce this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/gamma_table.hpp"
#include "graph/types.hpp"
#include "partition/partitioning.hpp"
#include "util/rng.hpp"

namespace spnl {

// Best-effort cache prefetch hints (no-ops off GCC/Clang). At the paper's
// recommended shard count the Γ table is tens of MB and the out-neighbors are
// scattered, so the route entries and Γ rows a record touches are almost
// always cache misses. Issuing the prefetches while the offsets are being
// stashed overlaps the DRAM latency with the rest of the scoring work instead
// of stalling the λ loop and the post-commit increment loop. Hints never
// change architectural state, so byte-identity is unaffected.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

/// The per-partition factors a record is scored against, cached by the read
/// policy's owner: the balance load, η_i of Eq. 6 (empty for SPN) and the
/// capacity weight w_t(i) = 1 - load/C. An entry is recomputed only when the
/// counts it derives from change, with the expression a per-record
/// recomputation would use, so reading the cache gives the same doubles.
struct PartitionView {
  std::span<const double> loads;
  std::span<const double> eta;
  std::span<const double> weights;
};

/// Applies the remaining-capacity weight scores[i] *= weights[i] and returns
/// the argmax under GreedyStreamingBase::pick_best's exact contract: full
/// partitions (load >= C) are skipped, ties break to the lower load then the
/// lower id (first winner kept), and when everything is full the globally
/// least-loaded partition absorbs the overflow.
inline PartitionId weigh_and_pick(std::span<double> scores, const PartitionView& view,
                                  double capacity) {
  const std::size_t k = scores.size();
  const std::span<const double> loads = view.loads;
  // Weight and argmax in one pass: scores[i] is final before slot i is
  // compared, so the comparison sequence (and the winner) is identical to
  // the reference's weight-everything-then-scan order.
  PartitionId best = kUnassigned;
  for (std::size_t i = 0; i < k; ++i) {
    scores[i] *= view.weights[i];
    if (loads[i] >= capacity) continue;
    if (best == kUnassigned || scores[i] > scores[best] ||
        (scores[i] == scores[best] && loads[i] < loads[best])) {
      best = static_cast<PartitionId>(i);
    }
  }
  if (best != kUnassigned) return best;
  best = 0;
  for (std::size_t i = 1; i < k; ++i) {
    if (loads[i] < loads[best]) best = static_cast<PartitionId>(i);
  }
  return best;
}

/// A read policy `Reads` provides num_partitions(), num_vertices(), route(u)
/// (kUnassigned while unplaced), locality() and logical_of(u) (locality()
/// false: no logical term, i.e. SPN), prefetch(u), a Γ row handle `Row` with
/// gamma_row(u, row) (false outside the window) and gamma(row, i) (its count
/// for partition i), and view(): the cached PartitionView of the current
/// partition counters.
template <class Row>
struct RecordScratch {
  std::vector<double> scores, physical, logical;
  std::vector<Row> rows;  // stashed Γ rows of in-window out-neighbors
};

struct RecordParams {
  double lambda = 0.5;
  double capacity = 0.0;
  bool neighbor_sum = false;  ///< InNeighborEstimator::kNeighborSum
};

/// Eq. 4 (locality() false) or Eq. 6 score of v and the capacity-weighted
/// argmax. The floating-point sequence is the reference's — λ term per
/// partition, then Γ rows in out-list order, then the weight — so equal
/// reads give equal routes.
template <class Reads>
PartitionId score_record(const Reads& reads, const RecordParams& params, VertexId v,
                         std::span<const VertexId> out,
                         RecordScratch<typename Reads::Row>& s) {
  const std::size_t k = reads.num_partitions();
  const VertexId n = reads.num_vertices();
  typename Reads::Row row{};
  s.rows.clear();
  for (VertexId u : out) {  // stash pass: one window lookup per neighbor
    if (u < n) reads.prefetch(u);
    if (params.neighbor_sum && reads.gamma_row(u, row)) s.rows.push_back(row);
  }
  const PartitionView view = reads.view();

  if (reads.locality()) {
    s.physical.assign(k, 0.0);
    s.logical.assign(k, 0.0);
    for (VertexId u : out) {
      if (u >= n) continue;
      const PartitionId placed = reads.route(u);
      if (placed != kUnassigned) {
        s.physical[placed] += 1.0;
      } else {
        s.logical[reads.logical_of(u)] += 1.0;
      }
    }
    s.scores.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      s.scores[i] = params.lambda * ((1.0 - view.eta[i]) * s.physical[i] +
                                     view.eta[i] * s.logical[i]);
    }
  } else {
    // SPN adds λ once per placed out-neighbor: λ·count rounds differently,
    // and the reference adds.
    s.scores.assign(k, 0.0);
    for (VertexId u : out) {
      if (u >= n) continue;
      const PartitionId placed = reads.route(u);
      if (placed != kUnassigned) s.scores[placed] += params.lambda;
    }
  }
  if (!params.neighbor_sum && reads.gamma_row(v, row)) s.rows.push_back(row);
  for (const auto& r : s.rows) {  // Γ rows: v's own, or its out-neighbors'
    for (std::size_t i = 0; i < k; ++i) {
      s.scores[i] += (1.0 - params.lambda) * static_cast<double>(reads.gamma(r, i));
    }
  }
  return weigh_and_pick(s.scores, view, params.capacity);
}

/// The last degradation rung's placement: a deterministic hash vote for v
/// run through the normal capacity weighting and tie-breaking, so balance
/// survives even though the affinity heuristics are gone.
template <class Reads>
PartitionId hash_vote_pick(const Reads& reads, const RecordParams& params, VertexId v,
                           RecordScratch<typename Reads::Row>& s) {
  const std::size_t k = reads.num_partitions();
  s.scores.assign(k, 0.0);
  s.scores[mix64(kDegradedHashSeed ^ v) % k] = 1.0;
  return weigh_and_pick(s.scores, reads.view(), params.capacity);
}

/// score_record's read policy over a sequential partitioner's plain arrays.
/// Γ rows are pointers into the window, valid while it does not advance. No
/// logical term (SPN); SpnlPartitioner's policy adds it. prefetch() is a
/// no-op because place_with() prefetches before the window slide.
struct PlainReads {
  using Row = const GammaCount*;

  PartitionId num_partitions() const { return static_cast<PartitionId>(loads.size()); }
  VertexId num_vertices() const { return static_cast<VertexId>(routes.size()); }
  PartitionId route(VertexId u) const { return routes[u]; }
  bool locality() const { return false; }
  PartitionId logical_of(VertexId) const { return 0; }
  void prefetch(VertexId) const {}

  bool gamma_row(VertexId u, Row& row) const {
    if (!window.contains(u)) return false;
    row = window.data() + window.row_offset(u);
    return true;
  }
  GammaCount gamma(Row row, std::size_t i) const { return row[i]; }

  PartitionView view() const { return {loads, {}, weights}; }

  const GammaWindow& window;
  std::span<const PartitionId> routes;
  std::span<const double> loads;
  std::span<const double> weights;
};

}  // namespace spnl
