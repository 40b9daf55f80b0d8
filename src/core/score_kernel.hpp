// Fused scoring kernel shared by the SPN/SPNL place() hot paths.
//
// The reference formulation (kept verbatim as the oracle in
// tests/reference_partitioners.hpp and raced by bench_microkernel) walks the
// out-list twice (once for the λ term, once for Γ rows / increments) and pays
// a non-inlined load() call with a balance-mode switch per partition in both
// the capacity weighting and the argmax. The kernel here:
//
//  * fuses Γ-window membership + row-offset computation into the single pass
//    over the out-list (the modulo is the expensive bit — it is now computed
//    once per neighbor and reused by both the kNeighborSum row reads and the
//    post-commit increments);
//  * hoists the balance-mode switch out of the per-partition loops
//    (compute_loads) so the weight application and argmax are tight,
//    branch-predictable runs over contiguous doubles;
//  * reuses scratch buffers across place() calls.
//
// Byte-identity contract: every floating-point operation is performed on the
// same values in the same order as the reference (λ additions first, then Γ
// contributions in out-list order, then the weight multiply), so routes are
// bit-identical — the golden tests and test_scoring_kernel enforce this.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "partition/partitioning.hpp"

namespace spnl {

/// Per-partitioner scratch reused across place() calls. Not counted in the
/// MC metric: loads is O(K); gamma_rows is bounded by the record's out-degree
/// and shrinks to the high-water mark of a single adjacency list.
struct ScoreKernelScratch {
  std::vector<double> loads;             // per-partition load snapshot
  std::vector<std::size_t> gamma_rows;   // Γ row offsets of in-window neighbors
};

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

/// Fills loads[i] with the current load of every partition under the given
/// balance mode — identical arithmetic to GreedyStreamingBase::load(), with
/// the mode switch hoisted out of the loop.
inline void compute_loads(BalanceMode mode, std::span<const VertexId> vertex_counts,
                          std::span<const EdgeId> edge_counts, double capacity,
                          double edge_capacity, std::vector<double>& loads) {
  const std::size_t k = vertex_counts.size();
  loads.resize(k);
  switch (mode) {
    case BalanceMode::kVertex:
      for (std::size_t i = 0; i < k; ++i) {
        loads[i] = static_cast<double>(vertex_counts[i]);
      }
      break;
    case BalanceMode::kEdge:
      for (std::size_t i = 0; i < k; ++i) {
        loads[i] = static_cast<double>(edge_counts[i]);
      }
      break;
    case BalanceMode::kBoth:
      for (std::size_t i = 0; i < k; ++i) {
        const double vertex_util = static_cast<double>(vertex_counts[i]);
        const double edge_util =
            static_cast<double>(edge_counts[i]) / edge_capacity * capacity;
        loads[i] = vertex_util > edge_util ? vertex_util : edge_util;
      }
      break;
  }
}

/// Applies the remaining-capacity weight scores[i] *= 1 - loads[i]/C and
/// returns the argmax under GreedyStreamingBase::pick_best's exact contract:
/// full partitions (load >= C) are skipped, ties break to the lower load then
/// the lower id (first winner kept), and when everything is full the
/// globally least-loaded partition absorbs the overflow.
inline PartitionId weigh_and_pick(std::span<double> scores,
                                  std::span<const double> loads, double capacity) {
  const std::size_t k = scores.size();
  // Weight and argmax in one pass: scores[i] is final before slot i is
  // compared, so the comparison sequence (and the winner) is identical to
  // the reference's weight-everything-then-scan order.
  PartitionId best = kUnassigned;
  for (std::size_t i = 0; i < k; ++i) {
    scores[i] *= 1.0 - loads[i] / capacity;
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

/// score_record reads the partitioner state through a policy `Reads`, so the
/// kernel does not depend on how that state is stored: the parallel worker's
/// policy (core/parallel_driver.cpp) reads relaxed atomics and overlays its
/// unpublished Γ delta, a policy over plain arrays reads them. It provides
/// num_partitions(), num_vertices(), route(u) (kUnassigned while unplaced),
/// locality() and logical_of(u) (false: no logical term, i.e. SPN),
/// prefetch(u), a Γ row handle `Row` with gamma_row(u, row) (false outside
/// the window) and gamma(row, i) (its count for partition i), and
/// snapshot(loads, eta): one read of the partition counters per record that
/// yields both the balance load and η_i of Eq. 6.
template <class Row>
struct RecordScratch {
  std::vector<double> scores, physical, logical, loads, eta;
  std::vector<Row> rows;  // stashed Γ rows of in-window out-neighbors
};

struct RecordParams {
  double lambda = 0.5;
  double capacity = 0.0;
  bool neighbor_sum = false;  ///< InNeighborEstimator::kNeighborSum
};

/// Eq. 6 score of v and the capacity-weighted argmax. The floating-point
/// sequence is SpnlPartitioner::place's — λ term per partition, then Γ rows
/// in out-list order, then the weight — so equal reads give equal routes.
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
  s.loads.resize(k);
  s.eta.resize(k);
  reads.snapshot(s.loads, s.eta);

  s.physical.assign(k, 0.0);
  s.logical.assign(k, 0.0);
  for (VertexId u : out) {
    if (u >= n) continue;
    const PartitionId placed = reads.route(u);
    if (placed != kUnassigned) {
      s.physical[placed] += 1.0;
    } else if (reads.locality()) {
      s.logical[reads.logical_of(u)] += 1.0;
    }
  }
  s.scores.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    s.scores[i] = params.lambda *
                  ((1.0 - s.eta[i]) * s.physical[i] + s.eta[i] * s.logical[i]);
  }
  if (!params.neighbor_sum && reads.gamma_row(v, row)) s.rows.push_back(row);
  for (const auto& r : s.rows) {  // Γ rows: v's own, or its out-neighbors'
    for (std::size_t i = 0; i < k; ++i) {
      s.scores[i] += (1.0 - params.lambda) * static_cast<double>(reads.gamma(r, i));
    }
  }
  return weigh_and_pick(s.scores, s.loads, params.capacity);
}

}  // namespace spnl
