// 2PS-style two-phase streaming: a lightweight clustering prepass whose
// cluster ids become placement hints for a second, full-quality pass.
//
// Phase 1 ("2PS: High-Quality Edge Partitioning with Two-Phase Streaming",
// PAPERS.md, adapted from edge to vertex streams): one scan assigns every
// vertex to a size-capped streaming cluster — join the cluster most of your
// already-clustered out-neighbors are in, else found a new one, and pull
// still-unclustered out-neighbors into your cluster so later arrivals start
// with a vote. Optional restream passes move vertices to their majority
// cluster (label-propagation refinement under the same cap).
//
// Phase 2: clusters are packed onto the K partitions (largest first onto the
// least-loaded) and the per-vertex partition hints replace SPNL's contiguous
// range table (SpnlOptions::logical_hints): the logical-knowledge term of
// Eq. 6 then encodes discovered community structure instead of assuming the
// numbering embeds it — which is what rescues SPNL on hostile stream orders
// (docs/scenarios.md).
//
// The prepass trades 1 + refine_passes scans before the scoring pass (3 by
// default) and O(|V|) memory for order-robustness. It reads each scan through
// a ReadAheadStream (graph/read_ahead_stream.hpp), so a helper thread
// decodes the stream while the caller clusters. It degrades GRACEFULLY: when the cluster-id budget overflows (pathological
// inputs — e.g. edgeless graphs where every vertex is a singleton cluster)
// the result is flagged `degraded`, no hints are produced, and callers fall
// back to plain SPNL.
#pragma once

#include <cstdint>
#include <vector>

#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "partition/driver.hpp"
#include "partition/partitioning.hpp"

namespace spnl {

struct TwoPhaseOptions {
  /// Cluster-id budget for phase 1; 0 = auto (max(64, |V|/4 + K)). A record
  /// that needs a fresh cluster once the budget is exhausted marks the
  /// prepass degraded (see file comment) instead of growing without bound.
  std::uint32_t max_clusters = 0;
  /// Per-cluster member cap as a multiple of |V|/K; must be > 0. Slightly
  /// above 1 so a cluster can hold one whole balanced community but can
  /// never swallow two — the failure mode a looser cap exhibits on planted
  /// graphs streamed in id order.
  double cluster_cap_factor = 1.1;
  /// Majority-cluster refinement restreams after the initial pass (0 = the
  /// single-scan prepass).
  int refine_passes = 2;
};

struct PrepassResult {
  /// Per-vertex partition hint in [0, K); empty when degraded (or |V| == 0).
  std::vector<PartitionId> hints;
  std::uint32_t num_clusters = 0;
  /// Cluster budget overflowed: no hints, caller runs plain SPNL.
  bool degraded = false;
  /// Vertices moved by the refinement passes.
  std::uint64_t reassigned = 0;
  /// Wall-clock cost of the prepass scans (excluded from the paper's PT,
  /// which starts at the scoring pass; report it alongside).
  double seconds = 0.0;
};

/// Phase 1 + cluster packing. Consumes the stream from its current position
/// and reset()s it between refinement passes; callers reset() beforehand if
/// reusing streams. Where the stream stands once cluster_prepass returns or
/// throws is unspecified (the read-ahead may have read past the last record
/// clustered): reset() it before reading it again. A stream error is thrown
/// only after every earlier record was clustered. Deterministic for a given
/// stream order.
PrepassResult cluster_prepass(AdjacencyStream& stream,
                              const PartitionConfig& config,
                              const TwoPhaseOptions& options = {});

struct TwoPhaseRunResult {
  RunResult run;
  PrepassResult prepass;
};

/// The full SPNL+2PS pipeline: cluster_prepass, then a reset() and an SPNL
/// scoring pass with the hints injected as the logical table (plain SPNL
/// when the prepass degraded — run.partitioner_name tells which ran).
TwoPhaseRunResult two_phase_spnl_partition(
    AdjacencyStream& stream, const PartitionConfig& config,
    const TwoPhaseOptions& prepass_options = {}, SpnlOptions spnl_options = {});

}  // namespace spnl
