// Re-streaming partitioning (Nishimura & Ugander, KDD'13), the related-work
// extension of Sec. III-B: the stream is replayed for several passes and each
// pass scores a vertex's neighbors by their assignment in the PREVIOUS pass
// (a full route table, not just the prefix), progressively refining quality
// at the cost of extra scans. Refinement passes use the ReLDG rule; pass 1
// is LDG or SPNL.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "partition/partitioning.hpp"
#include "util/perf_stats.hpp"
#include "util/resource_governor.hpp"

namespace spnl {

struct RestreamOptions {
  /// Total passes including the initial one; 1 = plain single-pass.
  int passes = 3;
  /// Partitioner for pass 1: LDG or SPNL.
  bool seed_with_spnl = false;
  /// Optional logical-hint table for the SPNL seed pass (requires
  /// seed_with_spnl; see SpnlOptions::logical_hints for the contract).
  /// Borrowed — must outlive the call. Typically the 2PS prepass output.
  const std::vector<PartitionId>* spnl_hints = nullptr;
  /// Handed to every pass's run_streaming (borrowed; nullptr = off): the
  /// stage timings add up over the passes, and one governor's budget,
  /// deadline and ladder span the whole run.
  PerfStats* perf = nullptr;
  ResourceGovernor* governor = nullptr;
};

struct RestreamResult {
  std::vector<PartitionId> route;
  /// PT summed over every pass.
  double partition_seconds = 0.0;
  /// MC: the largest pass footprint, a refinement pass counting the
  /// previous pass's route table it scores against.
  std::size_t peak_bytes = 0;
  /// The governor's ladder transitions over all passes.
  std::vector<DegradationEvent> degradations;
};

/// Runs `passes` scans over the stream (reset() between passes), each
/// through run_streaming, and returns the final route table.
RestreamResult restream_partition(AdjacencyStream& stream,
                                  const PartitionConfig& config,
                                  const RestreamOptions& options = {});

}  // namespace spnl
