// Sequential streaming driver: pumps a stream through a partitioner while
// measuring the paper's PT (first record load -> complete route table) and
// MC (partitioner structure bytes) metrics.
//
// Fault tolerance: the driver can snapshot the partitioner's full decision
// state (route, loads, Γ window, SPNL logical tables) plus the stream cursor
// every N placements, and a run started with
// StreamingCheckpointOptions::resume_from continues an interrupted run from
// the latest snapshot with a byte-identical final route.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "graph/adjacency_stream.hpp"
#include "partition/partitioning.hpp"

namespace spnl {

struct RunResult {
  std::string partitioner_name;
  std::vector<PartitionId> route;
  double partition_seconds = 0.0;   ///< PT
  std::size_t peak_partitioner_bytes = 0;  ///< MC (algorithm structures)
  VertexId vertices_placed = 0;
  /// Snapshots written during this run (0 when checkpointing is off).
  std::uint64_t checkpoints_written = 0;
  /// Stream position the run was resumed from (0 for a fresh run).
  std::uint64_t resumed_at = 0;
  /// Ladder transitions the resource governor applied (empty without a
  /// governor or when the run stayed within budget).
  std::vector<DegradationEvent> degradations;
  /// True when the run stopped early because the caller's stop flag was
  /// raised (graceful SIGINT/SIGTERM): the current record was finished, a
  /// final checkpoint was written when checkpointing is enabled, and
  /// `route` holds the consistent partial assignment.
  bool interrupted = false;
};

/// Checkpointing for run_streaming: snapshot the partitioner state into
/// `path` every `every` placements (0 = disabled), and optionally resume.
/// Every member has an initializer, so callers can name any subset.
struct StreamingCheckpointOptions {
  std::string path = {};
  std::uint64_t every = 0;
  /// Restore this snapshot before streaming and fast-forward the stream
  /// (which must be reset and emit the same record order as the original
  /// run) past the already-committed prefix; empty starts fresh. Throws
  /// CheckpointError on a corrupt/mismatched snapshot or if the stream is
  /// shorter than the snapshot cursor. A degraded snapshot restores the
  /// degraded shape (window size, slide mode, hash fallback), and the
  /// governor continues enforcement from that rung.
  std::string resume_from = {};
};

/// Drains the stream through the partitioner. The stream is consumed from
/// its current position; callers reset() beforehand if reusing streams.
/// The result takes the partitioner's route (StreamingPartitioner::
/// take_route), so a partitioner that owns its table has an empty route()
/// afterwards, also after an interrupted run.
/// `perf`, when non-null, is attached to the partitioner for per-stage
/// timings and additionally records stream-fetch time under kQueueWait;
/// detached again before returning. Instrumentation overhead when null is a
/// handful of untaken branches per record.
///
/// `governor`, when non-null and enabled, is sampled every
/// governor->options().sample_interval placements with the partitioner's
/// precise footprint; memory/deadline breaches step the degradation ladder
/// (DegradePolicy::kLadder), throw BudgetExceededError (kAbort), or are
/// recorded only (kOff). After a memory breach the ladder is stepped until
/// the footprint is back under budget or the ladder is exhausted, so the
/// budget holds at every subsequent sample point.
///
/// `stop`, when non-null, is polled after every placed record: once true
/// the driver finishes that record, writes a final snapshot (when
/// checkpointing is enabled) and returns with result.interrupted set — the
/// graceful-signal path of spnl_partition (util/shutdown.hpp) feeds the
/// process-global SIGINT/SIGTERM flag through here.
RunResult run_streaming(AdjacencyStream& stream, StreamingPartitioner& partitioner,
                        const StreamingCheckpointOptions& checkpoint = {},
                        PerfStats* perf = nullptr,
                        ResourceGovernor* governor = nullptr,
                        const std::atomic<bool>* stop = nullptr);

}  // namespace spnl
