// Shared-memory parallel streaming partitioning (paper Sec. V-B).
//
// One reader thread copies adjacency lists, in stream order, into a small
// ring of reusable record slabs and publishes them by index. M worker
// threads claim a few consecutive indices with one fetch_add, read the
// records in place, compute SPNL/SPN scores against shared state (atomic
// route table, partition loads, concurrent Γ window) and place vertices. A
// slab is refilled only after every record in it is committed or parked.
// The paper adds the RCT (core/rct.hpp), which delays vertices with heavy
// in-flight dependencies so they can still profit from their in-neighbors'
// placements. It is off by default: with claim-based dispatch the parallel
// ECR stays within noise of the sequential run without it, and the table
// only costs time (docs/performance.md §5.1).
//
// Each worker keeps its load, logical and placement counts in local deltas,
// flushes them every few records and scores against the shared counters as
// of its last flush plus its own unflushed deltas, so one worker reproduces
// the sequential partitioner exactly. The Γ window base follows a completion
// low-watermark (the smallest id not yet placed) rather than the newest
// arrival, so delayed vertices never lose their Γ row to an eager slide.
//
// Quiesce (checkpoints, governor ladder steps) runs on the reader at its
// publish points (docs/performance.md §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "partition/partitioning.hpp"
#include "util/resource_governor.hpp"

namespace spnl {

/// Consecutive record indices a worker claims with one fetch_add.
inline constexpr std::size_t kParallelClaimRecords = 8;
/// The reader publishes records to the workers this many at a time (and at
/// the end of the stream). Checkpoints and governor samples are taken at
/// these publish points, so a checkpoint cursor is always a multiple of the
/// stride or the end of the stream. A multiple of kParallelClaimRecords, so
/// a claim never straddles a publish point.
inline constexpr std::size_t kParallelPublishStride = 64;

/// Deterministic straggler/pressure injection for the parallel pipeline —
/// the test harness for every watchdog recovery path.
struct StuckWorkerFault {
  unsigned worker = 0;
  /// Stall when this worker takes its Nth record (1-based).
  std::uint64_t at_pop = 1;
  /// false: stall between publish and claim — the watchdog steals and
  /// rescues the in-flight record, the worker later resumes (a transient
  /// freeze). true: wedge INSIDE the placement, which cannot be stolen; with
  /// every worker wedged this way the monitor aborts the pipeline.
  bool in_processing = false;
  /// Safety bound: the stall ends after this long even if nothing wakes it.
  double max_stall_seconds = 30.0;
};

struct SlowWorkerFault {
  unsigned worker = 0;
  double delay_seconds = 0.0;
  /// Sleep on every Nth record this worker takes (1 = every record), while
  /// scoring it: after the RCT registered the record and counted its
  /// dependencies, before the delay decision. The record stays in flight
  /// for the whole delay, as on a slow core, and overlaps the other
  /// workers' records.
  std::uint64_t every = 1;
};

struct ParallelFaultPlan {
  std::vector<StuckWorkerFault> stuck;
  std::vector<SlowWorkerFault> slow;
  /// Heap ballast allocated and touched for the whole run — co-located
  /// allocation pressure visible to the governor's RSS sampling.
  std::size_t ballast_bytes = 0;

  bool empty() const {
    return stuck.empty() && slow.empty() && ballast_bytes == 0;
  }
};

struct ParallelOptions {
  /// Worker thread count M (the reader is an extra thread).
  unsigned num_threads = 4;
  /// RCT capacity factor ε: the table holds ε·M entries (paper Sec. V-B).
  double epsilon = 2.0;
  /// Track in-flight dependencies with the RCT (paper Sec. V-B). Off by
  /// default: it showed no ECR gain beyond noise (docs/performance.md §5.1);
  /// kept for that ablation.
  bool use_rct = false;
  /// false = parallel SPN (no logical pre-assignment).
  bool use_locality = true;
  /// Heuristic parameters shared with the sequential SPNL.
  SpnlOptions spnl;
  /// Fault tolerance: at the first publish point past each multiple of
  /// checkpoint_every records the reader quiesces the pipeline (waits until
  /// every published record is committed or parked, every worker has flushed
  /// its deltas and none is mid-claim) and snapshots the shared state —
  /// route, loads, Γ window, logical counts, parked RCT records and the
  /// stream cursor — into checkpoint_path (atomic rename-on-write).
  /// 0 / empty disables.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  /// Restore a snapshot before streaming; the stream is fast-forwarded past
  /// the committed prefix. With one worker thread the resumed run's route is
  /// byte-identical to the uninterrupted run.
  std::string resume_from;
  /// Per-stage instrumentation sink (not owned; nullptr = off, zero hot-path
  /// cost). Each worker accumulates into a private PerfStats and merges it
  /// here after the pipeline joins, so stage nanos are summed across threads
  /// (kQueueWait additionally times each claim's wait for the reader to
  /// publish a claimable record).
  PerfStats* perf = nullptr;
  /// Pipeline watchdog: a worker whose heartbeat stalls past this many
  /// seconds has its in-flight record stolen and rescued by the monitor
  /// thread; when every worker is wedged mid-placement the run aborts with
  /// StreamAborted instead of hanging. <= 0 disables (the seed behavior).
  double watchdog_timeout_seconds = 0.0;
  /// Resource governor (not owned; nullptr = off). The reader samples the
  /// pipeline footprint (Γ window + route + counts + RCT + slab ring) at the
  /// first publish point past every sample_interval records and, on breach,
  /// quiesces the pipeline and steps the degradation ladder: repeatable
  /// Γ-window halving, then capacity-weighted hash fallback (coarse slide
  /// does not apply to the watermark-driven concurrent window and is
  /// skipped).
  ResourceGovernor* governor = nullptr;
  /// Deterministic fault injection (tests / --inject-faults).
  ParallelFaultPlan faults;
};

/// The RCT mutex for one parallel run: how often a table operation took it,
/// and how often it found it held. Both read 0 when the RCT is off.
struct ContentionReport {
  std::uint64_t rct_exclusive_contended = 0;
  std::uint64_t rct_exclusive_acquires = 0;
};

struct ParallelRunResult {
  std::vector<PartitionId> route;
  double partition_seconds = 0.0;
  std::size_t peak_partitioner_bytes = 0;
  /// Vertices parked at least once by the RCT.
  std::uint64_t delayed_vertices = 0;
  /// RCT registrations refused because the table was full: each is a vertex
  /// that streamed through untracked, silently losing its dependency delay.
  /// Persistently non-zero counts mean ε (epsilon) is too small for the
  /// worker count.
  std::uint64_t untracked_overflow = 0;
  /// Parked vertices force-placed after the stream ended (cyclic waits).
  std::uint64_t forced_vertices = 0;
  /// Snapshots written during this run (0 when checkpointing is off).
  std::uint64_t checkpoints_written = 0;
  /// Stream position the run was resumed from (0 for a fresh run).
  std::uint64_t resumed_at = 0;
  /// Watchdog bookkeeping: distinct workers ever declared stalled, and
  /// in-flight records the monitor stole and placed itself.
  std::uint64_t stalled_workers = 0;
  std::uint64_t rescued_records = 0;
  /// True when the watchdog declared the pipeline dead; the route is the
  /// valid partial route (kUnassigned holes for never-placed vertices).
  bool aborted = false;
  std::string abort_reason;
  /// Ladder transitions the resource governor applied.
  std::vector<DegradationEvent> degradations;
  /// RCT mutex totals.
  ContentionReport contention;
};

/// The watchdog declared the pipeline dead (every worker wedged past the
/// timeout). Carries the partial result: aborted/abort_reason are set and
/// `result.route` is the valid partial route.
class StreamAborted : public std::runtime_error {
 public:
  StreamAborted(const std::string& what, ParallelRunResult result)
      : std::runtime_error(what), result(std::move(result)) {}

  ParallelRunResult result;
};

/// Runs the parallel partitioner over the stream. The stream is consumed
/// from its current position by the internal reader thread. Throws
/// StreamAborted (carrying the partial result) when the watchdog declares
/// the pipeline dead.
ParallelRunResult run_parallel(AdjacencyStream& stream, const PartitionConfig& config,
                               const ParallelOptions& options);

}  // namespace spnl
