#include "partition/driver.hpp"

#include <algorithm>
#include <optional>

#include "util/timer.hpp"

namespace spnl {

namespace {

constexpr const char* kSeqTag = "seq-driver";

/// Serializes driver progress + partitioner state into one payload.
StateWriter snapshot_sequential(const StreamingPartitioner& partitioner,
                                std::uint64_t placed) {
  StateWriter out;
  out.put_string(kSeqTag);
  out.put_string(partitioner.name());
  out.put_u64(placed);
  partitioner.save_state(out);
  return out;
}

/// Samples the footprint the budget is charged against and, on a breach,
/// lets the governor step the partitioner down the ladder. The stream's own
/// heap (read/decode buffers) counts alongside the partitioner's structures;
/// it cannot degrade, so the ladder only ever shrinks the partitioner side.
void enforce_budget(ResourceGovernor& governor, StreamingPartitioner& partitioner,
                    const AdjacencyStream& stream, std::uint64_t placed) {
  const auto bytes = [&] {
    return partitioner.memory_footprint_bytes() + stream.memory_footprint_bytes();
  };
  const auto breach = governor.sample(bytes());
  if (!breach || !governor.ladder_open()) return;
  governor.respond(
      *breach, placed,
      [&](DegradationStage stage) { return partitioner.apply_degradation(stage); },
      bytes);
}

/// Pumps records from the stream, checkpointing on cadence. `placed` carries
/// the restored prefix count on resume so cadence stays aligned with the
/// uninterrupted run. Stream fetch time is billed to kQueueWait (the
/// sequential analogue of the parallel driver's queue pop).
void drain(AdjacencyStream& stream, StreamingPartitioner& partitioner,
           Checkpointer& checkpointer, std::uint64_t placed, RunResult& result,
           PerfStats* perf, ResourceGovernor* governor,
           const std::atomic<bool>* stop) {
  const bool governed = governor != nullptr && governor->enabled();
  for (;;) {
    std::optional<VertexRecord> record;
    {
      PerfScope t(perf, PerfStage::kQueueWait);
      record = stream.next();
    }
    if (!record) break;
    partitioner.place(record->id, record->out);
    ++placed;
    ++result.vertices_placed;
    if (governed && governor->due(placed)) {
      enforce_budget(*governor, partitioner, stream, placed);
    }
    if (checkpointer.due(placed)) {
      checkpointer.write(snapshot_sequential(partitioner, placed));
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      // Graceful interruption: the record in flight was finished above, so
      // the partitioner state is at a record boundary. A final snapshot
      // (when configured) makes the interruption resumable; the caller sees
      // interrupted=true and a consistent partial route.
      if (checkpointer.enabled() && !checkpointer.due(placed)) {
        checkpointer.write(snapshot_sequential(partitioner, placed));
      }
      result.interrupted = true;
      break;
    }
  }
  result.checkpoints_written = checkpointer.snapshots_taken();
  if (governor != nullptr) result.degradations = governor->events();
}

/// Attaches the sink for the duration of a driver call, detaching on every
/// exit path so the partitioner never outlives its borrowed PerfStats.
class ScopedPerfAttach {
 public:
  ScopedPerfAttach(StreamingPartitioner& partitioner, PerfStats* perf)
      : partitioner_(partitioner), attached_(perf != nullptr) {
    if (attached_) partitioner_.set_perf_stats(perf);
  }
  ~ScopedPerfAttach() {
    if (attached_) partitioner_.set_perf_stats(nullptr);
  }

 private:
  StreamingPartitioner& partitioner_;
  bool attached_;
};

}  // namespace

RunResult run_streaming(AdjacencyStream& stream, StreamingPartitioner& partitioner,
                        const StreamingCheckpointOptions& checkpoint,
                        PerfStats* perf, ResourceGovernor* governor,
                        const std::atomic<bool>* stop) {
  RunResult result;
  result.partitioner_name = partitioner.name();
  Checkpointer checkpointer(checkpoint.path, checkpoint.every);
  if (checkpointer.enabled() && !partitioner.supports_checkpoint()) {
    throw CheckpointError("run_streaming: " + partitioner.name() +
                          " does not support checkpoints");
  }
  std::uint64_t placed = 0;
  if (!checkpoint.resume_from.empty()) {
    StateReader in = read_checkpoint_file(checkpoint.resume_from);
    in.expect_string(kSeqTag, "driver kind");
    in.expect_string(partitioner.name(), "partitioner");
    placed = in.get_u64();
    partitioner.restore_state(in);
    result.resumed_at = placed;
    // A degraded snapshot restored a degraded partitioner: sync the
    // governor's ladder cursor so enforcement continues from the restored
    // rung instead of replaying milder rungs that no longer apply.
    if (governor != nullptr) governor->set_stage(partitioner.degradation_stage());
  }

  ScopedPerfAttach attach(partitioner, perf);
  Timer timer;
  // Fast-forward past the committed prefix: those records' placements are
  // already in the restored route table.
  for (std::uint64_t i = 0; i < placed; ++i) {
    if (!stream.next()) {
      throw CheckpointError(
          "run_streaming: stream ended before the snapshot cursor (" +
          std::to_string(placed) + " records)");
    }
  }
  result.vertices_placed = static_cast<VertexId>(placed);
  drain(stream, partitioner, checkpointer, placed, result, perf, governor, stop);
  result.partition_seconds = timer.seconds();
  // Streaming structures only grow or stay flat — except when the governor
  // shrinks them, in which case its samples saw the true peak. Measured
  // before the route leaves the partitioner.
  result.peak_partitioner_bytes =
      std::max(partitioner.memory_footprint_bytes(),
               governor != nullptr ? governor->peak_partitioner_bytes() : 0);
  result.route = partitioner.take_route();
  return result;
}

}  // namespace spnl
