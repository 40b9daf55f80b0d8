// Common partitioning vocabulary: configuration, the streaming partitioner
// interface, and the shared greedy base class (capacity bookkeeping,
// hard-cap + tie-break selection) that LDG, FENNEL, SPN and SPNL build on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "graph/types.hpp"
#include "util/perf_stats.hpp"
#include "util/resource_governor.hpp"

namespace spnl {

/// Workload balance measure (Eqs. 1 and 2 of the paper).
enum class BalanceMode {
  kVertex,  ///< capacity counts vertices; bounds δv
  kEdge,    ///< capacity counts assigned out-edges; bounds δe
  kBoth,    ///< multi-constraint: bounds δv with `slack` AND δe with
            ///< `edge_slack` (how the paper configures XtraPuLP: δv=1.0,
            ///< δe=50)
};

struct PartitionConfig {
  PartitionId num_partitions = 2;
  BalanceMode balance = BalanceMode::kVertex;
  /// Capacity slack δ: each partition holds at most slack*|G|/K load units.
  /// The paper's measured δv of 1.0-1.2 corresponds to slack ≈ 1.1-1.2.
  double slack = 1.1;
  /// Edge-side slack, used only by BalanceMode::kBoth.
  double edge_slack = 4.0;
};

/// A one-pass streaming vertex partitioner. Vertices must each be offered
/// exactly once via place(); the decision is irrevocable (Sec. II).
class StreamingPartitioner {
 public:
  virtual ~StreamingPartitioner() = default;

  /// Decide the partition of v given its out-adjacency list, and commit it.
  virtual PartitionId place(VertexId v, std::span<const VertexId> out) = 0;

  /// The route table built so far (kUnassigned for unseen vertices).
  virtual const std::vector<PartitionId>& route() const = 0;

  /// Hands the route table to the caller when the run is over; the
  /// partitioner places nothing after it. The default copies route(), so a
  /// decorator that forwards route() stays correct; a partitioner that owns
  /// its table moves it out and is left with an empty route().
  virtual std::vector<PartitionId> take_route() { return route(); }

  /// Precise accounting of this partitioner's own data structures — the MC
  /// metric of the paper's Table IV.
  virtual std::size_t memory_footprint_bytes() const = 0;

  virtual std::string name() const = 0;

  /// Checkpoint support. A partitioner that overrides save_state/restore_state
  /// guarantees that an instance constructed with the same parameters and
  /// restored from a snapshot continues the stream with decisions identical
  /// to the uninterrupted run (the kill-and-resume determinism contract).
  virtual bool supports_checkpoint() const { return false; }
  virtual void save_state(StateWriter&) const {
    throw CheckpointError("save_state: " + name() + " does not support checkpoints");
  }
  virtual void restore_state(StateReader&) {
    throw CheckpointError("restore_state: " + name() +
                          " does not support checkpoints");
  }

  /// Attach a per-stage stats sink (nullptr detaches — the default). Only
  /// the instrumented partitioners (SPN/SPNL) record stage timings; others
  /// ignore the sink and the drivers still attribute stream-wait time.
  virtual void set_perf_stats(PerfStats*) {}

  /// Resource-governor hook: apply one rung of the degradation ladder and
  /// return true if the step actually freed/changed anything. kShrinkWindow
  /// is repeatable (each call halves the Γ window until W == 1); the other
  /// rungs are one-shot. The default — partitioners with no windowed state —
  /// has nothing to give back.
  virtual bool apply_degradation(DegradationStage) { return false; }

  /// The deepest degradation rung this partitioner is currently running at.
  virtual DegradationStage degradation_stage() const {
    return DegradationStage::kNone;
  }
};

/// Shared machinery for greedy streaming heuristics: the route table,
/// per-partition vertex/edge loads, the remaining-capacity penalty
/// w_t(i) = 1 - |P_i|/C of Algorithm 1, and deterministic best-partition
/// selection (hard capacity, ties to the least-loaded then lowest id).
class GreedyStreamingBase : public StreamingPartitioner {
 public:
  GreedyStreamingBase(VertexId num_vertices, EdgeId num_edges,
                      const PartitionConfig& config);

  const std::vector<PartitionId>& route() const override { return route_; }
  std::vector<PartitionId> take_route() override { return std::exchange(route_, {}); }
  std::size_t memory_footprint_bytes() const override;

  /// Base state (route + loads) with structural guards on n/m/K/balance.
  /// Derived partitioners with extra state call these first, then append.
  bool supports_checkpoint() const override { return true; }
  void save_state(StateWriter& out) const override;
  void restore_state(StateReader& in) override;

  void set_perf_stats(PerfStats* perf) override { perf_ = perf; }

  PartitionId num_partitions() const { return config_.num_partitions; }
  VertexId vertex_count(PartitionId i) const { return vertex_counts_[i]; }
  EdgeId edge_count(PartitionId i) const { return edge_counts_[i]; }

 protected:
  /// Current load of partition i under the configured balance mode. For
  /// kBoth this is the binding (relative) constraint: max of the vertex and
  /// edge utilizations scaled into the vertex capacity's units.
  double load(PartitionId i) const { return loads_[i]; }

  /// w_t(i) = 1 - load_i / C. May go slightly negative when a partition is
  /// at capacity; such partitions are excluded by pick_best anyway.
  double remaining_weight(PartitionId i) const { return weights_[i]; }

  bool is_full(PartitionId i) const { return load(i) >= capacity_; }

  /// Highest score among non-full partitions; ties broken by lower load,
  /// then lower id. Falls back to the globally least-loaded partition when
  /// every partition is full (keeps δ bounded by slack + one record).
  PartitionId pick_best(std::span<const double> scores) const;

  /// Record the decision: route, counts, and pid's load and weight.
  void commit(VertexId v, std::span<const VertexId> out, PartitionId pid);

  /// Recomputes loads_[i] and weights_[i] from partition i's counts.
  void update_load(PartitionId i);

  const PartitionConfig config_;
  const VertexId num_vertices_;
  const EdgeId num_edges_;
  const double capacity_;
  /// Edge-side capacity (kBoth only; 0 otherwise).
  const double edge_capacity_;

  std::vector<PartitionId> route_;
  std::vector<VertexId> vertex_counts_;
  std::vector<EdgeId> edge_counts_;
  /// load(i) and remaining_weight(i) of every partition, kept current by
  /// commit() and restore_state(): a partition's entries change only when
  /// its own counts do.
  std::vector<double> loads_;
  std::vector<double> weights_;
  /// Scratch score buffer reused across place() calls.
  mutable std::vector<double> scores_;
  /// Optional per-stage instrumentation sink (not owned; nullptr = off).
  PerfStats* perf_ = nullptr;
};

/// δ·|G|/K with |G| by balance mode (Algorithm 1, line 4 commentary).
double partition_capacity(VertexId num_vertices, EdgeId num_edges,
                          const PartitionConfig& config);

}  // namespace spnl
