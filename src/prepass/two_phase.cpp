#include "prepass/two_phase.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "graph/read_ahead_stream.hpp"
#include "partition/range_partitioner.hpp"
#include "util/timer.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

namespace {

constexpr std::uint32_t kNoCluster = ~0u;

/// Sparse per-record vote tally over cluster ids: O(out-degree) per record,
/// cleared through the touched list so the dense array is paid for once.
/// The array is a mapping, so only the pages of cluster ids in use become
/// resident.
/// tally() first gathers the cluster ids of the whole out-list, so the random
/// cluster_of loads are independent of one another, then counts them with a
/// branch-free push onto the touched list: unclustered neighbors vote into a
/// spare slot that is never touched.
class VoteCounter {
 public:
  explicit VoteCounter(std::uint32_t budget)
      : votes_(std::size_t{budget} + 1), none_(budget) {}

  /// Tallies the clustered out-neighbors of one record; clear() the tally
  /// before the next record's.
  void tally(std::span<const VertexId> out, const ZeroedArray<std::uint32_t>& cluster_of) {
    if (ids_.size() < out.size()) {
      ids_.resize(out.size());
      touched_.resize(out.size());
    }
    const VertexId n = static_cast<VertexId>(cluster_of.size());
    for (std::size_t j = 0; j < out.size(); ++j) {
      const VertexId u = out[j];
      ids_[j] = u < n ? std::min(cluster_of[u], none_) : none_;
    }
    std::size_t touched = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      const std::uint32_t c = ids_[j];
      touched_[touched] = c;
      touched += static_cast<std::size_t>((votes_[c]++ == 0) & (c != none_));
    }
    num_touched_ = touched;
  }

  std::uint32_t count(std::uint32_t cluster) const { return votes_[cluster]; }

  /// Highest-vote cluster passing `admit`; ties to the lower cluster id.
  /// kNoCluster when nothing passes. The maximum of votes << 32 | ~cluster
  /// is exactly that winner, and an admitted cluster's key is never 0.
  template <typename Admit>
  std::uint32_t best(Admit admit) const {
    std::uint64_t best_key = 0;
    for (std::size_t i = 0; i < num_touched_; ++i) {
      const std::uint32_t c = touched_[i];
      const std::uint64_t key = std::uint64_t{votes_[c]} << 32 | ~c;
      best_key = std::max(best_key, admit(c) ? key : 0);
    }
    return ~static_cast<std::uint32_t>(best_key);
  }

  void clear() {
    for (std::size_t i = 0; i < num_touched_; ++i) votes_[touched_[i]] = 0;
    votes_[none_] = 0;
    num_touched_ = 0;
  }

 private:
  ZeroedArray<std::uint32_t> votes_;  // one per cluster id, then none_'s
  std::uint32_t none_;                // the slot unclustered neighbors vote in
  std::vector<std::uint32_t> ids_;    // the gathered cluster ids of one record
  std::vector<std::uint32_t> touched_;
  std::size_t num_touched_ = 0;
};

}  // namespace

PrepassResult cluster_prepass(AdjacencyStream& stream,
                              const PartitionConfig& config,
                              const TwoPhaseOptions& options) {
  if (config.num_partitions == 0) {
    throw std::invalid_argument("cluster_prepass: K must be >= 1");
  }
  if (options.cluster_cap_factor <= 0.0) {
    throw std::invalid_argument("cluster_prepass: cap factor must be > 0");
  }
  if (options.refine_passes < 0) {
    throw std::invalid_argument("cluster_prepass: refine_passes must be >= 0");
  }
  const Timer timer;
  const VertexId n = stream.num_vertices();
  const PartitionId k = config.num_partitions;
  PrepassResult result;
  if (n == 0) {
    result.seconds = timer.seconds();
    return result;
  }

  const std::uint32_t budget =
      options.max_clusters != 0
          ? options.max_clusters
          : std::max<std::uint32_t>(64, n / 4 + k);
  const auto cap = std::max<VertexId>(
      2, static_cast<VertexId>(options.cluster_cap_factor * n / k));

  ZeroedArray<std::uint32_t> cluster_of(n);
  std::fill_n(cluster_of.data(), n, kNoCluster);
  std::vector<VertexId> cluster_size;
  cluster_size.reserve(std::min<std::uint32_t>(budget, 1 << 16));
  VoteCounter votes(budget);
  // Every scan reads through it; leaving this function ends its pass.
  ReadAheadStream records(stream);

  // Initial scan: join the majority cluster of the already-clustered
  // out-neighbors (respecting the cap), else found a new cluster; then seed
  // still-unclustered out-neighbors into the decided cluster.
  while (auto record = records.next()) {
    const VertexId v = record->id;
    if (v >= n) {
      throw std::invalid_argument("cluster_prepass: stream record " +
                                  std::to_string(v) + " out of range");
    }
    std::uint32_t home = cluster_of[v];
    if (home == kNoCluster) {
      votes.tally(record->out, cluster_of);
      home = votes.best(
          [&](std::uint32_t c) { return cluster_size[c] < cap; });
      votes.clear();
      if (home == kNoCluster) {
        if (cluster_size.size() >= budget) {
          // Cluster-id budget overflow: declare the prepass degraded and let
          // the caller fall back to plain SPNL — never crash, never return a
          // half-built hint table.
          result.degraded = true;
          result.num_clusters = static_cast<std::uint32_t>(cluster_size.size());
          result.seconds = timer.seconds();
          return result;
        }
        home = static_cast<std::uint32_t>(cluster_size.size());
        cluster_size.push_back(0);
      }
      cluster_of[v] = home;
      ++cluster_size[home];
    }
    for (const VertexId u : record->out) {
      if (u < n && u != v && cluster_of[u] == kNoCluster &&
          cluster_size[home] < cap) {
        cluster_of[u] = home;
        ++cluster_size[home];
      }
    }
  }

  // Refinement restreams: move each vertex to its majority cluster when that
  // strictly beats the current one (cap still enforced). Damps the damage
  // hostile stream orders do to the first scan's early, vote-less decisions.
  for (int pass = 0; pass < options.refine_passes; ++pass) {
    records.reset();
    while (auto record = records.next()) {
      const VertexId v = record->id;
      const std::uint32_t home = cluster_of[v];
      votes.tally(record->out, cluster_of);
      const std::uint32_t target = votes.best([&](std::uint32_t c) {
        return c == home || cluster_size[c] < cap;
      });
      if (target != kNoCluster && target != home &&
          votes.count(target) > votes.count(home)) {
        --cluster_size[home];
        ++cluster_size[target];
        cluster_of[v] = target;
        ++result.reassigned;
      }
      votes.clear();
    }
  }

  // Cluster packing: largest cluster first onto the least-loaded partition
  // (ties to the lower partition id) — the standard 2PS phase-2 seed.
  const auto num_clusters = static_cast<std::uint32_t>(cluster_size.size());
  std::vector<std::uint32_t> by_size(num_clusters);
  std::iota(by_size.begin(), by_size.end(), 0u);
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return cluster_size[a] > cluster_size[b];
                   });
  std::vector<VertexId> partition_load(k, 0);
  std::vector<PartitionId> partition_of_cluster(num_clusters, 0);
  for (const std::uint32_t c : by_size) {
    PartitionId target = 0;
    for (PartitionId i = 1; i < k; ++i) {
      if (partition_load[i] < partition_load[target]) target = i;
    }
    partition_of_cluster[c] = target;
    partition_load[target] += cluster_size[c];
  }

  // Emit per-vertex hints. A vertex the stream never mentioned (possible on
  // hardened streams that quarantined its record) keeps the range default so
  // the hint table is always total.
  const RangeTable fallback(n, k);
  result.hints.reserve(n);
  advise_huge_pages(result.hints);
  result.hints.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.hints[v] = cluster_of[v] == kNoCluster
                          ? fallback.partition_of(v)
                          : partition_of_cluster[cluster_of[v]];
  }
  result.num_clusters = num_clusters;
  result.seconds = timer.seconds();
  return result;
}

TwoPhaseRunResult two_phase_spnl_partition(
    AdjacencyStream& stream, const PartitionConfig& config,
    const TwoPhaseOptions& prepass_options, SpnlOptions spnl_options) {
  TwoPhaseRunResult result;
  result.prepass = cluster_prepass(stream, config, prepass_options);
  stream.reset();

  const bool use_hints =
      !result.prepass.degraded && !result.prepass.hints.empty();
  if (use_hints) spnl_options.logical_hints = &result.prepass.hints;
  SpnlPartitioner partitioner(stream.num_vertices(), stream.num_edges(),
                              config, spnl_options);
  result.run = run_streaming(stream, partitioner);
  result.run.partitioner_name = use_hints ? "SPNL+2PS" : "SPNL";
  return result;
}

}  // namespace spnl
