#include "core/parallel_driver.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/concurrent_gamma.hpp"
#include "core/rct.hpp"
#include "core/score_kernel.hpp"
#include "core/watchdog.hpp"
#include "partition/range_partitioner.hpp"
#include "util/bounded_queue.hpp"
#include "util/timer.hpp"

namespace spnl {

namespace {

/// Tracks the contiguous prefix of placed vertex ids. The Γ window base
/// follows this low-watermark so a delayed vertex's row survives its delay.
///
/// A flag ring of atomics; the watermark advances with a CAS loop — the CAS
/// winner retires the slot, losers just reload and re-test, so no worker
/// ever blocks here.
///
/// Ring-aliasing caveat: the ring spans the maximum in-flight id spread, so
/// two live ids should never share a slot. If sizing is ever violated, a
/// lost or phantom mark can stall the watermark — which only stalls the Γ
/// slide (heuristic staleness), never the pipeline: quiesce and termination
/// are driven by placed_total.
class WatermarkTracker {
 public:
  explicit WatermarkTracker(std::size_t span)
      : mask_(std::bit_ceil(std::max<std::size_t>(span, 1)) - 1),  // no divides
        flags_(mask_ + 1) {
    for (auto& f : flags_) f.store(0, std::memory_order_relaxed);
  }

  /// Mark id placed; returns the new watermark (first unplaced id).
  VertexId mark_done(VertexId id) {
    // release pairs with the acquire flag loads below: whichever thread
    // advances the watermark past `id` has observed this store.
    flags_[id & mask_].store(1, std::memory_order_release);
    VertexId w = watermark_.load(std::memory_order_acquire);
    while (flags_[w & mask_].load(std::memory_order_acquire) != 0) {
      if (watermark_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        // CAS winner owns slot w's retirement; the slot's next occupant is
        // at least w + span, which sizing guarantees is not yet in flight.
        flags_[w & mask_].store(0, std::memory_order_relaxed);
        ++w;
      }
      // On failure w was reloaded by the CAS; the loop re-tests its flag.
    }
    return w;
  }

 private:
  const std::size_t mask_;
  std::vector<std::atomic<std::uint8_t>> flags_;
  std::atomic<VertexId> watermark_{0};
};

/// Per-partition load counters, one cache line per partition: every commit
/// does three fetch_adds on its target partition, and with the old parallel
/// arrays (vertex/edge/logical in separate vectors) up to 8 partitions'
/// counters shared one line, so workers committing to DIFFERENT partitions
/// still ping-ponged it. One aligned block per partition makes cross-
/// partition commits contention-free.
struct alignas(64) PartitionLoad {
  std::atomic<std::uint64_t> vertices{0};
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> logical{0};
};

struct SharedState {
  SharedState(VertexId n, EdgeId m, const PartitionConfig& config,
              const ParallelOptions& options, std::uint32_t shards)
      : config(config),
        num_vertices(n),
        capacity(partition_capacity(n, m, config)),
        route(n),
        loads(config.num_partitions),
        gamma(n, config.num_partitions, shards),
        logical(n, config.num_partitions),
        options(options) {
    for (auto& r : route) r.store(kUnassigned, std::memory_order_relaxed);
    for (PartitionId i = 0; i < config.num_partitions; ++i) {
      loads[i].logical.store(options.use_locality ? logical.range_size(i) : 0,
                             std::memory_order_relaxed);
    }
  }

  const PartitionConfig config;
  const VertexId num_vertices;
  const double capacity;
  std::vector<std::atomic<PartitionId>> route;
  std::vector<PartitionLoad> loads;
  ConcurrentGammaWindow gamma;
  RangeTable logical;
  const ParallelOptions options;
  /// On its own line: every worker bumps it on every commit, and the
  /// eta/quiesce readers should not drag the delayed/forced lines with it.
  alignas(64) std::atomic<std::uint64_t> placed_total{0};
  alignas(64) std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> forced{0};
  /// Last-rung governor degradation: replace scoring with a deterministic
  /// capacity-weighted hash vote (and stop feeding the Γ window).
  std::atomic<bool> hash_fallback{false};
};

/// score_record's read policy over the shared state (see score_kernel.hpp):
/// relaxed atomic route, counter and Γ reads. kBoth balance degrades to the
/// vertex constraint (the paper's primary one; racy dual-capacity checks are
/// not worth it).
struct SharedReads {
  using Row = const std::atomic<std::uint32_t>*;

  PartitionId num_partitions() const { return state.config.num_partitions; }
  VertexId num_vertices() const { return state.num_vertices; }
  PartitionId route(VertexId u) const {
    return state.route[u].load(std::memory_order_relaxed);
  }
  bool locality() const { return state.options.use_locality; }
  PartitionId logical_of(VertexId u) const { return state.logical.partition_of(u); }
  void prefetch(VertexId u) const { prefetch_read(&state.route[u]); }

  bool gamma_row(VertexId u, Row& row) const {
    row = state.gamma.row(u);
    return row != nullptr;
  }
  std::uint32_t gamma(Row row, std::size_t i) const {
    return row[i].load(std::memory_order_relaxed);
  }

  void snapshot(std::span<double> loads, std::span<double> eta) const {
    const ParallelOptions& o = state.options;
    const EtaPolicy policy = o.use_locality ? o.spnl.eta_policy : EtaPolicy::kZero;
    const bool by_edges = state.config.balance == BalanceMode::kEdge;
    const double placed =  // every commit writes this line: read it only if needed
        policy == EtaPolicy::kLinear
            ? static_cast<double>(state.placed_total.load(std::memory_order_relaxed))
            : 0.0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const PartitionLoad& c = state.loads[i];
      const double pt = static_cast<double>(c.vertices.load(std::memory_order_relaxed));
      const double lt = static_cast<double>(c.logical.load(std::memory_order_relaxed));
      loads[i] = by_edges ? static_cast<double>(c.edges.load(std::memory_order_relaxed))
                          : pt;
      eta[i] = eta_value(policy, o.spnl.eta0, lt, pt, placed, state.num_vertices);
    }
  }

  const SharedState& state;
};

class Worker {
 public:
  /// `perf` is a caller-owned, caller-thread-local sink (PerfStats is not
  /// thread-safe); nullptr disables instrumentation. `watchdog`+`index`
  /// route the per-commit heartbeat (nullptr = no watchdog, e.g. the
  /// monitor's own rescue worker).
  Worker(SharedState& state, Rct* rct, WatermarkTracker& watermark,
         PerfStats* perf = nullptr, PipelineWatchdog* watchdog = nullptr,
         unsigned index = 0)
      : state_(state),
        rct_(rct),
        watermark_(watermark),
        perf_(perf),
        watchdog_(watchdog),
        index_(index),
        reads_{state},
        params_{state.options.spnl.lambda, state.capacity,
                state.options.spnl.estimator == InNeighborEstimator::kNeighborSum} {}

  /// Score + pick through the shared scoring kernel; the degraded last rung
  /// replaces the score with a deterministic hash vote.
  PartitionId choose(const OwnedVertexRecord& record) {
    PerfScope scope(perf_, PerfStage::kScore);
    if (state_.hash_fallback.load(std::memory_order_relaxed)) {
      return hash_vote_pick(reads_, params_, record.id, scratch_);
    }
    return score_record(reads_, params_, record.id, record.out, scratch_);
  }

  void commit(const OwnedVertexRecord& record, PartitionId pid) {
    {
      PerfScope t(perf_, PerfStage::kCommit);
      state_.route[record.id].store(pid, std::memory_order_relaxed);
      state_.loads[pid].vertices.fetch_add(1, std::memory_order_relaxed);
      state_.loads[pid].edges.fetch_add(record.out.size(), std::memory_order_relaxed);
      state_.placed_total.fetch_add(1, std::memory_order_relaxed);
      if (state_.options.use_locality) {
        const PartitionId lp = state_.logical.partition_of(record.id);
        state_.loads[lp].logical.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (!state_.hash_fallback.load(std::memory_order_relaxed)) {
      // Membership is re-checked by id, not taken from the scoring stash:
      // other workers may slide the shared window between choose() and
      // commit(). (Hash fallback stops feeding the window — the scores never
      // read it again.)
      PerfScope t(perf_, PerfStage::kGammaIncrement);
      state_.gamma.increment_many(pid, record.out);
    }
    {
      PerfScope t(perf_, PerfStage::kWindowAdvance);
      state_.gamma.advance_to(watermark_.mark_done(record.id));
    }
    // The liveness signal the monitor watches: any commit proves progress,
    // including mid-chain commits of RCT-released records.
    if (watchdog_ != nullptr) watchdog_->heartbeat(index_);
  }

  /// Place a record and everything its placement releases from the RCT.
  void place_chain(OwnedVertexRecord record) {
    std::vector<OwnedVertexRecord> stack;
    stack.push_back(std::move(record));
    while (!stack.empty()) {
      OwnedVertexRecord current = std::move(stack.back());
      stack.pop_back();
      commit(current, choose(current));
      for (auto& r : rct_->on_placed(current.id, current.out)) {
        stack.push_back(std::move(r));
      }
    }
  }

  void process(OwnedVertexRecord record) {
    if (rct_ == nullptr) {
      commit(record, choose(record));
      return;
    }
    const bool tracked = rct_->register_vertex(record.id);
    // v's out-neighbors still in flight would see a richer Γ row if v were
    // placed first: count the dependency (a no-op for untracked ids). The
    // hash-fallback rung reads no Γ, so it counts none.
    if (!state_.hash_fallback.load(std::memory_order_relaxed)) {
      for (VertexId u : record.out) {
        if (u != record.id) rct_->bump_if_present(u);
      }
    }
    const PartitionId pid = choose(record);
    // park() only consumes the record on success; with the parked set full
    // the record is placed now with the score already computed.
    if (tracked && rct_->should_delay(record.id) && rct_->park(std::move(record))) {
      state_.delayed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    commit(record, pid);
    for (auto& r : rct_->on_placed(record.id, record.out)) place_chain(std::move(r));
  }

 private:
  SharedState& state_;
  Rct* rct_;
  WatermarkTracker& watermark_;
  PerfStats* perf_;
  PipelineWatchdog* watchdog_;
  unsigned index_;
  SharedReads reads_;
  RecordParams params_;
  RecordScratch<SharedReads::Row> scratch_;
};

constexpr const char* kParTag = "par-driver";

/// Serializes the quiesced pipeline: stream cursor, configuration guards,
/// shared tables, Γ window and the parked RCT records. Callers must hold the
/// pipeline's exclusive lock (no worker mid-placement).
StateWriter snapshot_parallel(const SharedState& state, const Rct& rct,
                              std::uint32_t shards, std::uint64_t produced) {
  StateWriter out;
  out.put_string(kParTag);
  out.put_u64(produced);
  out.put_u32(state.num_vertices);
  out.put_u32(state.config.num_partitions);
  out.put_u32(static_cast<std::uint32_t>(state.config.balance));
  out.put_u32(shards);
  out.put_u32(state.options.use_rct ? 1 : 0);
  out.put_u32(state.options.use_locality ? 1 : 0);
  out.put_u32(static_cast<std::uint32_t>(state.options.spnl.estimator));
  out.put_u32(static_cast<std::uint32_t>(state.options.spnl.eta_policy));

  std::vector<PartitionId> route(state.num_vertices);
  for (VertexId v = 0; v < state.num_vertices; ++v) {
    route[v] = state.route[v].load(std::memory_order_relaxed);
  }
  out.put_vec(route);
  // Serialized as three flat vectors — the on-disk format predates the
  // cache-line-per-partition layout and must stay byte-compatible.
  const PartitionId k = state.config.num_partitions;
  std::vector<std::uint64_t> counts(k);
  for (PartitionId i = 0; i < k; ++i) counts[i] = state.loads[i].vertices.load();
  out.put_vec(counts);
  for (PartitionId i = 0; i < k; ++i) counts[i] = state.loads[i].edges.load();
  out.put_vec(counts);
  for (PartitionId i = 0; i < k; ++i) counts[i] = state.loads[i].logical.load();
  out.put_vec(counts);
  out.put_u64(state.placed_total.load());
  out.put_u64(state.delayed.load());
  out.put_u64(state.forced.load());
  out.put_u32(state.hash_fallback.load(std::memory_order_relaxed) ? 1 : 0);
  state.gamma.save(out);

  const auto parked = rct.snapshot_parked();
  out.put_u64(parked.size());
  for (const auto& p : parked) {
    out.put_u32(p.id);
    out.put_u32(p.counter);
    out.put_vec(p.out);
  }
  return out;
}

/// Restores a snapshot into freshly constructed pipeline state; returns the
/// stream cursor (records already consumed by the checkpointed run).
std::uint64_t restore_parallel(const std::string& path, SharedState& state, Rct& rct,
                               WatermarkTracker& watermark, std::uint32_t shards) {
  StateReader in = read_checkpoint_file(path);
  in.expect_string(kParTag, "driver kind");
  const std::uint64_t produced = in.get_u64();
  in.expect_u32(state.num_vertices, "vertex count");
  in.expect_u32(state.config.num_partitions, "partition count");
  in.expect_u32(static_cast<std::uint32_t>(state.config.balance), "balance mode");
  in.expect_u32(shards, "gamma shard count");
  in.expect_u32(state.options.use_rct ? 1 : 0, "use_rct");
  in.expect_u32(state.options.use_locality ? 1 : 0, "use_locality");
  in.expect_u32(static_cast<std::uint32_t>(state.options.spnl.estimator), "estimator");
  in.expect_u32(static_cast<std::uint32_t>(state.options.spnl.eta_policy),
                "eta policy");

  const auto route = in.get_vec<PartitionId>();
  const auto vertex_counts = in.get_vec<std::uint64_t>();
  const auto edge_counts = in.get_vec<std::uint64_t>();
  const auto logical_counts = in.get_vec<std::uint64_t>();
  const PartitionId k = state.config.num_partitions;
  if (route.size() != state.num_vertices || vertex_counts.size() != k ||
      edge_counts.size() != k || logical_counts.size() != k) {
    throw CheckpointError("run_parallel: snapshot table sizes do not match");
  }
  for (VertexId v = 0; v < state.num_vertices; ++v) {
    state.route[v].store(route[v], std::memory_order_relaxed);
  }
  for (PartitionId i = 0; i < k; ++i) {
    state.loads[i].vertices.store(vertex_counts[i], std::memory_order_relaxed);
    state.loads[i].edges.store(edge_counts[i], std::memory_order_relaxed);
    state.loads[i].logical.store(logical_counts[i], std::memory_order_relaxed);
  }
  state.placed_total.store(in.get_u64(), std::memory_order_relaxed);
  state.delayed.store(in.get_u64(), std::memory_order_relaxed);
  state.forced.store(in.get_u64(), std::memory_order_relaxed);
  state.hash_fallback.store(in.get_u32() != 0, std::memory_order_relaxed);
  state.gamma.restore(in);

  const std::uint64_t parked_count = in.get_u64();
  std::vector<Rct::ParkedState> parked;
  parked.reserve(parked_count);
  for (std::uint64_t i = 0; i < parked_count; ++i) {
    Rct::ParkedState p;
    p.id = in.get_u32();
    p.counter = in.get_u32();
    p.out = in.get_vec<VertexId>();
    parked.push_back(std::move(p));
  }
  if (!parked.empty() && !state.options.use_rct) {
    throw CheckpointError("run_parallel: snapshot has parked records but RCT is off");
  }
  rct.restore_parked(std::move(parked));

  // Rebuild the completion low-watermark by replaying placed ids in
  // increasing order — the same marks the live run would have set.
  for (VertexId v = 0; v < state.num_vertices; ++v) {
    if (route[v] != kUnassigned) watermark.mark_done(v);
  }
  return produced;
}

}  // namespace

std::size_t validated_batch_size(std::int64_t requested, std::size_t queue_capacity) {
  if (requested < 1) {
    throw std::invalid_argument("batch size must be >= 1 (got " +
                                std::to_string(requested) + ")");
  }
  return std::min(static_cast<std::size_t>(requested),
                  std::max<std::size_t>(queue_capacity, 1));
}

ParallelRunResult run_parallel(AdjacencyStream& stream, const PartitionConfig& config,
                               const ParallelOptions& options) {
  if (options.num_threads == 0) {
    throw std::invalid_argument("run_parallel: need at least one worker");
  }
  const std::size_t batch_size = validated_batch_size(
      options.batch_size > static_cast<std::size_t>(
                               std::numeric_limits<std::int64_t>::max())
          ? std::numeric_limits<std::int64_t>::max()
          : static_cast<std::int64_t>(options.batch_size),
      options.queue_capacity);
  const VertexId n = stream.num_vertices();
  const EdgeId m = stream.num_edges();
  const std::uint32_t shards =
      options.spnl.num_shards == 0
          ? GammaWindow::recommended_shards(n, config.num_partitions)
          : options.spnl.num_shards;

  SharedState state(n, m, config, options, shards);
  const std::uint32_t rct_shards = Rct::recommended_shards(options.num_threads);
  // ε·M entries total — the paper's sizing. Admission is global and shard
  // tables grow on demand, so no per-stripe floor is needed; an undersized ε
  // genuinely refuses registrations (surfaced as untracked_overflow).
  const auto rct_capacity = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(options.epsilon * options.num_threads)),
      1);
  Rct rct(rct_capacity, rct_shards);
  // The watermark ring must span the maximum in-flight id spread: the queue,
  // every worker's popped-but-unprocessed local batch, and the parked RCT
  // records.
  WatermarkTracker watermark(options.queue_capacity + rct_capacity +
                             options.num_threads * batch_size + 16);
  BoundedQueue<OwnedVertexRecord> queue(options.queue_capacity);

  Checkpointer checkpointer(options.checkpoint_path, options.checkpoint_every);
  std::uint64_t resumed_at = 0;
  if (!options.resume_from.empty()) {
    resumed_at = restore_parallel(options.resume_from, state, rct, watermark, shards);
    // Fast-forward past the committed prefix; those records' placements are
    // already in the restored route (parked ones re-park from the snapshot).
    for (std::uint64_t i = 0; i < resumed_at; ++i) {
      if (!stream.next()) {
        throw CheckpointError(
            "run_parallel: stream ended before the snapshot cursor (" +
            std::to_string(resumed_at) + " records)");
      }
    }
  }
  // With one worker the record being placed is the only one in flight, so
  // no counter can leave zero and nothing ever parks: the table would be
  // pure per-record cost. It stays on for parked records a resumed snapshot
  // brought along, which still wait on their counters.
  Rct* rct_ptr =
      options.use_rct && (options.num_threads > 1 || rct.parked_size() > 0) ? &rct
                                                                             : nullptr;

  // Workers hold the pipeline lock shared for the span of each placement;
  // the producer takes it exclusively to quiesce for a snapshot or a
  // governor ladder step. A record popped but not yet locked is detected by
  // the accounting check below (committed + parked < produced), so a quiesce
  // can never observe a half-applied placement.
  std::shared_mutex pipeline_mutex;
  std::uint64_t produced = resumed_at;

  // Injected allocation pressure: touched so the pages are resident and the
  // governor's RSS sample actually sees them.
  std::vector<char> ballast(options.faults.ballast_bytes, 0);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;

  // Watchdog + monitor-thread rescue path. The rescuer bypasses the RCT: a
  // stolen record was taken before its worker registered it anywhere, so a
  // plain choose+commit under the shared pipeline lock is the complete
  // placement. The monitor is a single thread, so the rescuer needs no
  // further synchronization.
  Worker rescuer(state, nullptr, watermark);
  std::optional<PipelineWatchdog> watchdog;
  PipelineWatchdog* wd = nullptr;
  if (options.watchdog_timeout_seconds > 0.0) {
    watchdog.emplace(
        options.num_threads,
        PipelineWatchdog::Options{options.watchdog_timeout_seconds},
        [&](unsigned, OwnedVertexRecord record) {
          std::shared_lock lock(pipeline_mutex);
          const PartitionId pid = rescuer.choose(record);
          rescuer.commit(record, pid);
        },
        [&] { queue.abort(); });
    wd = &*watchdog;
    wd->start();
  }

  // Run `fn` with the pipeline quiesced (exclusive lock, every produced
  // record committed or parked). Returns false without running fn if the
  // pipeline aborted while waiting — a wedged worker would otherwise spin
  // this loop forever.
  auto quiesce = [&](const std::function<void()>& fn) -> bool {
    for (;;) {
      if (wd != nullptr && wd->aborted()) return false;
      {
        std::unique_lock lock(pipeline_mutex);
        const std::uint64_t accounted =
            state.placed_total.load(std::memory_order_acquire) + rct.parked_size();
        if (accounted == produced) {
          fn();
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  // The governor's MC sample: every byte the parallel partitioner itself
  // holds (Γ window, route, load counters, RCT) plus the input stream's own
  // read and decode buffers.
  auto pipeline_bytes = [&]() -> std::size_t {
    return state.gamma.memory_footprint_bytes() +
           state.route.size() * sizeof(std::atomic<PartitionId>) +
           state.loads.size() * sizeof(PartitionLoad) +
           rct.memory_footprint_bytes() + stream.memory_footprint_bytes();
  };

  ResourceGovernor* governor = options.governor;

  // One rung against the quiesced shared state (callers hold the exclusive
  // pipeline lock — ConcurrentGammaWindow::shrink_to reallocates). Coarse
  // slide has no meaning for the watermark-driven concurrent window, so that
  // rung reports false and the ladder skips to hash fallback.
  auto apply_stage = [&](DegradationStage stage) -> bool {
    switch (stage) {
      case DegradationStage::kShrinkWindow: {
        const VertexId w = state.gamma.window_size();
        if (w <= 1) return false;
        state.gamma.shrink_to(w / 2);
        return true;
      }
      case DegradationStage::kCoarseSlide:
        return false;
      case DegradationStage::kHashFallback:
        if (state.hash_fallback.load(std::memory_order_relaxed)) return false;
        state.hash_fallback.store(true, std::memory_order_relaxed);
        state.gamma.shrink_to(1);
        return true;
      case DegradationStage::kNone:
        break;
    }
    return false;
  };

  // Producer-side budget enforcement: the governor's breach response, run
  // against the quiesced pipeline.
  auto govern = [&] {
    const auto breach = governor->sample(pipeline_bytes());
    if (!breach || !governor->ladder_open()) return;
    quiesce([&] { governor->respond(*breach, produced, apply_stage, pipeline_bytes); });
  };

  Timer timer;
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      // Micro-batched handoff: records accumulate locally and cross the
      // queue batch_size at a time, so the mutex/condvar round-trip is paid
      // once per batch instead of once per record. Governor sampling and
      // checkpoint cadence switch to the crossing-aware due(prev, now) —
      // `produced` now advances in batch-sized jumps that can step over an
      // exact multiple of the interval.
      std::vector<OwnedVertexRecord> pending;
      pending.reserve(batch_size);
      bool open = true;
      auto flush = [&]() -> bool {
        if (pending.empty()) return true;
        const std::uint64_t count = pending.size();
        if (wd == nullptr) {
          if (!queue.push_batch(pending)) return false;
        } else {
          // Timed pushes so a dead pipeline surfaces as an abort instead of
          // blocking the producer on a full queue forever.
          bool pushed = false;
          while (!pushed && !wd->aborted() && !queue.finished()) {
            pushed = queue.push_batch_for(pending, std::chrono::milliseconds(100));
          }
          if (!pushed) return false;
        }
        const std::uint64_t prev = produced;
        produced += count;
        if (governor != nullptr && governor->enabled() &&
            governor->due(prev, produced)) {
          govern();
        }
        if (checkpointer.due(prev, produced)) {
          quiesce([&] {
            checkpointer.write(snapshot_parallel(state, rct, shards, produced));
          });
        }
        return true;
      };
      while (auto record = stream.next()) {
        pending.push_back(OwnedVertexRecord::from(*record));
        if (pending.size() >= batch_size && !flush()) {
          open = false;
          break;
        }
      }
      if (open) flush();  // drain: the partial tail batch
    } catch (...) {
      // BudgetExceededError under DegradePolicy::kAbort (or a stream error):
      // park it for the joining thread, shut the pipeline down cleanly.
      producer_error = std::current_exception();
    }
    queue.close();
  });

  std::vector<std::thread> workers;
  workers.reserve(options.num_threads);
  std::mutex perf_merge_mutex;
  for (unsigned t = 0; t < options.num_threads; ++t) {
    workers.emplace_back([&, t] {
      // PerfStats is not thread-safe: each worker accumulates into a private
      // instance and merges it into the shared sink once, after its loop.
      PerfStats local_perf;
      PerfStats* perf = options.perf != nullptr ? &local_perf : nullptr;
      Worker worker(state, rct_ptr, watermark, perf, wd, t);
      std::uint64_t pops = 0;
      // Whole batches cross the queue; everything below the pop — fault
      // injection, watchdog publish/claim/steal, the shared-lock placement —
      // still runs per record, so batching never widens the window a quiesce
      // or a steal has to reason about.
      std::vector<OwnedVertexRecord> batch;
      batch.reserve(batch_size);
      for (;;) {
        std::size_t got;
        {
          PerfScope wait(perf, PerfStage::kQueueWait);
          got = queue.pop_batch(batch, batch_size);
        }
        if (got == 0) break;
        for (OwnedVertexRecord& record : batch) {
          // An abort drops the rest of the local batch, mirroring how
          // BoundedQueue::abort discards undelivered items.
          if (wd != nullptr && wd->aborted()) break;
          ++pops;

          // Injected stragglers, deterministic by pop index.
          for (const auto& f : options.faults.slow) {
            if (f.worker == t && f.delay_seconds > 0.0 && f.every > 0 &&
                pops % f.every == 0) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(f.delay_seconds));
            }
          }
          const StuckWorkerFault* stuck = nullptr;
          for (const auto& f : options.faults.stuck) {
            if (f.worker == t && f.at_pop == pops) stuck = &f;
          }

          if (wd != nullptr) {
            wd->publish(t, record);
            if (stuck != nullptr && !stuck->in_processing) {
              // Transient freeze between publish and claim: the monitor
              // steals and rescues the record, then this worker resumes.
              wd->wait_until_stolen(t, stuck->max_stall_seconds);
            }
            if (!wd->claim(t)) continue;  // stolen — the monitor owns it now
          } else if (stuck != nullptr) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(stuck->max_stall_seconds));
          }
          {
            std::shared_lock lock(pipeline_mutex);
            if (wd != nullptr && stuck != nullptr && stuck->in_processing) {
              // Wedge inside the placement: unstealable; with every worker
              // wedged this way the monitor aborts the pipeline, which is
              // what wakes this wait.
              wd->wait_until_aborted(stuck->max_stall_seconds);
            }
            worker.process(std::move(record));
          }
          if (wd != nullptr) wd->complete(t);
        }
      }
      if (perf != nullptr) {
        std::lock_guard lock(perf_merge_mutex);
        options.perf->merge(local_perf);
      }
    });
  }
  producer.join();
  for (auto& w : workers) w.join();
  if (wd != nullptr) wd->stop();
  if (producer_error) std::rethrow_exception(producer_error);

  // Cyclically-parked leftovers: force-place in id order. Single-threaded by
  // now (every worker has exited), so the caller's sink can be used
  // directly. Runs on the abort path too — parked records
  // should not punch extra holes in the partial route.
  if (options.use_rct) {
    Worker finisher(state, rct_ptr, watermark, options.perf);
    auto rest = rct.drain_parked();
    state.forced.fetch_add(rest.size(), std::memory_order_relaxed);
    for (auto& record : rest) {
      finisher.commit(record, finisher.choose(record));
    }
  }

  ParallelRunResult result;
  result.partition_seconds = timer.seconds();
  result.route.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.route[v] = state.route[v].load(std::memory_order_relaxed);
  }
  result.peak_partitioner_bytes =
      std::max(pipeline_bytes(),
               governor != nullptr ? governor->peak_partitioner_bytes() : 0);
  result.delayed_vertices = state.delayed.load();
  result.untracked_overflow = options.use_rct ? rct.untracked_overflow() : 0;
  result.forced_vertices = state.forced.load();
  result.checkpoints_written = checkpointer.snapshots_taken();
  result.resumed_at = resumed_at;
  if (wd != nullptr) {
    result.stalled_workers = wd->stalled_workers();
    result.rescued_records = wd->rescued_records();
    result.aborted = wd->aborted();
    result.abort_reason = wd->abort_reason();
  }
  if (governor != nullptr) result.degradations = governor->events();
  result.contention.rct_exclusive_contended = rct.exclusive_contended();
  result.contention.rct_exclusive_acquires = rct.exclusive_acquires();
  if (result.aborted) {
    const std::string reason = result.abort_reason;
    throw StreamAborted("run_parallel aborted: " + reason, std::move(result));
  }
  return result;
}

}  // namespace spnl
