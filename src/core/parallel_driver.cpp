#include "core/parallel_driver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
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
#include "core/watermark_tracker.hpp"
#include "partition/range_partitioner.hpp"
#include "util/timer.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

namespace {

/// Per-partition load counters, a cache line each.
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
    std::fill_n(route.data(), route.size(), kUnassigned);
    for (PartitionId i = 0; i < config.num_partitions; ++i) {
      loads[i].logical.store(options.use_locality ? logical.range_size(i) : 0,
                             std::memory_order_relaxed);
    }
  }

  const PartitionConfig config;
  const VertexId num_vertices;
  const double capacity;
  /// Written and read through std::atomic_ref (route_of / set_route).
  ZeroedArray<PartitionId> route;
  std::vector<PartitionLoad> loads;
  ConcurrentGammaWindow gamma;
  RangeTable logical;
  const ParallelOptions options;
  /// Placements flushed so far. Each flush adds to it last, with release, so
  /// a quiesce that reads the expected total has seen every flushed load.
  alignas(64) std::atomic<std::uint64_t> placed_total{0};
  alignas(64) std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> forced{0};
  /// Last-rung governor degradation: replace scoring with a deterministic
  /// capacity-weighted hash vote (and stop feeding the Γ window). Written
  /// only under quiesce, read on every record: a line of its own.
  alignas(64) std::atomic<bool> hash_fallback{false};

  PartitionId route_of(VertexId v) const {
    return std::atomic_ref(const_cast<PartitionId&>(route[v]))
        .load(std::memory_order_relaxed);
  }
  void set_route(VertexId v, PartitionId pid) {
    std::atomic_ref(route[v]).store(pid, std::memory_order_relaxed);
  }
};

/// Records a worker may hold unflushed. The other M-1 workers' unflushed
/// placements, and what they flushed since this worker's last refresh, stay
/// invisible to its balance check: about 2·(M-1)·F records. F keeps that
/// inside the capacity headroom of (slack - 1)·|V|/K records, so the
/// capacity bound holds as it does sequentially; past 32 records the flush
/// cost stops mattering. Under edge balance a record's load is its degree,
/// which no record count bounds, so every placement is flushed.
std::size_t flush_interval(const PartitionConfig& config, VertexId n, unsigned workers) {
  if (config.balance == BalanceMode::kEdge) return 1;
  const double f = (config.slack - 1.0) * n / (2.0 * config.num_partitions * workers);
  return f < 1.0 ? 1 : std::min<std::size_t>(32, static_cast<std::size_t>(f));
}

/// score_record's read policy for one worker (see score_kernel.hpp): relaxed
/// atomic route and Γ reads, and partition counters it keeps itself — the
/// shared values as of its last refresh plus its own placements not yet
/// flushed to them. With one worker that sum is exactly the sequential
/// partitioner's count. The worker's PartitionView is computed from that
/// sum and kept current as the sequential partitioner keeps its own.
class WorkerReads {
 public:
  using Row = const GammaCount*;

  WorkerReads(SharedState& state, std::size_t flush_every)
      : state_(state),
        flush_every_(flush_every),
        policy_(state.options.use_locality ? state.options.spnl.eta_policy
                                           : EtaPolicy::kZero),
        by_edges_(state.config.balance == BalanceMode::kEdge),
        cached_(state.config.num_partitions),
        pending_(state.config.num_partitions),
        loads_(state.config.num_partitions),
        eta_(state.config.num_partitions),
        weights_(state.config.num_partitions) {
    refresh();
  }

  PartitionId num_partitions() const { return state_.config.num_partitions; }
  VertexId num_vertices() const { return state_.num_vertices; }
  PartitionId route(VertexId u) const { return state_.route_of(u); }
  bool locality() const { return state_.options.use_locality; }
  PartitionId logical_of(VertexId u) const { return state_.logical.partition_of(u); }
  /// Also the Γ row commit() will increment, as the sequential place_with()
  /// does: the misses overlap the scoring instead of stalling the commit.
  void prefetch(VertexId u) const {
    prefetch_read(state_.route.data() + u);
    if (const Row row = state_.gamma.row(u)) prefetch_write(row);
  }
  bool gamma_row(VertexId u, Row& row) const {
    row = state_.gamma.row(u);
    return row != nullptr;
  }
  GammaCount gamma(Row row, std::size_t i) const {
    return ConcurrentGammaWindow::load(row, i);
  }

  PartitionView view() const { return {loads_, eta_, weights_}; }

  /// Counts one placement of a `degree`-edge record into `pid`, logically
  /// assigned to `lp` (kUnassigned without locality).
  void add(PartitionId pid, std::size_t degree, PartitionId lp) {
    ++pending_[pid].vertices;
    pending_[pid].edges += degree;
    if (lp != kUnassigned) ++pending_[lp].logical;
    if (++pending_placed_ >= flush_every_) {
      flush();
    } else if (policy_ == EtaPolicy::kLinear) {
      update_all();
    } else {
      update(pid);
      if (lp != kUnassigned) update(lp);
    }
  }

  /// Publishes the pending deltas to the shared counters, then refreshes.
  void flush() {
    if (pending_placed_ == 0) return;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      Counts& d = pending_[i];
      PartitionLoad& c = state_.loads[i];
      if (d.vertices != 0) c.vertices.fetch_add(d.vertices, std::memory_order_relaxed);
      if (d.edges != 0) c.edges.fetch_add(d.edges, std::memory_order_relaxed);
      if (d.logical != 0) c.logical.fetch_sub(d.logical, std::memory_order_relaxed);
      d = Counts{};
    }
    state_.placed_total.fetch_add(pending_placed_, std::memory_order_release);
    pending_placed_ = 0;
    refresh();
  }

  /// Re-reads the shared counters (exact: pending deltas are not in them).
  void refresh() {
    for (std::size_t i = 0; i < cached_.size(); ++i) {
      const PartitionLoad& c = state_.loads[i];
      cached_[i] = {c.vertices.load(std::memory_order_relaxed),
                    c.edges.load(std::memory_order_relaxed),
                    c.logical.load(std::memory_order_relaxed)};
    }
    cached_placed_ = state_.placed_total.load(std::memory_order_relaxed);
    update_all();
  }

 private:
  /// `logical` is, in cached_, the unplaced vertices logically assigned to
  /// the partition; in pending_, how many of them this worker placed.
  struct Counts {
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
    std::uint64_t logical = 0;
  };

  /// Recomputes partition i's view entries. kBoth balance degrades to the
  /// vertex constraint (the paper's primary one).
  void update(std::size_t i) {
    const Counts& c = cached_[i];
    const Counts& d = pending_[i];
    const double pt = static_cast<double>(c.vertices + d.vertices);
    const double lt = static_cast<double>(c.logical - d.logical);
    const double placed = static_cast<double>(cached_placed_ + pending_placed_);
    loads_[i] = by_edges_ ? static_cast<double>(c.edges + d.edges) : pt;
    weights_[i] = 1.0 - loads_[i] / state_.capacity;
    eta_[i] = eta_value(policy_, state_.options.spnl.eta0, lt, pt, placed,
                        state_.num_vertices);
  }

  void update_all() {
    for (std::size_t i = 0; i < cached_.size(); ++i) update(i);
  }

  SharedState& state_;
  const std::size_t flush_every_;
  const EtaPolicy policy_;
  const bool by_edges_;
  std::vector<Counts> cached_;
  std::vector<Counts> pending_;
  std::uint64_t cached_placed_ = 0;
  std::uint64_t pending_placed_ = 0;
  std::vector<double> loads_;
  std::vector<double> eta_;
  std::vector<double> weights_;
};

using Seconds = std::chrono::duration<double>;

class Worker {
 public:
  /// `perf` is a caller-thread-local sink (nullptr = off); `watchdog` and
  /// `index` route the per-commit heartbeat. `advance_every_record` false
  /// leaves advance_window() to the caller, once per claim, so the watermark
  /// line does not move between cores on every record; one worker must
  /// slide per record, as the sequential partitioner does.
  Worker(SharedState& state, Rct* rct, WatermarkTracker& watermark,
         std::size_t flush_every, bool advance_every_record,
         PerfStats* perf = nullptr, PipelineWatchdog* watchdog = nullptr,
         unsigned index = 0)
      : state_(state),
        rct_(rct),
        watermark_(watermark),
        advance_every_record_(advance_every_record),
        perf_(perf),
        watchdog_(watchdog),
        index_(index),
        reads_(state, flush_every),
        params_{state.options.spnl.lambda, state.capacity,
                state.options.spnl.estimator == InNeighborEstimator::kNeighborSum} {}

  /// Score + pick through the shared scoring kernel; the degraded last rung
  /// replaces the score with a deterministic hash vote.
  PartitionId choose(const VertexRecord& record) {
    PerfScope scope(perf_, PerfStage::kScore);
    if (state_.hash_fallback.load(std::memory_order_relaxed)) {
      return hash_vote_pick(reads_, params_, record.id, scratch_);
    }
    return score_record(reads_, params_, record.id, record.out, scratch_);
  }

  void commit(const VertexRecord& record, PartitionId pid) {
    {
      PerfScope t(perf_, PerfStage::kCommit);
      state_.set_route(record.id, pid);
      reads_.add(pid, record.out.size(),
                state_.options.use_locality ? state_.logical.partition_of(record.id)
                                            : kUnassigned);
    }
    if (!state_.hash_fallback.load(std::memory_order_relaxed)) {
      // Membership is re-checked by id, not taken from the scoring stash:
      // other workers may slide the shared window between choose() and
      // commit(). (Hash fallback stops feeding the window — the scores never
      // read it again.)
      PerfScope t(perf_, PerfStage::kGammaIncrement);
      state_.gamma.increment_many(pid, record.out);
    }
    watermark_.mark(record.id);
    if (advance_every_record_) advance_window();
    // The liveness signal the monitor watches: any commit proves progress,
    // including mid-chain commits of RCT-released records.
    if (watchdog_ != nullptr) watchdog_->heartbeat(index_);
  }

  /// Slides the Γ window to the watermark if it moved.
  void advance_window() {
    PerfScope t(perf_, PerfStage::kWindowAdvance);
    if (const VertexId w = watermark_.advance()) state_.gamma.advance_to(w);
  }

  /// Places one record against fresh shared counters and flushes at once:
  /// the monitor's rescues and the forced tail, which run beside (or after)
  /// the workers rather than as one of them.
  void place_now(const VertexRecord& record) {
    reads_.refresh();
    commit(record, choose(record));
    reads_.flush();
  }

  void flush() { reads_.flush(); }
  void refresh() { reads_.refresh(); }

  /// `scoring_delay` is the fault plan's straggler sleep (0 = none), taken
  /// with the record in flight.
  void process(const VertexRecord& record, double scoring_delay = 0.0) {
    const bool tracked = rct_ != nullptr && rct_->register_vertex(record.id);
    // v's out-neighbors still in flight would see a richer Γ row if v were
    // placed first: count the dependency. The hash-fallback rung reads no Γ,
    // so it counts none.
    if (rct_ != nullptr && !state_.hash_fallback.load(std::memory_order_relaxed)) {
      rct_->bump_out_neighbors(record.id, record.out);
    }
    std::this_thread::sleep_for(Seconds(scoring_delay));
    const PartitionId pid = choose(record);
    // A parked record is copied into the table; otherwise it is placed now
    // with the score already computed.
    if (tracked && rct_->park_if_delayed(record)) {
      state_.delayed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    commit(record, pid);
    if (rct_ == nullptr) return;
    // Place everything the placement releases from the RCT, transitively.
    auto released = rct_->on_placed(record.id, record.out);
    while (!released.empty()) {
      const OwnedVertexRecord next = std::move(released.back());
      released.pop_back();
      commit(next.view(), choose(next.view()));
      for (auto& r : rct_->on_placed(next.id, next.out)) released.push_back(std::move(r));
    }
  }

 private:
  SharedState& state_;
  Rct* rct_;
  WatermarkTracker& watermark_;
  const bool advance_every_record_;
  PerfStats* perf_;
  PipelineWatchdog* watchdog_;
  unsigned index_;
  WorkerReads reads_;
  RecordParams params_;
  RecordScratch<WorkerReads::Row> scratch_;
};

/// One reusable slab of the reader's ring: kRecords consecutive records laid
/// out flat (ids, out-list ends, targets). Workers read published records in
/// place. Until every published record of the slab is retired — committed,
/// parked (park copies) or placed by the watchdog's rescue, which reads it
/// here — the reader neither refills the slab nor grows `targets`, which
/// would move it.
struct Slab {
  static constexpr std::size_t kRecords = 4096;

  Slab() : ids(kRecords), ends(kRecords) { targets.reserve(10 * kRecords); }

  VertexRecord record(std::size_t pos) const {
    const std::size_t begin = pos == 0 ? 0 : ends[pos - 1];
    return {ids[pos], {targets.data() + begin, ends[pos] - begin}};
  }

  std::vector<VertexId> ids;
  std::vector<std::size_t> ends;
  std::vector<VertexId> targets;
  std::size_t filled = 0;  ///< reader only
  /// Records of the current generation the workers are done with.
  alignas(64) std::atomic<std::size_t> retired{0};
};

/// The slab ring and the counters the reader and the workers meet on. Record
/// index i (0 = the first record this run reads) lives in slab
/// (i / kRecords) % kSlabs at position i % kRecords.
struct SlabRing {
  static constexpr std::size_t kSlabs = 4;

  Slab& slab_of(std::uint64_t index) { return slabs[(index / Slab::kRecords) % kSlabs]; }

  std::array<Slab, kSlabs> slabs;
  /// Records readable by the workers: [0, published).
  alignas(64) std::atomic<std::uint64_t> published{0};
  /// Set after the last store to `published`: no record will follow.
  std::atomic<bool> ended{false};
  /// Workers that have started; the reader publishes nothing before all
  /// have, so a worker the OS starts late is not left without records.
  std::atomic<unsigned> started{0};
  /// Next unclaimed index; workers take kParallelClaimRecords at a time.
  alignas(64) std::atomic<std::uint64_t> next_claim{0};
};

static_assert(kParallelPublishStride % kParallelClaimRecords == 0 &&
                  Slab::kRecords % kParallelPublishStride == 0,
              "claims must not straddle publish points, nor publish points slabs");

/// Waits politely: yields for a while, then sleeps in short steps.
void back_off(unsigned& spins) {
  if (++spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

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

  out.put_span(state.route.span());
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
  std::copy(route.begin(), route.end(), state.route.data());
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
    const VertexId id = in.get_u32();
    const std::uint32_t counter = in.get_u32();
    parked.push_back({id, counter, in.get_vec<VertexId>()});
  }
  if (!parked.empty()) {
    if (!state.options.use_rct) {
      throw CheckpointError("run_parallel: snapshot has parked records but RCT is off");
    }
    rct.restore_parked(std::move(parked));
  }

  // Rebuild the completion low-watermark by replaying placed ids in
  // increasing order — the same marks the live run would have set.
  for (VertexId v = 0; v < state.num_vertices; ++v) {
    if (route[v] == kUnassigned) continue;
    watermark.mark(v);
    watermark.advance();
  }
  return produced;
}

}  // namespace

ParallelRunResult run_parallel(AdjacencyStream& stream, const PartitionConfig& config,
                               const ParallelOptions& options) {
  if (options.num_threads == 0) {
    throw std::invalid_argument("run_parallel: need at least one worker");
  }
  const VertexId n = stream.num_vertices();
  const EdgeId m = stream.num_edges();
  const std::uint32_t shards =
      options.spnl.num_shards == 0
          ? GammaWindow::recommended_shards(n, config.num_partitions)
          : options.spnl.num_shards;

  SharedState state(n, m, config, options, shards);
  // ε·M entries, the paper's sizing; an undersized ε refuses registrations
  // (surfaced as untracked_overflow).
  const auto rct_capacity = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(options.epsilon * options.num_threads)), 1);
  Rct rct(rct_capacity);
  // The watermark ring spans the ids in flight: the slab ring, the parked
  // RCT records and every worker's current claim. A record parked for
  // longer is passed over (see WatermarkTracker).
  WatermarkTracker watermark(SlabRing::kSlabs * Slab::kRecords + rct_capacity +
                             options.num_threads * kParallelClaimRecords + 16);
  auto ring = std::make_unique<SlabRing>();

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
  const std::size_t flush_every = flush_interval(config, n, options.num_threads);

  // Workers hold the pipeline lock shared for the span of each claim, Γ
  // slide included; the reader takes it exclusively to quiesce for a
  // snapshot or a governor ladder step. A claimed record not yet placed, or
  // a placement not yet flushed, is detected by the accounting check below
  // (placed + parked < produced): a quiesce never sees half a placement.
  std::shared_mutex pipeline_mutex;
  std::uint64_t produced = resumed_at;

  // Injected allocation pressure: touched so the pages are resident and the
  // governor's RSS sample actually sees them.
  std::vector<char> ballast(options.faults.ballast_bytes, 0);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;

  // Watchdog + monitor-thread rescue path. A stolen record was taken before
  // its worker registered it anywhere, so the rescuer bypasses the RCT; the
  // monitor is a single thread, so it needs no further synchronization. The
  // rescue reads the record in its slab and retires it once placed: its
  // worker skips it, so the slab cannot be refilled under the rescue.
  Worker rescuer(state, nullptr, watermark, 1, true);
  std::optional<PipelineWatchdog> watchdog;
  PipelineWatchdog* wd = nullptr;
  if (options.watchdog_timeout_seconds > 0.0) {
    watchdog.emplace(
        options.num_threads,
        PipelineWatchdog::Options{options.watchdog_timeout_seconds},
        [&](unsigned, std::uint64_t index) {
          Slab& slab = ring->slab_of(index);
          {
            std::shared_lock lock(pipeline_mutex);
            rescuer.place_now(slab.record(index % Slab::kRecords));
          }
          slab.retired.fetch_add(1, std::memory_order_release);
        },
        // Every wait in the pipeline polls aborted(), so nothing needs waking.
        [] {});
    wd = &*watchdog;
    wd->start();
  }
  auto aborted = [&] { return wd != nullptr && wd->aborted(); };

  // Run `fn` with the pipeline quiesced (exclusive lock, every produced
  // record committed or parked and every delta flushed). Returns false
  // without running fn if the pipeline aborted while waiting — a wedged
  // worker would otherwise spin this loop forever.
  auto quiesce = [&](const std::function<void()>& fn) -> bool {
    for (;;) {
      if (aborted()) return false;
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

  // The largest the input stream's read and decode buffers have been. The
  // text reader frees its pass at the end of the stream, before the final
  // sample, so the reader thread samples the stream at every publish.
  std::size_t stream_bytes = 0;
  auto sample_stream = [&] {
    stream_bytes = std::max(stream_bytes, stream.memory_footprint_bytes());
  };

  // The governor's MC sample: every byte the parallel partitioner itself
  // holds (Γ window, route, load counters, RCT, watermark, slab ring) plus
  // the input stream's buffers.
  auto pipeline_bytes = [&]() -> std::size_t {
    sample_stream();
    std::size_t bytes = state.gamma.memory_footprint_bytes() +
                        state.route.bytes() +
                        state.loads.size() * sizeof(PartitionLoad) +
                        rct.memory_footprint_bytes() + watermark.memory_footprint_bytes() +
                        stream_bytes;
    for (const Slab& s : ring->slabs) {
      bytes += (s.ids.capacity() + s.targets.capacity()) * sizeof(VertexId) +
               s.ends.capacity() * sizeof(std::size_t);
    }
    return bytes;
  };

  ResourceGovernor* governor = options.governor;

  // One rung against the quiesced shared state: ConcurrentGammaWindow::
  // shrink_to reallocates, so callers hold the exclusive pipeline lock and
  // every other Γ access, slides included, runs under the shared side. Coarse
  // slide means nothing to the watermark-driven window: that rung reports
  // false and the ladder skips to hash fallback.
  auto apply_stage = [&](DegradationStage stage) -> bool {
    switch (stage) {
      case DegradationStage::kShrinkWindow: {
        const VertexId w = state.gamma.window_size();
        if (w <= 1) return false;
        state.gamma.shrink_to(w / 2);
        return true;
      }
      case DegradationStage::kHashFallback:
        if (state.hash_fallback.load(std::memory_order_relaxed)) return false;
        state.hash_fallback.store(true, std::memory_order_relaxed);
        state.gamma.shrink_to(1);
        return true;
      case DegradationStage::kCoarseSlide:
      case DegradationStage::kNone:
        break;
    }
    return false;
  };

  // Makes records [0, count) claimable, then runs the control paths due at
  // this publish point. `produced` advances a stride at a time, so both
  // cadences use the crossing-aware due(prev, now). The last publish ends
  // the stream first: a claim straddling its end is then readable, which a
  // quiesce there has to wait for.
  auto publish = [&](std::uint64_t count, bool last) {
    sample_stream();
    ring->published.store(count, std::memory_order_release);
    if (last) ring->ended.store(true, std::memory_order_release);
    const std::uint64_t prev = produced;
    produced = resumed_at + count;
    if (governor != nullptr && governor->enabled() && governor->due(prev, produced)) {
      // The governor's breach response, run against the quiesced pipeline.
      const auto breach = governor->sample(pipeline_bytes());
      if (breach && governor->ladder_open()) {
        quiesce([&] { governor->respond(*breach, produced, apply_stage, pipeline_bytes); });
      }
    }
    if (checkpointer.due(prev, produced)) {
      quiesce([&] { checkpointer.write(snapshot_parallel(state, rct, shards, produced)); });
    }
  };

  Timer timer;
  std::exception_ptr reader_error;
  std::thread reader([&] {
    try {
      // Waits until `count` records of the slab are retired; false on abort.
      auto drain = [&](Slab& slab, std::size_t count) {
        for (unsigned spins = 0;
             slab.retired.load(std::memory_order_acquire) != count;) {
          if (aborted()) return false;
          back_off(spins);
        }
        return true;
      };
      for (unsigned spins = 0; ring->started.load() < options.num_threads;) {
        back_off(spins);
      }
      std::uint64_t count = 0;
      while (!aborted()) {
        const auto record = stream.next();
        if (!record) break;
        Slab& slab = ring->slab_of(count);
        // Every record before `count` is published, so both drains finish.
        if (count % Slab::kRecords == 0) {
          if (!drain(slab, slab.filled)) break;
          slab.filled = 0;
          slab.targets.clear();
          slab.retired.store(0, std::memory_order_relaxed);
        }
        const std::size_t degree = record->out.size();
        if (slab.targets.size() + degree > slab.targets.capacity()) {
          if (!drain(slab, slab.filled - count % kParallelPublishStride)) break;
          slab.targets.reserve(2 * (slab.targets.size() + degree));
        }
        slab.ids[slab.filled] = record->id;
        slab.targets.insert(slab.targets.end(), record->out.begin(), record->out.end());
        slab.ends[slab.filled++] = slab.targets.size();
        if (++count % kParallelPublishStride == 0) publish(count, false);
      }
      publish(count, true);
    } catch (...) {
      // BudgetExceededError under DegradePolicy::kAbort (or a stream error):
      // park it for the joining thread; the workers finish what is published.
      reader_error = std::current_exception();
    }
    ring->ended.store(true, std::memory_order_release);
  });

  std::vector<std::thread> workers;
  workers.reserve(options.num_threads);
  std::mutex perf_merge_mutex;
  for (unsigned t = 0; t < options.num_threads; ++t) {
    workers.emplace_back([&, t] {
      // PerfStats is not thread-safe: merged into the sink after the loop.
      PerfStats local_perf;
      PerfStats* perf = options.perf != nullptr ? &local_perf : nullptr;
      const bool alone = options.num_threads == 1;
      Worker worker(state, rct_ptr, watermark, flush_every, alone, perf, wd, t);
      std::uint64_t taken = 0;
      ring->started.fetch_add(1);

      // The readable end of claim [first, first + claim): all of it once
      // published, less at the end of the stream, `first` when nothing more
      // comes. A waiting worker flushes, so a quiesce can always complete.
      auto wait_for_claim = [&](std::uint64_t first) -> std::uint64_t {
        PerfScope wait(perf, PerfStage::kQueueWait);
        const std::uint64_t full = first + kParallelClaimRecords;
        unsigned spins = 0;
        for (;;) {
          if (ring->published.load(std::memory_order_acquire) >= full) return full;
          if (ring->ended.load(std::memory_order_acquire)) {
            const std::uint64_t end = ring->published.load(std::memory_order_acquire);
            return std::clamp(end, first, full);
          }
          if (aborted()) return first;
          worker.flush();
          back_off(spins);
        }
      };
      // A stuck-worker stall of the fault plan, outside the pipeline lock and
      // with the deltas flushed, as a preempted worker would be between claims.
      auto stall = [&](std::shared_lock<std::shared_mutex>& lock, auto wait) {
        worker.flush();
        lock.unlock();
        wait();
        lock.lock();
      };

      while (!aborted()) {
        const std::uint64_t first =
            ring->next_claim.fetch_add(kParallelClaimRecords, std::memory_order_relaxed);
        const std::uint64_t end = wait_for_claim(first);
        if (end == first) break;
        // A worker descheduled since its last flush would otherwise balance
        // against counts the others have long moved past.
        worker.refresh();
        Slab& slab = ring->slab_of(first);
        std::uint64_t stolen = 0;  // retired by the rescue, not here
        {
          std::shared_lock lock(pipeline_mutex);
          for (std::uint64_t i = first; i < end && !aborted(); ++i) {
            const VertexRecord record = slab.record(i % Slab::kRecords);
            ++taken;

            // Injected stragglers, deterministic by record count.
            double scoring_delay = 0.0;
            for (const auto& f : options.faults.slow) {
              if (f.worker == t && f.every > 0 && taken % f.every == 0) {
                scoring_delay += f.delay_seconds;
              }
            }
            const StuckWorkerFault* stuck = nullptr;
            for (const auto& f : options.faults.stuck) {
              if (f.worker == t && f.at_pop == taken) stuck = &f;
            }

            if (wd != nullptr) {
              wd->publish(t, i);
              if (stuck != nullptr && !stuck->in_processing) {
                // Transient freeze between publish and claim: the monitor
                // steals and rescues the record, then this worker resumes.
                stall(lock, [&] { wd->wait_until_stolen(t, stuck->max_stall_seconds); });
              }
              if (!wd->claim(t)) {  // stolen: the rescue places it
                ++stolen;
                continue;
              }
              if (stuck != nullptr && stuck->in_processing) {
                // Wedge inside the placement: unstealable; with every worker
                // wedged this way the monitor aborts the pipeline, which is
                // what wakes this wait.
                wd->wait_until_aborted(stuck->max_stall_seconds);
              }
            } else if (stuck != nullptr) {
              stall(lock,
                    [&] { std::this_thread::sleep_for(Seconds(stuck->max_stall_seconds)); });
            }
            worker.process(record, scoring_delay);
            if (wd != nullptr) wd->complete(t);
          }
          // Under the lock: a quiesce may already count this claim as placed,
          // and its shrink_to must not swap the Γ rows this slide clears.
          if (!alone) worker.advance_window();
        }
        slab.retired.fetch_add(end - first - stolen, std::memory_order_release);
      }
      worker.flush();
      if (perf != nullptr) {
        std::lock_guard lock(perf_merge_mutex);
        options.perf->merge(local_perf);
      }
    });
  }
  reader.join();
  for (auto& w : workers) w.join();
  if (wd != nullptr) wd->stop();
  if (reader_error) std::rethrow_exception(reader_error);

  // Cyclically-parked leftovers: force-place in id order, single-threaded
  // now, so into the caller's sink directly. Also on the abort path: parked
  // records should not punch extra holes in the partial route.
  if (options.use_rct) {
    Worker finisher(state, nullptr, watermark, 1, true, options.perf);
    auto rest = rct.drain_parked();
    state.forced.fetch_add(rest.size(), std::memory_order_relaxed);
    for (const auto& record : rest) finisher.place_now(record.view());
  }

  ParallelRunResult result;
  result.partition_seconds = timer.seconds();
  result.peak_partitioner_bytes =
      std::max(pipeline_bytes(),
               governor != nullptr ? governor->peak_partitioner_bytes() : 0);
  // Free the Γ table and the slab ring before the route is copied out, so
  // the copy never sits next to them.
  state.gamma.shrink_to(1);
  ring.reset();
  result.route.assign(state.route.data(), state.route.data() + n);
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
