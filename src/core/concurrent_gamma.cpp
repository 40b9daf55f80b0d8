#include "core/concurrent_gamma.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/score_kernel.hpp"

namespace spnl {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

GammaDeltaBuffer::GammaDeltaBuffer(PartitionId num_partitions, std::size_t rows)
    : k_(num_partitions) {
  if (num_partitions == 0) {
    throw std::invalid_argument("GammaDeltaBuffer: K must be >= 1");
  }
  // Table is 2x the requested row budget so load factor stays <= 1/2.
  const std::size_t slots = next_pow2(std::max<std::size_t>(rows, 1) * 2);
  mask_ = slots - 1;
  limit_ = slots / 2;
  ids_.assign(slots, kInvalidVertex);
  counts_.assign(slots * k_, 0);
  dest_.resize(slots);
}

ConcurrentGammaWindow::ConcurrentGammaWindow(VertexId num_vertices,
                                             PartitionId num_partitions,
                                             std::uint32_t num_shards)
    : num_partitions_(num_partitions) {
  if (num_partitions == 0) {
    throw std::invalid_argument("ConcurrentGammaWindow: K must be >= 1");
  }
  if (num_shards == 0) {
    throw std::invalid_argument("ConcurrentGammaWindow: X must be >= 1");
  }
  const VertexId n = std::max<VertexId>(num_vertices, 1);
  window_size_ = (n + num_shards - 1) / num_shards;
  mod_magic_ = mod_magic(window_size_);
  const std::size_t total = static_cast<std::size_t>(window_size_) * num_partitions_;
  counters_ = std::make_unique<std::atomic<std::uint32_t>[]>(total);
  for (std::size_t i = 0; i < total; ++i) {
    counters_[i].store(0, std::memory_order_relaxed);
  }
}

void ConcurrentGammaWindow::advance_to(VertexId head, PerfStats* perf) {
  // Fast path: the slide (or a pending request) already covers this head.
  if (head <= base_.load(std::memory_order_relaxed)) return;

  // Publish the request wait-free: monotone fetch-max via CAS. release pairs
  // with the acquire reload in the slide loop below, so the winner of the
  // try_lock observes every published head.
  VertexId cur = pending_head_.load(std::memory_order_relaxed);
  while (cur < head) {
    if (pending_head_.compare_exchange_weak(cur, head, std::memory_order_release,
                                            std::memory_order_relaxed)) {
      break;
    }
    // cur was reloaded by the failed CAS; loop re-tests cur < head.
    if (perf != nullptr) perf->add_count(PerfCounter::kGammaHeadCasRetries, 1);
  }

  // Only one worker slides at a time; everyone else cedes without blocking.
  // The ceded request is picked up either by the current holder's re-check
  // below or by the next advance_to() call — bounded staleness, and only of
  // the heuristic Γ estimate (termination never waits on the slide).
  std::unique_lock lock(advance_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (perf != nullptr) perf->add_count(PerfCounter::kGammaAdvanceContended, 1);
    return;
  }

  auto clear_rows = [this](VertexId first_slot, VertexId rows) {
    auto* begin = counters_.get() +
                  static_cast<std::size_t>(first_slot) * num_partitions_;
    const std::size_t count = static_cast<std::size_t>(rows) * num_partitions_;
    for (std::size_t i = 0; i < count; ++i) {
      begin[i].store(0, std::memory_order_relaxed);
    }
  };

  // Slide to the latest published request, re-checking after each pass so a
  // head published while we slid (by a worker whose try_lock lost against
  // ours) is not stranded until the next call.
  while (true) {
    const VertexId target = pending_head_.load(std::memory_order_acquire);
    const VertexId base = base_.load(std::memory_order_relaxed);
    if (target <= base) break;
    const VertexId steps = target - base;
    if (steps >= window_size_) {
      clear_rows(0, window_size_);
    } else {
      // Retiring ids [base, target) occupy at most two contiguous slot runs
      // (the ring wraps at W): clear them as ranges instead of per-id modulo
      // walks.
      const VertexId first = slot_of(base);
      const VertexId head_rows = std::min<VertexId>(steps, window_size_ - first);
      clear_rows(first, head_rows);
      if (steps > head_rows) clear_rows(0, steps - head_rows);
    }
    base_.store(target, std::memory_order_relaxed);
  }
}

void ConcurrentGammaWindow::publish(GammaDeltaBuffer& delta, PerfStats* perf) {
  if (delta.empty()) return;
  PerfScope scope(perf, PerfStage::kGammaPublish);
  const VertexId b = base_.load(std::memory_order_relaxed);
  const VertexId w = window_size_;
  // Membership re-check at merge time: a row whose id retired between
  // buffering and publish is dropped — the eager path's increments to it
  // would have been cleared by the slide, so dropping is byte-identical.
  // The live rows are scattered over a table of tens of MB, so most miss,
  // and each fetch_add below is a locked RMW that would wait out its miss
  // before the next one issues: every row is requested up front instead.
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  for (const std::size_t slot : delta.slots_) {
    const VertexId u = delta.ids_[slot];
    delta.ids_[slot] = kInvalidVertex;
    if (u < b || static_cast<std::uint64_t>(u) >= static_cast<std::uint64_t>(b) + w) {
      delta.dest_[slot] = kDropped;
      continue;
    }
    delta.dest_[slot] = static_cast<std::size_t>(slot_of(u)) * num_partitions_;
    prefetch_write(counters_.get() + delta.dest_[slot]);
  }
  std::uint64_t dropped = 0;
  for (const GammaDeltaBuffer::Cell& cell : delta.cells_) {
    std::uint32_t& count = delta.counts_[cell.slot * delta.k_ + cell.part];
    const std::size_t dest = delta.dest_[cell.slot];
    if (dest == kDropped) {
      ++dropped;
    } else {
      counters_[dest + cell.part].fetch_add(count, std::memory_order_relaxed);
    }
    count = 0;
  }
  if (perf != nullptr) {
    perf->add_count(PerfCounter::kGammaDeltaPublishes, 1);
    perf->add_count(PerfCounter::kGammaDeltaCells, delta.cells_.size() - dropped);
    if (dropped != 0) perf->add_count(PerfCounter::kGammaDeltaDropped, dropped);
  }
  delta.slots_.clear();
  delta.cells_.clear();
}

void ConcurrentGammaWindow::shrink_to(VertexId new_window) {
  if (new_window == 0) new_window = 1;
  std::lock_guard lock(advance_mutex_);
  if (new_window >= window_size_) return;
  const VertexId base = base_.load(std::memory_order_relaxed);
  auto counters =
      std::make_unique<std::atomic<std::uint32_t>[]>(
          static_cast<std::size_t>(new_window) * num_partitions_);
  const std::size_t total = static_cast<std::size_t>(new_window) * num_partitions_;
  for (std::size_t i = 0; i < total; ++i) {
    counters[i].store(0, std::memory_order_relaxed);
  }
  for (VertexId i = 0; i < new_window; ++i) {
    const VertexId id = base + i;
    const std::size_t old_row =
        static_cast<std::size_t>(slot_of(id)) * num_partitions_;
    const std::size_t new_row =
        static_cast<std::size_t>(id % new_window) * num_partitions_;
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      counters[new_row + p].store(
          counters_[old_row + p].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  counters_ = std::move(counters);
  window_size_ = new_window;
  mod_magic_ = mod_magic(new_window);
}

void ConcurrentGammaWindow::save(StateWriter& out) const {
  const std::size_t total = static_cast<std::size_t>(window_size_) * num_partitions_;
  std::vector<std::uint32_t> counters(total);
  for (std::size_t i = 0; i < total; ++i) {
    counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  out.put_u32(num_partitions_);
  out.put_u32(window_size_);
  out.put_u32(base_.load(std::memory_order_relaxed));
  out.put_vec(counters);
}

void ConcurrentGammaWindow::restore(StateReader& in) {
  in.expect_u32(num_partitions_, "gamma partition count");
  // Adopt a governor-degraded (smaller) snapshot window; see
  // GammaWindow::restore for the rationale.
  const VertexId window = in.get_u32();
  if (window > window_size_) {
    throw CheckpointError("gamma restore: window size mismatch");
  }
  if (window < window_size_) shrink_to(window);
  const VertexId base = in.get_u32();
  const auto counters = in.get_vec<std::uint32_t>();
  const std::size_t total = static_cast<std::size_t>(window_size_) * num_partitions_;
  if (counters.size() != total) {
    throw CheckpointError("gamma restore: counter table size mismatch");
  }
  base_.store(base, std::memory_order_relaxed);
  pending_head_.store(base, std::memory_order_relaxed);
  for (std::size_t i = 0; i < total; ++i) {
    counters_[i].store(counters[i], std::memory_order_relaxed);
  }
}

}  // namespace spnl
