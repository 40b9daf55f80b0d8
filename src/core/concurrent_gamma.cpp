#include "core/concurrent_gamma.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

namespace spnl {

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
  counters_ = ZeroedArray<GammaCount>(static_cast<std::size_t>(window_size_) *
                                      num_partitions_);
}

void ConcurrentGammaWindow::advance_to(VertexId head) {
  // Monotone fetch-max on the base: the CAS winner owns retiring exactly the
  // ids it moved the base past, so concurrent callers clear disjoint ranges
  // and nobody waits.
  VertexId base = base_.load(std::memory_order_relaxed);
  do {
    if (head <= base) return;
  } while (!base_.compare_exchange_weak(base, head, std::memory_order_relaxed));

  auto clear_rows = [this](VertexId first_slot, VertexId rows) {
    GammaCount* begin =
        counters_.data() + static_cast<std::size_t>(first_slot) * num_partitions_;
    const std::size_t count = static_cast<std::size_t>(rows) * num_partitions_;
    for (std::size_t i = 0; i < count; ++i) {
      std::atomic_ref(begin[i]).store(0, std::memory_order_relaxed);
    }
  };
  const VertexId steps = head - base;
  if (steps >= window_size_) {
    clear_rows(0, window_size_);
    return;
  }
  // Retiring ids [base, head) occupy at most two contiguous slot runs (the
  // ring wraps at W): clear them as ranges instead of per-id modulo walks.
  const VertexId first = slot_of(base);
  const VertexId head_rows = std::min<VertexId>(steps, window_size_ - first);
  clear_rows(first, head_rows);
  if (steps > head_rows) clear_rows(0, steps - head_rows);
}

void ConcurrentGammaWindow::shrink_to(VertexId new_window) {
  if (new_window == 0) new_window = 1;
  if (new_window >= window_size_) return;
  // Callers have quiesced every other access, so plain copies are safe.
  const VertexId base = base_.load(std::memory_order_relaxed);
  ZeroedArray<GammaCount> counters(static_cast<std::size_t>(new_window) *
                                   num_partitions_);
  for (VertexId i = 0; i < new_window; ++i) {
    const VertexId id = base + i;
    const std::size_t old_row =
        static_cast<std::size_t>(slot_of(id)) * num_partitions_;
    const std::size_t new_row =
        static_cast<std::size_t>(id % new_window) * num_partitions_;
    std::memcpy(counters.data() + new_row, counters_.data() + old_row,
                num_partitions_ * sizeof(GammaCount));
  }
  counters_ = std::move(counters);
  window_size_ = new_window;
  mod_magic_ = mod_magic(new_window);
}

void ConcurrentGammaWindow::save(StateWriter& out) const {
  out.put_u32(num_partitions_);
  out.put_u32(window_size_);
  out.put_u32(base_.load(std::memory_order_relaxed));
  out.put_span(counters_.span());
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
  in.get_span(counters_.span(), "gamma restore: counter table");
  base_.store(base, std::memory_order_relaxed);
}

}  // namespace spnl
