#include "core/gamma_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace spnl {

GammaWindow::GammaWindow(VertexId num_vertices, PartitionId num_partitions,
                         std::uint32_t num_shards, SlideMode mode)
    : num_vertices_(num_vertices),
      num_partitions_(num_partitions),
      num_shards_(num_shards),
      mode_(mode) {
  if (num_partitions == 0) throw std::invalid_argument("GammaWindow: K must be >= 1");
  if (num_shards == 0) throw std::invalid_argument("GammaWindow: X must be >= 1");
  const VertexId n = std::max<VertexId>(num_vertices, 1);
  window_size_ = (n + num_shards - 1) / num_shards;  // ceil(n/X)
  if (window_size_ == 0) window_size_ = 1;
  counters_ = ZeroedArray<GammaCount>(static_cast<std::size_t>(window_size_) *
                                      num_partitions_);
}

std::uint32_t GammaWindow::recommended_shards(VertexId num_vertices, PartitionId k,
                                              double alpha, double beta) {
  const double by_parts = alpha * k;
  const double by_size = static_cast<double>(num_vertices) / (beta * k);
  const double x = std::floor(std::min(by_parts, by_size));
  // Clamp into uint32 range before the cast: extreme alpha/beta (or a tiny
  // beta*k product) push x past 2^32, where the bare double -> uint32 cast is
  // undefined behaviour. The !(x > 1) form also routes NaN (e.g. 0/0 from
  // num_vertices == 0 with beta == 0) to the safe full-table answer.
  if (!(x > 1.0)) return 1;
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<std::uint32_t>::max());
  if (x >= kMax) return std::numeric_limits<std::uint32_t>::max();
  return static_cast<std::uint32_t>(x);
}

void GammaWindow::advance_general(VertexId head) {
  if (mode_ == SlideMode::kCoarse) {
    // Shard-by-shard: the window only moves when the head crosses into the
    // next shard, and then jumps to that shard's start. Mid-shard arrivals
    // keep the stale window — including after the jump discarded part of
    // the shard's future rows (the paper's "sharp sliding" accuracy loss).
    head = head / window_size_ * window_size_;
  }
  if (head <= base_) return;
  const VertexId steps = head - base_;
  if (steps >= window_size_) {
    // The whole window is retired: one bulk clear.
    std::memset(counters_.data(), 0, counters_.bytes());
    base_ = head;
    base_slot_ = slot_of(base_);
    return;
  }
  // The retiring ids [base_, head) occupy the contiguous ring-slot run
  // [base_ % W, base_ % W + steps), wrapping at W — at most two contiguous
  // row ranges, each cleared with one memset (their slots are reused by the
  // future ids id + W entering the window).
  const VertexId first = base_slot_;
  const VertexId head_rows = std::min<VertexId>(steps, window_size_ - first);
  std::memset(counters_.data() + static_cast<std::size_t>(first) * num_partitions_,
              0,
              static_cast<std::size_t>(head_rows) * num_partitions_ *
                  sizeof(GammaCount));
  const VertexId wrapped_rows = steps - head_rows;
  if (wrapped_rows > 0) {
    std::memset(counters_.data(), 0,
                static_cast<std::size_t>(wrapped_rows) * num_partitions_ *
                    sizeof(GammaCount));
  }
  base_ = head;
  // One modulo per slide instead of one per out-neighbor: row_offset()
  // derives any in-window slot from base_slot_ with an add and a compare.
  base_slot_ = first + steps;
  if (base_slot_ >= window_size_) base_slot_ -= window_size_;
}

void GammaWindow::shrink_to(VertexId new_window) {
  if (new_window == 0) new_window = 1;
  if (new_window >= window_size_) return;
  // Rebuild into a fresh right-sized table so the footprint actually drops.
  // Ids still covered by the smaller window keep their counters;
  // [base+new_W, base+old_W) is dropped — the same loss as having streamed
  // with a larger X all along.
  ZeroedArray<GammaCount> counters(static_cast<std::size_t>(new_window) *
                                   num_partitions_);
  const std::uint64_t covered =
      std::min<std::uint64_t>(new_window,
                              static_cast<std::uint64_t>(window_size_));
  for (std::uint64_t i = 0; i < covered; ++i) {
    const VertexId id = base_ + static_cast<VertexId>(i);
    const std::size_t old_row = row_offset(id);
    const std::size_t new_row =
        static_cast<std::size_t>(id % new_window) * num_partitions_;
    std::memcpy(counters.data() + new_row, counters_.data() + old_row,
                num_partitions_ * sizeof(GammaCount));
  }
  counters_.swap(counters);
  window_size_ = new_window;
  base_slot_ = slot_of(base_);
  // Keep the W = ceil(n/X) relationship coherent for save/restore guards.
  const VertexId n = std::max<VertexId>(num_vertices_, 1);
  num_shards_ = (n + window_size_ - 1) / window_size_;
}

std::size_t GammaWindow::memory_footprint_bytes() const {
  return counters_.bytes();
}

void GammaWindow::save(StateWriter& out) const {
  out.put_u32(num_vertices_);
  out.put_u32(num_partitions_);
  out.put_u32(num_shards_);
  out.put_u32(static_cast<std::uint32_t>(mode_));
  out.put_u32(window_size_);
  out.put_u32(base_);
  out.put_span(counters_.span());
}

void GammaWindow::restore(StateReader& in) {
  in.expect_u32(num_vertices_, "gamma vertex count");
  in.expect_u32(num_partitions_, "gamma partition count");
  const std::uint32_t shards = in.get_u32();
  const auto mode = static_cast<SlideMode>(in.get_u32());
  const VertexId window = in.get_u32();
  // A governor-degraded snapshot has a smaller window (and possibly coarse
  // mode) than this freshly constructed instance: adopt the degraded shape
  // so resume continues exactly where the degraded run left off. A LARGER
  // snapshot window cannot fit and is a real configuration mismatch.
  if (window > window_size_) {
    throw CheckpointError("gamma restore: window size mismatch");
  }
  if (window < window_size_) shrink_to(window);
  if (shards != num_shards_) {
    throw CheckpointError("gamma restore: shard count mismatch");
  }
  mode_ = mode;
  base_ = in.get_u32();
  base_slot_ = slot_of(base_);
  in.get_span(counters_.span(), "gamma restore: counter table");
}

}  // namespace spnl
