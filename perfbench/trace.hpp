// Span recorder and call-sampling decorators for the benchmark's traced run.
//
// Every call into a layer that happens once per job (stream open,
// materialize, prepass, driver, validate, metrics, route write) gets a span:
// name, start, end, parent. Per-record calls (AdjacencyStream::next and
// StreamingPartitioner::place) are far too many for one span each, so the
// decorators below count every call exactly and time one call in
// kSampleEvery, less the measured cost of one clock read; a span's
// per-record total is the sampled time scaled by calls / sampled. Spans stay
// in memory until the job ends.
//
// No PerfStats sink is attached anywhere: the decorators sit between the
// benchmark and the library's public calls, so the library runs the same
// code it runs untraced.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/adjacency_stream.hpp"
#include "partition/partitioning.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-record calls of one kind made while one span was current.
struct SampledCalls {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::uint64_t sampled_ns = 0;
  /// Decoded record bytes (ingest only): 4 B per id, the vertex included.
  std::uint64_t bytes = 0;
  /// Every sampled duration (place only), for percentiles.
  std::vector<std::uint32_t> samples_ns;

  double extrapolated_seconds() const {
    if (sampled == 0) return 0.0;
    return 1e-9 * static_cast<double>(sampled_ns) *
           static_cast<double>(calls) / static_cast<double>(sampled);
  }
};

enum CallKind : std::size_t { kIngest = 0, kPlace = 1, kNumCallKinds = 2 };

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::array<SampledCalls, kNumCallKinds> calls;

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  static constexpr std::uint32_t kSampleEvery = 16;

  /// Measures the cost of one clock read, which every sample subtracts.
  Tracer() {
    std::array<std::uint64_t, 257> deltas{};
    for (std::uint64_t& delta : deltas) {
      const std::uint64_t start = now_ns();
      delta = now_ns() - start;
    }
    std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                     deltas.end());
    clock_ns_ = deltas[deltas.size() / 2];
  }

  /// Opens a span as a child of the current one and makes it current.
  int begin(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = current_;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Sink for per-record calls made now. A parallel driver's producer
  /// thread writes here while the calling thread waits inside the driver
  /// span, so the two never touch the same span concurrently.
  SampledCalls& current_calls(CallKind kind) {
    return spans_[static_cast<std::size_t>(current_)].calls[kind];
  }

  /// Makes one per-record call: counts it, and times it when `countdown`
  /// (the caller's, one per decorator) reaches zero.
  template <typename Call>
  auto sampled(CallKind kind, std::uint32_t& countdown, Call&& call) {
    SampledCalls& sink = current_calls(kind);
    ++sink.calls;
    if (--countdown != 0) return call();
    countdown = kSampleEvery;
    const std::uint64_t start = now_ns();
    auto result = call();
    const std::uint64_t elapsed = now_ns() - start;
    const std::uint64_t ns = elapsed > clock_ns_ ? elapsed - clock_ns_ : 0;
    ++sink.sampled;
    sink.sampled_ns += ns;
    if (kind == kPlace) {
      sink.samples_ns.push_back(
          static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
    }
    return result;
  }

  const std::deque<Span>& spans() const { return spans_; }

  /// First span with this name, or nullptr.
  const Span* find(const std::string& name) const {
    for (const Span& span : spans_) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }

 private:
  // A deque keeps references stable while spans are added.
  std::deque<Span> spans_;
  int current_ = -1;
  std::uint64_t clock_ns_ = 0;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Stream decorator: bills next() to the current span's ingest sink. The
/// footprint and quarantine hooks are not forwarded; the benchmark runs
/// without a governor or quarantine.
class TracedStream final : public spnl::AdjacencyStream {
 public:
  TracedStream(spnl::AdjacencyStream& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<spnl::VertexRecord> next() override {
    std::optional<spnl::VertexRecord> record =
        tracer_.sampled(kIngest, countdown_, [&] { return inner_.next(); });
    if (record) {
      tracer_.current_calls(kIngest).bytes +=
          (1 + record->out.size()) * sizeof(spnl::VertexId);
    }
    return record;
  }
  void reset() override { inner_.reset(); }
  spnl::VertexId num_vertices() const override { return inner_.num_vertices(); }
  spnl::EdgeId num_edges() const override { return inner_.num_edges(); }

 private:
  spnl::AdjacencyStream& inner_;
  Tracer& tracer_;
  std::uint32_t countdown_ = Tracer::kSampleEvery;
};

/// Partitioner decorator: bills place() to the current span's place sink.
/// Checkpoint, governor and PerfStats hooks are not forwarded; the benchmark
/// uses none of them.
class TracedPartitioner final : public spnl::StreamingPartitioner {
 public:
  TracedPartitioner(spnl::StreamingPartitioner& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  spnl::PartitionId place(spnl::VertexId v,
                          std::span<const spnl::VertexId> out) override {
    return tracer_.sampled(kPlace, countdown_, [&] { return inner_.place(v, out); });
  }
  const std::vector<spnl::PartitionId>& route() const override {
    return inner_.route();
  }
  std::size_t memory_footprint_bytes() const override {
    return inner_.memory_footprint_bytes();
  }
  std::string name() const override { return inner_.name(); }

 private:
  spnl::StreamingPartitioner& inner_;
  Tracer& tracer_;
  std::uint32_t countdown_ = Tracer::kSampleEvery;
};

}  // namespace perfbench
