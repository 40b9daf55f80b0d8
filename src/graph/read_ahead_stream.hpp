// Read-ahead decorator: one helper thread calls the inner stream's next() and
// copies the records, in stream order, into a ring of kSlabs record slabs;
// next() hands them out of the slabs. The consumer's loop does not change.
//
// The 2PS clustering prepass reads each of its scans through it
// (prepass/two_phase.cpp), so the decoding of a scan overlaps the clustering.
// The scoring pass does not: there, handing decoded ids from one core to
// another costs about as much as decoding them on the consumer
// (docs/performance.md §8.2).
//
// A pass starts at the first next() after construction or reset(). It maps
// the ring (a ZeroedArray of a page or more is a mapping of its own,
// util/zeroed_array.hpp), reads the first record and starts the helper. It
// ends when next() returns the end of the stream or throws, or at reset() or
// destruction: these stop and join the helper and unmap the ring, so neither
// outlives the pass. The helper allocates nothing itself. The first record is
// read on the consumer, where a BinaryAdjacencyStream allocates its read
// window, and that stream reserves its decode buffer and seek-point index
// when it is opened; so the helper starts no malloc arena of its own unless
// a record outgrows them or the stream throws.
//
// util/ordered_prefetch.hpp does not fit here: it needs the item count up
// front, which a stream does not give, and its slots keep heap buffers
// between items, which would stay resident into the scoring pass.
//
// Slabs change hands through two counters, slabs produced and slabs released,
// each stored with release and loaded with acquire. A side that has to wait
// sleeps on a condition variable until the other's counter moves, so a
// helper that is ahead does not spin on a core. Both sleeps end at half a
// ring: a full ring's helper is woken once half of it is free, and a
// consumer that ran dry once half of it is filled (or the stream ended). Not
// std::atomic::wait: it yields between spins, and the libc text around
// sched_yield that it faults in stayed resident to the job's peak.
//
// A record too wide for a slab is not copied: the helper hands out the inner
// stream's own record in a slab of its own and calls the inner next() again
// only once the consumer has released that slab. An exception from the inner
// stream travels in the slab being filled, behind its records, so next()
// rethrows it only after every earlier record.
//
// Only num_vertices() and num_edges() are forwarded. Where the inner stream
// stands after a pass that ended early is unspecified: the helper may have
// read up to kSlabs slabs past the consumer. reset() rewinds it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "graph/adjacency_stream.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {

class ReadAheadStream final : public AdjacencyStream {
 public:
  static constexpr std::size_t kSlabs = 4;
  static constexpr std::size_t kSlabRecords = 1024;
  /// Neighbor ids one slab holds.
  static constexpr std::size_t kSlabTargets = 32768;

  /// `inner` must outlive this stream and is read only through it.
  explicit ReadAheadStream(AdjacencyStream& inner) : inner_(inner) {}
  ~ReadAheadStream() override { finish(); }

  ReadAheadStream(const ReadAheadStream&) = delete;
  ReadAheadStream& operator=(const ReadAheadStream&) = delete;

  std::optional<VertexRecord> next() override;
  /// Ends the pass, then rewinds the inner stream.
  void reset() override;
  VertexId num_vertices() const override { return inner_.num_vertices(); }
  EdgeId num_edges() const override { return inner_.num_edges(); }

 private:
  /// A slab's ring words: kSlabRecords ids, kSlabRecords row ends (offsets
  /// into the targets), then kSlabTargets targets.
  static constexpr std::size_t kSlabWords = 2 * kSlabRecords + kSlabTargets;
  /// next() prefetches the targets of the record this many records ahead:
  /// they come from the helper's cache, and a load that waits for them
  /// would stall the consumer.
  static constexpr std::size_t kPrefetchRecords = 32;
  /// released_ when the helper is to stop.
  static constexpr std::uint32_t kStop = ~std::uint32_t{0};

  /// What the helper tells the consumer about a slab besides its words.
  struct Slab {
    std::size_t count = 0;  // records
    /// The slab's one record is the inner stream's own, too wide to copy.
    std::optional<VertexRecord> wide;
    bool last = false;         // the stream ends after this slab
    std::exception_ptr error;  // thrown after this slab's records
  };

  VertexId* words(std::uint32_t slab) {
    return ring_.data() + slab % kSlabs * kSlabWords;
  }
  void start();
  /// Stops and joins the helper and unmaps the ring; next() then returns the
  /// end until reset().
  void finish();
  /// The helper's loop. `pending` is a record read but not yet stored in a
  /// slab: at first the one start() read.
  void produce(std::optional<VertexRecord> pending);
  /// Blocks until `ready()`, which tests the other side's counter; that side
  /// calls wake() after it stores the counter.
  template <typename Ready>
  void sleep_until(Ready ready) {
    std::unique_lock<std::mutex> lock(mutex_);
    woken_.wait(lock, ready);
  }
  /// The lock orders the store before a sleeper's test or after its sleep.
  void wake();

  enum class State { kIdle, kRunning, kEnded };

  AdjacencyStream& inner_;
  State state_ = State::kIdle;
  ZeroedArray<VertexId> ring_;
  Slab slabs_[kSlabs];
  std::thread helper_;
  // Consumer side: slabs taken so far (the current one is taken_ - 1), the
  // current slab and its words, and its next record.
  std::uint32_t taken_ = 0;
  const Slab* current_ = nullptr;
  const VertexId* current_words_ = nullptr;
  std::size_t index_ = 0;
  // Each on a cache line of its own: the consumer's fields above are read
  // on every next(), and the helper stores produced_ once per slab.
  alignas(64) std::atomic<std::uint32_t> produced_{0};
  alignas(64) std::atomic<std::uint32_t> released_{0};
  std::mutex mutex_;
  std::condition_variable woken_;
};

}  // namespace spnl
