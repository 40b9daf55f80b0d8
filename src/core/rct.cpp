#include "core/rct.hpp"

#include <algorithm>
#include <stdexcept>

namespace spnl {

Rct::Rct(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  entries_.reserve(capacity_);
}

std::unique_lock<std::mutex> Rct::lock() {
  std::unique_lock guard(mutex_, std::try_to_lock);
  if (!guard.owns_lock()) {
    guard.lock();
    ++contended_;
  }
  ++acquires_;
  return guard;
}

Rct::Entry* Rct::find(VertexId v) {
  for (Entry& entry : entries_) {
    if (entry.id == v) return &entry;
  }
  return nullptr;
}

const Rct::Entry* Rct::find(VertexId v) const {
  return const_cast<Rct*>(this)->find(v);
}

bool Rct::register_vertex(VertexId v) {
  const auto guard = lock();
  if (find(v) != nullptr) return false;  // duplicate (not an overflow)
  if (entries_.size() >= capacity_) {
    ++untracked_overflow_;
    return false;
  }
  entries_.push_back({v, 0, false, {}});
  return true;
}

void Rct::bump_out_neighbors(VertexId self, std::span<const VertexId> out) {
  const auto guard = lock();
  for (const VertexId u : out) {
    if (u == self) continue;
    if (Entry* entry = find(u)) ++entry->counter;
  }
}

std::uint32_t Rct::count(VertexId v) const {
  std::lock_guard guard(mutex_);
  const Entry* entry = find(v);
  return entry != nullptr ? entry->counter : 0;
}

double Rct::mean_locked() const {
  std::uint64_t sum = 0;
  std::uint32_t nonzero = 0;
  for (const Entry& entry : entries_) {
    sum += entry.counter;
    nonzero += entry.counter != 0 ? 1 : 0;
  }
  return nonzero == 0 ? 0.0 : static_cast<double>(sum) / nonzero;
}

double Rct::mean_nonzero_count() const {
  std::lock_guard guard(mutex_);
  return mean_locked();
}

bool Rct::delayed(const Entry& entry) const {
  return entry.counter != 0 &&
         static_cast<double>(entry.counter) >= std::max(1.0, mean_locked());
}

bool Rct::should_delay(VertexId v) const {
  std::lock_guard guard(mutex_);
  const Entry* entry = find(v);
  return entry != nullptr && delayed(*entry);
}

bool Rct::park(Entry* entry, const VertexRecord& record) {
  // Untracked vertices cannot park and a double park would lose a record. A
  // counter at zero means the last in-neighbor's placement already ran and
  // found nothing parked to release: parking now would strand the record
  // until drain_parked.
  if (entry == nullptr || entry->parked || entry->counter == 0) return false;
  entry->parked = true;
  entry->out.assign(record.out.begin(), record.out.end());
  return true;
}

bool Rct::park(const VertexRecord& record) {
  const auto guard = lock();
  return park(find(record.id), record);
}

bool Rct::park_if_delayed(const VertexRecord& record) {
  const auto guard = lock();
  Entry* entry = find(record.id);
  return entry != nullptr && delayed(*entry) && park(entry, record);
}

std::vector<OwnedVertexRecord> Rct::on_placed(VertexId v,
                                              std::span<const VertexId> out) {
  std::vector<OwnedVertexRecord> ready;
  const auto guard = lock();
  // Erasing also drops the copy of a still-parked vertex the caller placed.
  if (Entry* entry = find(v)) {
    if (entry != &entries_.back()) *entry = std::move(entries_.back());
    entries_.pop_back();
  }
  for (const VertexId u : out) {
    Entry* entry = find(u);
    if (entry == nullptr || entry->counter == 0) continue;
    if (--entry->counter == 0 && entry->parked) {
      entry->parked = false;
      ready.push_back({u, std::move(entry->out)});
    }
  }
  return ready;
}

std::vector<OwnedVertexRecord> Rct::drain_parked() {
  std::vector<OwnedVertexRecord> rest;
  {
    const auto guard = lock();
    for (Entry& entry : entries_) {
      if (!entry.parked) continue;
      entry.parked = false;
      rest.push_back({entry.id, std::move(entry.out)});
    }
  }
  std::sort(rest.begin(), rest.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return rest;
}

std::vector<Rct::ParkedState> Rct::snapshot_parked() const {
  std::vector<ParkedState> parked;
  {
    std::lock_guard guard(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.parked) parked.push_back({entry.id, entry.counter, entry.out});
    }
  }
  std::sort(parked.begin(), parked.end(),
            [](const ParkedState& a, const ParkedState& b) { return a.id < b.id; });
  return parked;
}

void Rct::restore_parked(std::vector<ParkedState> parked) {
  const auto guard = lock();
  if (!entries_.empty()) {
    throw std::logic_error("Rct::restore_parked: table not empty");
  }
  for (ParkedState& p : parked) {
    entries_.push_back({p.id, p.counter, true, std::move(p.out)});
  }
}

std::size_t Rct::size() const {
  std::lock_guard guard(mutex_);
  return entries_.size();
}

std::size_t Rct::parked_size() const {
  std::lock_guard guard(mutex_);
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [](const Entry& e) { return e.parked; }));
}

std::uint64_t Rct::untracked_overflow() const {
  std::lock_guard guard(mutex_);
  return untracked_overflow_;
}

std::uint64_t Rct::exclusive_acquires() const {
  std::lock_guard guard(mutex_);
  return acquires_;
}

std::uint64_t Rct::exclusive_contended() const {
  std::lock_guard guard(mutex_);
  return contended_;
}

std::size_t Rct::memory_footprint_bytes() const {
  std::lock_guard guard(mutex_);
  std::size_t bytes = sizeof(Rct) + entries_.capacity() * sizeof(Entry);
  for (const Entry& entry : entries_) bytes += entry.out.capacity() * sizeof(VertexId);
  return bytes;
}

}  // namespace spnl
