// Storage for the large tables the hot loops index at random: the Γ windows,
// the parallel driver's shared route and the 2PS prepass's cluster ids and
// vote table; also the prepass's read-ahead ring (graph/read_ahead_stream.hpp).
//
// A request of kHugePageBytes (2 MiB) or more is an anonymous mapping of its
// own, 2 MiB-aligned, with its whole huge pages advised MADV_HUGEPAGE (a
// shorter tail stays on small pages): the kernel hands its pages out zeroed,
// on first touch, so a table costs nothing until it is used and no
// user-level pass ever clears it. On a THP `madvise` or `always` host a
// random probe then costs one TLB entry per 2 MiB instead of one per 4 KiB;
// on `never` the advice is ignored and only the lazy zeroing remains.
// A request of a page or more below that is a mapping of its own too, on
// small pages and without advice: only the pages it touches become resident,
// and all of them go back to the kernel on release. calloc gives no such
// promise, since glibc raises its mmap threshold after each large free. A
// request below a page is zero-filled heap memory (calloc). AddressSanitizer
// puts redzones around that path only, not around a mapping.
//
// Vectors an API exposes keep their type; advise_huge_pages() gives their
// buffer the same advice before its first fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace spnl {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// `bytes` of zeroed memory (nullptr for 0); mapped per the rule above.
/// Throws std::bad_alloc when the memory cannot be had.
void* allocate_zeroed(std::size_t bytes);

/// Releases what allocate_zeroed(bytes) returned, with the same `bytes`.
void release_zeroed(void* p, std::size_t bytes) noexcept;

/// MADV_HUGEPAGE on the 2 MiB-aligned whole huge pages inside
/// [p, p + bytes). Does nothing below kHugePageBytes or where the kernel
/// has no THP; advice is a hint, so a refusal is ignored.
void advise_huge_pages(void* p, std::size_t bytes) noexcept;

/// advise_huge_pages over a vector's whole reserved buffer (its capacity).
template <typename T>
void advise_huge_pages(std::vector<T>& v) noexcept {
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

/// A fixed-size array of `size` zero-valued T from allocate_zeroed. T must
/// be a type whose all-zero bytes are a valid value (integers).
template <typename T>
class ZeroedArray {
  static_assert(std::is_integral_v<T>, "ZeroedArray holds integer counters and ids");

 public:
  ZeroedArray() = default;
  explicit ZeroedArray(std::size_t size)
      : data_(static_cast<T*>(allocate_zeroed(size * sizeof(T)))), size_(size) {}
  ~ZeroedArray() { release_zeroed(data_, size_ * sizeof(T)); }

  ZeroedArray(ZeroedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  ZeroedArray& operator=(ZeroedArray&& other) noexcept {
    ZeroedArray(std::move(other)).swap(*this);
    return *this;
  }
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  void swap(ZeroedArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// The table's own bytes (size × sizeof(T)) — what MC counts.
  std::size_t bytes() const { return size_ * sizeof(T); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  std::span<T> span() { return {data_, size_}; }
  std::span<const T> span() const { return {data_, size_}; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace spnl
