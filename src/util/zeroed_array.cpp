#include "util/zeroed_array.hpp"

#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define SPNL_HAVE_MMAP 1
#endif

namespace spnl {

namespace {

std::uintptr_t round_up_to_huge(std::uintptr_t x) {
  return (x + kHugePageBytes - 1) & ~std::uintptr_t{kHugePageBytes - 1};
}

#ifdef SPNL_HAVE_MMAP
std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
#endif

/// Requests served by a mapping of their own rather than by the heap.
bool mapped(std::size_t bytes) {
#ifdef SPNL_HAVE_MMAP
  return bytes >= page_bytes();
#else
  (void)bytes;
  return false;
#endif
}

}  // namespace

void* allocate_zeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
#ifdef SPNL_HAVE_MMAP
  if (mapped(bytes) && bytes < kHugePageBytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
  if (mapped(bytes)) {
    // Over-map by one huge page and trim both ends to a 2 MiB-aligned
    // `length`: mmap alone only promises page alignment. Only the whole huge
    // pages are advised; a tail past the last of them stays on small pages,
    // so what becomes resident never exceeds the request by a huge page.
    const std::size_t page = page_bytes();
    const std::size_t length = (bytes + page - 1) / page * page;
    const std::size_t over = length + kHugePageBytes;
    if (over < bytes) throw std::bad_alloc();  // wrapped
    void* raw = mmap(nullptr, over, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = round_up_to_huge(start);
    const std::uintptr_t end = aligned + length;
    if (aligned > start) munmap(raw, aligned - start);
    if (start + over > end) munmap(reinterpret_cast<void*>(end), start + over - end);
    void* p = reinterpret_cast<void*>(aligned);
    advise_huge_pages(p, length);
    return p;
  }
#endif
  void* p = std::calloc(1, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release_zeroed(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#ifdef SPNL_HAVE_MMAP
  if (mapped(bytes)) {
    munmap(p, bytes);  // the kernel rounds the length up to whole pages
    return;
  }
#endif
  std::free(p);
}

void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  if (p == nullptr || bytes < kHugePageBytes) return;
  const auto start = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = round_up_to_huge(start);
  const std::uintptr_t last = (start + bytes) & ~std::uintptr_t{kHugePageBytes - 1};
  if (last > first) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace spnl
