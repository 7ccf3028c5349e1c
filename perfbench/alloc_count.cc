// Allocator-truth counting: replaces the global operator new/delete family
// for the whole benchmark binary, so every heap allocation in the process —
// simulator library included — is counted where it happens, not in a pool's
// own ledger. The library has no direct malloc calls.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "perfbench/alloc_count.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void* Allocate(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocCounts ReadAllocCounts() {
  return AllocCounts{g_allocs.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateOrThrow;

void* operator new(std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return Allocate(size, 0); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
