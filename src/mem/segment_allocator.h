// Segment-based memory allocation — Apiary's memory isolation substrate.
//
// Section 4.6: "For simplicity and flexibility, we choose to do memory
// isolation via segments with capabilities... Segments allow more flexibility
// in the size of an memory allocation, reducing resource stranding."
//
// The allocator hands out variable-size, contiguous segments from a physical
// address range using a sorted free list with first-fit or best-fit policy
// and eager coalescing on free. It tracks the stranding statistics that
// experiment E5 compares against the paged baseline.
#ifndef SRC_MEM_SEGMENT_ALLOCATOR_H_
#define SRC_MEM_SEGMENT_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/stats/summary.h"

namespace apiary {

struct Segment {
  uint64_t base = 0;
  uint64_t length = 0;

  uint64_t end() const { return base + length; }
  bool Contains(uint64_t addr, uint64_t bytes) const {
    return addr >= base && bytes <= length && addr - base <= length - bytes;
  }
};

enum class FitPolicy {
  kFirstFit,
  kBestFit,
};

class SegmentAllocator {
 public:
  SegmentAllocator(uint64_t base, uint64_t capacity, FitPolicy policy = FitPolicy::kBestFit);

  // Allocates `bytes` aligned to `alignment` (a power of two). Returns
  // nullopt when no free range fits. Dropping the result strands the range
  // until the allocator is destroyed.
  [[nodiscard]] std::optional<Segment> Allocate(uint64_t bytes, uint64_t alignment = 64);

  // Frees a previously allocated segment. Returns false (and changes
  // nothing) for a segment that was not allocated by this allocator.
  bool Free(const Segment& segment);

  uint64_t capacity() const { return capacity_; }
  uint64_t bytes_allocated() const { return bytes_allocated_; }
  uint64_t bytes_free() const { return capacity_ - bytes_allocated_; }
  size_t free_chunks() const { return free_by_base_.size(); }

  // Largest single allocation that could currently succeed.
  uint64_t LargestFreeChunk() const;

  // External fragmentation: 1 - largest_free/total_free (0 when unfragmented
  // or when nothing is free).
  double ExternalFragmentation() const;

  const CounterSet& counters() const { return counters_; }

 private:
  std::map<uint64_t, uint64_t>::iterator PickFreeChunk(uint64_t bytes, uint64_t alignment);

  uint64_t base_;
  uint64_t capacity_;
  FitPolicy policy_;
  // base -> length of each free chunk, address-ordered for O(log n) coalesce.
  std::map<uint64_t, uint64_t> free_by_base_;
  // base -> length of live allocations (for Free validation).
  std::map<uint64_t, uint64_t> allocated_;
  uint64_t bytes_allocated_ = 0;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_MEM_SEGMENT_ALLOCATOR_H_
