#include "src/mem/segment_allocator.h"

#include <algorithm>

namespace apiary {
namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

}  // namespace

SegmentAllocator::SegmentAllocator(uint64_t base, uint64_t capacity, FitPolicy policy)
    : base_(base), capacity_(capacity), policy_(policy) {
  free_by_base_[base_] = capacity_;
}

std::map<uint64_t, uint64_t>::iterator SegmentAllocator::PickFreeChunk(uint64_t bytes,
                                                                       uint64_t alignment) {
  auto best = free_by_base_.end();
  uint64_t best_len = ~0ull;
  for (auto it = free_by_base_.begin(); it != free_by_base_.end(); ++it) {
    const uint64_t aligned = AlignUp(it->first, alignment);
    const uint64_t padding = aligned - it->first;
    if (it->second < padding || it->second - padding < bytes) {
      continue;
    }
    if (policy_ == FitPolicy::kFirstFit) {
      return it;
    }
    if (it->second < best_len) {
      best = it;
      best_len = it->second;
    }
  }
  return best;
}

std::optional<Segment> SegmentAllocator::Allocate(uint64_t bytes, uint64_t alignment) {
  if (bytes == 0 || (alignment & (alignment - 1)) != 0) {
    counters_.Add("segalloc.bad_request");
    return std::nullopt;
  }
  auto it = PickFreeChunk(bytes, alignment);
  if (it == free_by_base_.end()) {
    counters_.Add("segalloc.failures");
    return std::nullopt;
  }
  const uint64_t chunk_base = it->first;
  const uint64_t chunk_len = it->second;
  const uint64_t aligned = AlignUp(chunk_base, alignment);
  const uint64_t pre_pad = aligned - chunk_base;
  const uint64_t post = chunk_len - pre_pad - bytes;
  free_by_base_.erase(it);
  if (pre_pad > 0) {
    free_by_base_[chunk_base] = pre_pad;
  }
  if (post > 0) {
    free_by_base_[aligned + bytes] = post;
  }
  allocated_[aligned] = bytes;
  bytes_allocated_ += bytes;
  counters_.Add("segalloc.allocs");
  counters_.Add("segalloc.bytes_served", bytes);
  return Segment{aligned, bytes};
}

bool SegmentAllocator::Free(const Segment& segment) {
  auto it = allocated_.find(segment.base);
  if (it == allocated_.end() || it->second != segment.length) {
    counters_.Add("segalloc.bad_free");
    return false;
  }
  allocated_.erase(it);
  bytes_allocated_ -= segment.length;
  counters_.Add("segalloc.frees");

  // Insert into the free list and coalesce with address-adjacent neighbours.
  auto [pos, inserted] = free_by_base_.emplace(segment.base, segment.length);
  (void)inserted;
  // Coalesce with the previous chunk.
  if (pos != free_by_base_.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      free_by_base_.erase(pos);
      pos = prev;
    }
  }
  // Coalesce with the next chunk.
  auto next = std::next(pos);
  if (next != free_by_base_.end() && pos->first + pos->second == next->first) {
    pos->second += next->second;
    free_by_base_.erase(next);
  }
  return true;
}

uint64_t SegmentAllocator::LargestFreeChunk() const {
  uint64_t largest = 0;
  for (const auto& [base, len] : free_by_base_) {
    largest = std::max(largest, len);
  }
  return largest;
}

double SegmentAllocator::ExternalFragmentation() const {
  const uint64_t total_free = bytes_free();
  if (total_free == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(LargestFreeChunk()) / static_cast<double>(total_free);
}

}  // namespace apiary
