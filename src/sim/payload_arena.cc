#include "src/sim/payload_arena.h"

namespace apiary {
namespace {

int ClassForBytes(size_t bytes) {
  size_t cap = PayloadArena::kMinChunkBytes;
  for (int c = 0; c < PayloadArena::kNumClasses; ++c) {
    if (bytes <= cap) {
      return c;
    }
    cap <<= 1;
  }
  return -1;  // Oversized: unpooled.
}

size_t ClassBytes(int cls) { return PayloadArena::kMinChunkBytes << cls; }

}  // namespace

uint8_t* PayloadArena::Acquire(size_t min_bytes, size_t* capacity) {
  ++stats_.chunk_acquires;
  ++stats_.live_chunks;
  const int cls = ClassForBytes(min_bytes);
  if (cls < 0) {
    ++stats_.chunk_allocs;
    *capacity = min_bytes;
    return new uint8_t[min_bytes];
  }
  *capacity = ClassBytes(cls);
  if (!retired_ && !freelists_[cls].empty()) {
    uint8_t* chunk = freelists_[cls].back();
    freelists_[cls].pop_back();
    stats_.freelist_bytes -= ClassBytes(cls);
    ++stats_.chunk_reuses;
    return chunk;
  }
  ++stats_.chunk_allocs;
  return new uint8_t[*capacity];
}

void PayloadArena::Release(uint8_t* chunk, size_t capacity) {
  ++stats_.chunk_releases;
  --stats_.live_chunks;
  const int cls = ClassForBytes(capacity);
  if (retired_ || cls < 0 || ClassBytes(cls) != capacity) {
    delete[] chunk;
  } else {
    freelists_[cls].push_back(chunk);
    stats_.freelist_bytes += capacity;
  }
  if (retired_ && stats_.live_chunks == 0) {
    delete this;  // Drain complete: the last surviving PayloadBuf let go.
  }
}

void PayloadArena::Trim() {
  for (auto& list : freelists_) {
    for (uint8_t* chunk : list) {
      delete[] chunk;
    }
    list.clear();
  }
  stats_.freelist_bytes = 0;
}

void PayloadArena::ResetStats() {
  const uint64_t live = stats_.live_chunks;
  const uint64_t parked = stats_.freelist_bytes;
  stats_ = PayloadArenaStats{};
  stats_.live_chunks = live;
  stats_.freelist_bytes = parked;
}

void PayloadArena::Retire() {
  Trim();
  if (stats_.live_chunks == 0) {
    delete this;
    return;
  }
  retired_ = true;  // Drain mode: Release() self-deletes at zero.
}

PayloadArena& FallbackPayloadArena() {
  // Bufs created outside any installed SimContext (test fixtures, CLI
  // setup) need backing storage; domain hot paths never reach this — the
  // Simulator installs its context for the whole run.
  // APIARY-SHARED(process): catch-all arena for out-of-domain PayloadBufs.
  static PayloadArena arena;
  return arena;
}

}  // namespace apiary
