// PayloadArena: the size-classed chunk allocator behind PayloadBuf's heap
// tier.
//
// Historically this was a process-wide Meyers static inside payload_buf.cc.
// That made every payload allocation a write to shared state — a hidden
// global that two simulators in one process would both write.
// The arena is now an explicit object: each SimContext owns one, so every
// simulation domain recycles chunks privately, and a process fallback arena
// (annotated APIARY-SHARED) serves code running outside any domain.
//
// Lifetime protocol: a PayloadBuf records the arena its chunk came from and
// always releases back to it, so chunks never migrate between domains. A
// SimContext tearing down while chunks are still outstanding calls Retire():
// the arena flips to drain mode (releases go straight to the heap) and
// self-deletes when the last chunk lands. Single-threaded per domain — the
// protocol needs no locks, which is the whole point.
#ifndef SRC_SIM_PAYLOAD_ARENA_H_
#define SRC_SIM_PAYLOAD_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace apiary {

// Observability for a chunk arena: the hot-path benchmark (bench/b2)
// derives "heap allocations per message" from these.
struct PayloadArenaStats {
  uint64_t chunk_acquires = 0;  // Requests for heap-tier backing.
  uint64_t chunk_reuses = 0;    // Served from a freelist (no heap call).
  uint64_t chunk_allocs = 0;    // Fell through to operator new.
  uint64_t chunk_releases = 0;  // Chunks returned (freelist or heap).
  uint64_t live_chunks = 0;     // Outstanding (acquired - released).
  uint64_t freelist_bytes = 0;  // Capacity parked in the freelists.
};

class PayloadArena {
 public:
  // Size classes: 128B, 256B, ... 1MB. Larger-than-1MB requests (none exist
  // today — the NI bounds packets well below that) fall through to plain
  // new/delete and are counted as allocs.
  static constexpr size_t kMinChunkBytes = 128;
  static constexpr int kNumClasses = 14;  // 128 << 13 == 1MB.

  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  // Parked chunks are a cache, not a leak: hand them back at destruction so
  // the sanitized CI job sees a clean shutdown.
  ~PayloadArena() { Trim(); }

  // Returns a chunk of at least `min_bytes`; actual capacity (the size
  // class, or min_bytes when oversized) lands in *capacity.
  uint8_t* Acquire(size_t min_bytes, size_t* capacity);

  // Returns a chunk previously handed out by *this* arena. In drain mode
  // the chunk goes straight to the heap, and the last release deletes the
  // arena itself.
  void Release(uint8_t* chunk, size_t capacity);

  // Frees every parked freelist chunk (leak-audit hook for tests).
  void Trim();

  const PayloadArenaStats& stats() const { return stats_; }
  void ResetStats();

  // Owning-SimContext teardown. Requires a heap-allocated arena: either
  // deletes it immediately (no chunks outstanding) or flips it to drain
  // mode so late releases from surviving PayloadBufs stay safe.
  void Retire();

 private:
  std::vector<uint8_t*> freelists_[kNumClasses];
  PayloadArenaStats stats_;
  bool retired_ = false;
};

// The process fallback arena, used by PayloadBufs created while no
// SimContext is installed on the current thread (test setup, CLI parsing).
// Deliberately process-shared; see the annotation at the definition.
PayloadArena& FallbackPayloadArena();

}  // namespace apiary

#endif  // SRC_SIM_PAYLOAD_ARENA_H_
