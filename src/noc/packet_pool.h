// PacketPool: recycles NocPacket objects so the executed-cycle message path
// never heap-allocates in steady state.
//
// Ownership protocol (DESIGN.md "Hot-path memory discipline"):
//   * Acquire() hands out a PacketRef to a reset packet — from the freelist
//     after warmup, from the heap only while the pool is still growing.
//   * Every holder (flits in router buffers, NI queues, the delivery queue)
//     shares the same intrusive refcount; when the last PacketRef drops,
//     the packet returns to its pool automatically. There is no explicit
//     free and therefore no way for a dropped/corrupted/mid-flight packet
//     to leak — the chaos campaigns in tests/packet_pool_test.cc verify
//     the acquire/release balance end-to-end.
//   * The pool grows to the traffic's natural high-water mark (bounded by
//     router buffers + NI queues + delivery queues). Packets built outside
//     any pool (pool == nullptr, e.g. by tests) delete on release.
//
// Determinism: recycling changes packet *addresses* only. Every
// simulation-observable field is reset on release, so a recycled packet is
// indistinguishable from a fresh one (tests/packet_pool_test.cc).
#ifndef SRC_NOC_PACKET_POOL_H_
#define SRC_NOC_PACKET_POOL_H_

#include <cstdint>
#include <vector>

#include "src/noc/packet.h"

namespace apiary {

// Exported to bench/b2_hot_path: allocations/message and the reuse ratio
// come straight from these.
struct PacketPoolStats {
  uint64_t acquires = 0;     // Total Acquire() calls.
  uint64_t pool_hits = 0;    // Served from the freelist.
  uint64_t heap_allocs = 0;  // Fell through to operator new.
  uint64_t releases = 0;     // Pooled packets returned.
  uint32_t live = 0;         // Pooled packets currently out.
  uint32_t high_water = 0;   // Max simultaneous live.
  uint32_t free_size = 0;    // Packets parked in the freelist.
};

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  // Hands out a reset packet. Never returns null.
  PacketRef Acquire();

  // Called by PacketRef when the last reference drops (via ReleasePacket).
  void Release(NocPacket* packet);

  const PacketPoolStats& stats() const { return stats_; }
  void ResetStats();

 private:
  std::vector<NocPacket*> free_;
  PacketPoolStats stats_;
};

}  // namespace apiary

#endif  // SRC_NOC_PACKET_POOL_H_
