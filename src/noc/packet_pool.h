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
//   * An optional max_packets cap bounds pool growth; past it, Acquire()
//     falls back to plain heap packets (pool == nullptr) that delete on
//     release, so overload degrades to the old allocation behavior instead
//     of failing.
//
// Determinism: recycling changes packet *addresses* only. Every
// simulation-visible field is reset on release, so a recycled packet is
// indistinguishable from a fresh one (tests/packet_pool_test.cc).
#ifndef SRC_NOC_PACKET_POOL_H_
#define SRC_NOC_PACKET_POOL_H_

#include <cstdint>
#include <vector>

#include "src/noc/packet.h"
#include "src/sim/sim_context.h"

namespace apiary {

// Exported to bench/b2_hot_path: allocations/message and the reuse ratio
// come straight from these.
struct PacketPoolStats {
  uint64_t acquires = 0;             // Total Acquire() calls.
  uint64_t pool_hits = 0;            // Served from the freelist.
  uint64_t heap_allocs = 0;          // Fell through to operator new.
  uint64_t releases = 0;             // Pooled packets returned.
  uint64_t exhausted_fallbacks = 0;  // Cap hit: unpooled heap packet.
  uint32_t live = 0;                 // Pooled packets currently out.
  uint32_t high_water = 0;           // Max simultaneous live.
  uint32_t free_size = 0;            // Packets parked in the freelist.
};

class PacketPool {
 public:
  // max_packets == 0: the pool grows to the traffic's natural high-water
  // mark (bounded by router buffers + NI queues + delivery queues).
  explicit PacketPool(uint32_t max_packets = 0) : max_packets_(max_packets) {}
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  // Hands out a reset packet. Never returns null.
  PacketRef Acquire();

  // Called by PacketRef when the last reference drops (via ReleasePacket).
  void Release(NocPacket* packet);

  const PacketPoolStats& stats() const { return stats_; }
  void ResetStats();

  // The domain-local pool for `context`, created on first use in the
  // context's PacketPool slot (destroyed with the context). This replaced
  // the old process-wide Default() pool: every simulation domain now
  // recycles packets privately, so concurrent Simulators never contend.
  static PacketPool& ForContext(SimContext& context);

 private:
  uint32_t max_packets_;
  std::vector<NocPacket*> free_;
  PacketPoolStats stats_;
};

}  // namespace apiary

#endif  // SRC_NOC_PACKET_POOL_H_
