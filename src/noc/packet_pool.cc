#include "src/noc/packet_pool.h"

namespace apiary {
namespace {

// Scrubs every simulation-observable field so a recycled packet is
// indistinguishable from a freshly constructed one (determinism depends on
// this). The payload keeps its backing capacity — that reuse is the point.
void ResetPacket(NocPacket* packet) {
  packet->src = kInvalidTile;
  packet->dst = kInvalidTile;
  packet->vc = Vc::kRequest;
  packet->packet_id = 0;
  packet->inject_cycle = 0;
  packet->head_len = 0;
  packet->payload.clear();
  packet->checksum = 0;
  packet->wire_touched = false;
  packet->flit_count = 1;
  packet->dropped = false;
}

}  // namespace

void ReleasePacket(NocPacket* packet) {
  if (packet->pool != nullptr) {
    packet->pool->Release(packet);
  } else {
    delete packet;
  }
}

PacketPool::~PacketPool() {
  // Live packets (refs still out) keep a pointer to this pool; destroying
  // the pool under them is a caller bug. Pooled tests drain first.
  assert(stats_.live == 0);
  for (NocPacket* packet : free_) {
    delete packet;
  }
}

PacketRef PacketPool::Acquire() {
  ++stats_.acquires;
  NocPacket* packet = nullptr;
  if (!free_.empty()) {
    packet = free_.back();
    free_.pop_back();
    stats_.free_size = static_cast<uint32_t>(free_.size());
    ++stats_.pool_hits;
  } else {
    ++stats_.heap_allocs;
    packet = new NocPacket;
    packet->pool = this;
  }
  ++stats_.live;
  if (stats_.live > stats_.high_water) {
    stats_.high_water = stats_.live;
  }
  return PacketRef(packet);
}

void PacketPool::Release(NocPacket* packet) {
  ResetPacket(packet);
  free_.push_back(packet);
  stats_.free_size = static_cast<uint32_t>(free_.size());
  ++stats_.releases;
  --stats_.live;
}

void PacketPool::ResetStats() {
  const uint32_t live = stats_.live;
  const uint32_t free_size = stats_.free_size;
  stats_ = PacketPoolStats{};
  stats_.live = live;
  stats_.high_water = live;
  stats_.free_size = free_size;
}

}  // namespace apiary
