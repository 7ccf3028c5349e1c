// NoC wire format: packets and flits.
//
// The NoC layer is deliberately ignorant of Apiary message semantics: it
// moves opaque bytes between tiles. Service naming, capabilities and
// policy all live one layer up in the monitor (Section 4.3: "the NoC allows
// us to move service naming to an API-layer interface").
//
// Hot-path memory discipline (DESIGN.md): packets are recycled through a
// PacketPool rather than heap-allocated per message, and are shared between
// their in-flight flits via the intrusive, non-atomic PacketRef instead of
// std::shared_ptr — the simulator is single-threaded, so every flit hop
// paying for atomic refcount traffic bought nothing. The wire image is
// split into a fixed head region (the serialized message header, filled in
// place by SerializeMessageInto) and a PayloadBuf payload (moved, never
// copied, from the sending Message); together they are what the flit count
// and the end-to-end checksum cover.
#ifndef SRC_NOC_PACKET_H_
#define SRC_NOC_PACKET_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

#include "src/sim/payload_buf.h"
#include "src/sim/types.h"

namespace apiary {

class PacketPool;

// Virtual channels. Two VCs break message-dependent (request-response)
// deadlock cycles, per the deadlock literature the paper cites in 4.5.
enum class Vc : uint8_t {
  kRequest = 0,
  kResponse = 1,
};
inline constexpr int kNumVcs = 2;

// Width of a flit's data path. One head flit carries routing info; the wire
// image (head region + payload) rides in kFlitBytes-wide body flits.
inline constexpr uint32_t kFlitBytes = 32;

// Fixed head region: three flits' worth, enough for the core message
// header (70 bytes — message.cc static_asserts its layout fits here).
inline constexpr uint32_t kPacketHeadBytes = 3 * kFlitBytes;

// Arbitration classes for weighted bandwidth sharing. Class 0 is the
// default (kernel/services/unassigned traffic); tenants are mapped onto
// classes 1..kNumArbClasses-1 by the tenant manager. Routers with no
// configured weights ignore the field entirely.
inline constexpr int kNumArbClasses = 8;

struct NocPacket {
  TileId src = kInvalidTile;
  TileId dst = kInvalidTile;
  Vc vc = Vc::kRequest;
  // Bandwidth-arbitration class, stamped by the injecting monitor/NI.
  // Pooled packets are recycled without field resets, so every injection
  // site must assign it.
  uint8_t arb_class = 0;
  uint64_t packet_id = 0;
  Cycle inject_cycle = 0;
  // Serialized message header, written in place by SerializeMessageInto;
  // head_len == 0 for hand-built (header-less) packets.
  uint16_t head_len = 0;
  std::array<uint8_t, kPacketHeadBytes> head{};
  PayloadBuf payload;
  // End-to-end checksum of the intact wire image, stamped by the first
  // CorruptWireBit, which sets wire_touched. The ejecting NI re-hashes only
  // touched packets: corruption is *detected*, never silently consumed.
  uint32_t checksum = 0;
  bool wire_touched = false;
  // Flit count cached at injection so the per-hop is_tail() test is one
  // compare instead of a division through a pointer chase; the ejecting NI
  // asserts it still matches the wire size.
  uint32_t flit_count = 1;
  // Set when a link fault dropped one of this packet's flits in flight. The
  // remaining flits still traverse the wormhole path (preserving router
  // state) but the ejecting NI discards the packet.
  bool dropped = false;

  // Intrusive lifetime state, managed by PacketRef / PacketPool.
  uint32_t refs = 0;
  PacketPool* pool = nullptr;

  // The bytes the flit count and checksum cover: head region + payload.
  size_t wire_bytes() const { return head_len + payload.size(); }
  // XORs `mask` into wire byte `index`. The one in-flight writer of a wire
  // image; only src/fault/ calls it (apiary-wire-writer).
  void CorruptWireBit(size_t index, uint8_t mask);
};

// Defined in packet_pool.cc: returns the packet to its pool, or deletes it
// when it was heap-allocated (pool exhaustion).
void ReleasePacket(NocPacket* packet);

// Intrusive non-atomic refcounted handle shared by a packet's flits and the
// delivery queue. When the last reference drops, the packet returns to its
// PacketPool (or the heap) — there is no control block to allocate and no
// atomic traffic on the per-hop copies.
class PacketRef {
 public:
  PacketRef() = default;
  // Adopts `packet`, adding one reference.
  explicit PacketRef(NocPacket* packet) : packet_(packet) {
    if (packet_ != nullptr) {
      ++packet_->refs;
    }
  }
  PacketRef(const PacketRef& other) : packet_(other.packet_) {
    if (packet_ != nullptr) {
      ++packet_->refs;
    }
  }
  PacketRef(PacketRef&& other) noexcept : packet_(other.packet_) { other.packet_ = nullptr; }
  PacketRef& operator=(const PacketRef& other) {
    if (this != &other) {
      Reset();
      packet_ = other.packet_;
      if (packet_ != nullptr) {
        ++packet_->refs;
      }
    }
    return *this;
  }
  PacketRef& operator=(PacketRef&& other) noexcept {
    if (this != &other) {
      Reset();
      packet_ = other.packet_;
      other.packet_ = nullptr;
    }
    return *this;
  }
  ~PacketRef() { Reset(); }

  NocPacket* get() const { return packet_; }
  NocPacket& operator*() const { return *packet_; }
  NocPacket* operator->() const { return packet_; }
  explicit operator bool() const { return packet_ != nullptr; }
  friend bool operator==(const PacketRef& a, std::nullptr_t) { return a.packet_ == nullptr; }
  friend bool operator!=(const PacketRef& a, std::nullptr_t) { return a.packet_ != nullptr; }

  void Reset() {
    if (packet_ != nullptr && --packet_->refs == 0) {
      ReleasePacket(packet_);
    }
    packet_ = nullptr;
  }

 private:
  NocPacket* packet_ = nullptr;
};

// FNV-1a running update; cheap stand-in for a per-packet CRC. Exposed so
// the serializer can fold the head region and payload into one logical pass
// without materializing a contiguous wire copy.
inline uint32_t ChecksumUpdate(uint32_t h, const uint8_t* bytes, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * 16777619u;
  }
  return h;
}

inline constexpr uint32_t kChecksumSeed = 2166136261u;

// Checksum over a packet's full wire image (head region, then payload —
// byte-identical to hashing the old contiguous serialization).
inline uint32_t PacketWireChecksum(const NocPacket& packet) {
  const uint32_t h = ChecksumUpdate(kChecksumSeed, packet.head.data(), packet.head_len);
  return ChecksumUpdate(h, packet.payload.data(), packet.payload.size());
}

inline void NocPacket::CorruptWireBit(size_t index, uint8_t mask) {
  if (!wire_touched) {
    assert(checksum == PacketWireChecksum(*this));  // Asserts-on builds stamp eagerly.
    checksum = PacketWireChecksum(*this);
    wire_touched = true;
  }
  (index < head_len ? head[index] : payload.data()[index - head_len]) ^= mask;
}

// Number of flits a packet occupies on the wire: one head flit plus the
// wire image in kFlitBytes chunks. Evaluated once at injection (cached in
// NocPacket::flit_count), not per hop.
inline uint32_t ComputeFlitCount(const NocPacket& packet) {
  return 1 + static_cast<uint32_t>((packet.wire_bytes() + kFlitBytes - 1) / kFlitBytes);
}

// A flit in flight: a reference into its parent packet. The packet object is
// shared by all of its flits and handed to the destination NI when the tail
// arrives.
struct Flit {
  PacketRef packet;
  uint32_t index = 0;

  bool is_head() const { return index == 0; }
  bool is_tail() const { return index + 1 == packet->flit_count; }
  TileId dst() const { return packet->dst; }
  Vc vc() const { return packet->vc; }
};

}  // namespace apiary

#endif  // SRC_NOC_PACKET_H_
