// Capabilities and the per-tile partitioned capability table.
//
// Section 4.6: "Capabilities are stored in a partitioned manner by having the
// Apiary monitor manage the capability list, so the accelerator can only
// obtain a reference to the capability and not the capability itself."
//
// A CapRef is an opaque (index, generation) handle; revocation bumps the
// slot generation so stale references fail closed.
#ifndef SRC_CORE_CAPABILITY_H_
#define SRC_CORE_CAPABILITY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/segment_allocator.h"
#include "src/sim/types.h"

namespace apiary {

enum class CapKind : uint8_t {
  kEndpoint,  // Right to send messages to (dst_tile, dst_service).
  kMemory,    // Right to access a physical memory segment.
};

// Rights bitmask.
enum CapRights : uint32_t {
  kRightSend = 1u << 0,
  kRightRead = 1u << 1,
  kRightWrite = 1u << 2,
  kRightGrant = 1u << 3,  // May mint derived (attenuated) capabilities.
};

struct Capability {
  CapKind kind = CapKind::kEndpoint;
  uint32_t rights = 0;

  // kEndpoint target.
  TileId dst_tile = kInvalidTile;
  ServiceId dst_service = kInvalidService;

  // kMemory target.
  Segment segment;

  bool HasRights(uint32_t required) const { return (rights & required) == required; }
};

// Encodes (slot index, generation) into the opaque 32-bit CapRef the
// accelerator holds: low 20 bits slot, high 12 bits generation.
[[nodiscard]] CapRef MakeCapRef(uint32_t slot, uint32_t generation);
uint32_t CapRefSlot(CapRef ref);
uint32_t CapRefGeneration(CapRef ref);

class CapabilityTable {
 public:
  explicit CapabilityTable(uint32_t max_entries = 64);

  // Installs a capability; returns the reference handed to the accelerator,
  // or kInvalidCapRef when the table is full. Dropping the result orphans
  // the slot until RevokeAll.
  [[nodiscard]] CapRef Install(const Capability& cap);

  // Returns the capability for a live, generation-matching reference.
  const Capability* Lookup(CapRef ref) const;

  // Revokes the slot; the generation bump invalidates outstanding refs.
  bool Revoke(CapRef ref);

  // Revokes every capability (used when a tile is reassigned to a new app).
  void RevokeAll();

  // Finds a live endpoint capability whose dst_service matches (the "table
  // that maps logical service names to underlying physical units", 4.3).
  [[nodiscard]] CapRef FindEndpointForService(ServiceId service) const;

  uint32_t live_count() const { return live_count_; }
  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }

 private:
  struct Slot {
    std::optional<Capability> cap;
    uint32_t generation = 0;
  };
  std::vector<Slot> slots_;
  uint32_t live_count_ = 0;
};

}  // namespace apiary

#endif  // SRC_CORE_CAPABILITY_H_
