// The Apiary message: the single IPC primitive (Section 4.5).
//
// Accelerators compose a Message and hand it to their monitor together with
// a capability reference; the monitor validates, stamps the trusted header
// fields, and injects it onto the NoC. The wire format packs the header into
// the head-flit region of the packet and moves the payload alongside it —
// serialization is move-through: the header is written in place and the
// PayloadBuf payload changes owner without being recopied (DESIGN.md
// "Hot-path memory discipline").
#ifndef SRC_CORE_MESSAGE_H_
#define SRC_CORE_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/mem/segment_allocator.h"
#include "src/noc/packet.h"
#include "src/sim/payload_buf.h"
#include "src/sim/types.h"

namespace apiary {

// Result/status codes carried by responses and returned by Send().
enum class MsgStatus : uint8_t {
  kOk = 0,
  kNoCapability = 1,     // Sender holds no valid capability for this send.
  kRateLimited = 2,      // Monitor token bucket exhausted.
  kBackpressure = 3,     // NI injection queue full; retry.
  kNoSuchService = 4,    // Logical name does not resolve.
  kDestFailed = 5,       // Destination tile is fail-stopped.
  kDenied = 6,           // Destination monitor rejected the sender.
  kBadRequest = 7,       // Malformed request payload.
  kSegFault = 8,         // Memory access outside the presented segment.
  kNoMemory = 9,         // Allocation failure.
  kRevoked = 10,         // Capability generation is stale.
  kTileStopped = 11,     // Local tile is fail-stopped; send refused.
  kNotFound = 12,        // Application-level lookup miss (e.g. KV GET).
};

const char* MsgStatusName(MsgStatus status);

// Message kinds; requests travel on the request VC, responses on the
// response VC (breaking message-dependent deadlock, Section 4.5).
enum class MsgKind : uint8_t {
  kRequest = 0,
  kResponse = 1,
};

// A memory-segment grant attached by the *sending* monitor when the sender
// presents a memory capability alongside a send. Receivers (e.g. the memory
// service) trust it because only monitors can populate the field: the
// monitor overwrites whatever the untrusted accelerator wrote here.
struct SegmentGrant {
  Segment segment;
  bool can_read = false;
  bool can_write = false;
  // Dennis & Van Horn delegation: the holder may mint attenuated copies of
  // this capability for other tiles (through the memory service).
  bool can_grant = false;
  bool valid = false;
};

struct Message {
  // --- Untrusted fields (set by the sender's application logic). ---
  ServiceId dst_service = kInvalidService;
  MsgKind kind = MsgKind::kRequest;
  uint16_t opcode = 0;
  MsgStatus status = MsgStatus::kOk;  // Meaningful on responses.
  uint64_t request_id = 0;            // Request/response correlation.
  ProcessId dst_process = 0;          // Context within the destination.
  PayloadBuf payload;

  // --- Trusted fields (stamped by the sending monitor; receivers may rely
  //     on them for policy). ---
  TileId src_tile = kInvalidTile;
  ServiceId src_service = kInvalidService;
  AppId src_app = kInvalidApp;
  SegmentGrant grant;
  // Second grant for two-segment operations (e.g. DMA copy: source + dest).
  SegmentGrant grant2;

  // Serialized size in bytes (header + payload), determining flit count.
  size_t WireBytes() const;
};

// Fixed little-endian header size; static_asserted <= kPacketHeadBytes in
// message.cc so the whole header always fits the packet's head region.
inline constexpr size_t kMessageHeaderBytes =
    4 + 1 + 2 + 1 + 8 + 4 + 4 + 4 + 4 + 2 * (8 + 8 + 1) + 4;

// Move-through wire encoding: writes the header into packet.head and moves
// msg.payload into packet.payload (no copy). `msg` is consumed. No checksum
// is computed: NocPacket::CorruptWireBit stamps one if a fault touches the
// image (asserts-on builds also stamp here, to check that stamp).
void SerializeMessageInto(Message&& msg, NocPacket& packet);

// Move-through decode: parses packet.head and moves packet.payload out into
// the returned Message. Returns nullopt on a malformed header (the packet's
// payload is left untouched in that case).
std::optional<Message> DeserializeMessage(NocPacket& packet);

// Contiguous-buffer encoding, kept for tests and cold callers (state
// snapshots, golden vectors). The hot path never materializes this copy.
std::vector<uint8_t> SerializeMessage(const Message& msg);
std::optional<Message> DeserializeMessage(const std::vector<uint8_t>& bytes);

// Payload helpers used by services and accelerators; overloads for plain
// vectors remain for state snapshots and tests.
void PutU64(PayloadBuf& buf, uint64_t v);
void PutU32(PayloadBuf& buf, uint32_t v);
uint64_t GetU64(const PayloadBuf& buf, size_t offset);
uint32_t GetU32(const PayloadBuf& buf, size_t offset);
void PutU64(std::vector<uint8_t>& buf, uint64_t v);
void PutU32(std::vector<uint8_t>& buf, uint32_t v);
uint64_t GetU64(const std::vector<uint8_t>& buf, size_t offset);
uint32_t GetU32(const std::vector<uint8_t>& buf, size_t offset);

}  // namespace apiary

#endif  // SRC_CORE_MESSAGE_H_
