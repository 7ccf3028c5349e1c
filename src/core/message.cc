#include "src/core/message.h"

namespace apiary {
namespace {

// Fixed header layout (little-endian):
//   u32 dst_service, u8 kind, u16 opcode, u8 status, u64 request_id,
//   u32 dst_process, u32 src_tile, u32 src_service, u32 src_app,
//   2 x (u64 grant.base, u64 grant.length, u8 grant flags), u32 payload_len
static_assert(kMessageHeaderBytes <= kPacketHeadBytes,
              "message header must fit the packet head-flit region");

void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | (static_cast<uint16_t>(p[1]) << 8);
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// Writes the fixed header (everything but the payload bytes) into `out`,
// which must hold kMessageHeaderBytes.
void WriteHeader(const Message& msg, uint8_t* out) {
  size_t off = 0;
  StoreU32(out + off, msg.dst_service);
  off += 4;
  out[off++] = static_cast<uint8_t>(msg.kind);
  StoreU16(out + off, msg.opcode);
  off += 2;
  out[off++] = static_cast<uint8_t>(msg.status);
  StoreU64(out + off, msg.request_id);
  off += 8;
  StoreU32(out + off, msg.dst_process);
  off += 4;
  StoreU32(out + off, msg.src_tile);
  off += 4;
  StoreU32(out + off, msg.src_service);
  off += 4;
  StoreU32(out + off, msg.src_app);
  off += 4;
  for (const SegmentGrant* grant : {&msg.grant, &msg.grant2}) {
    StoreU64(out + off, grant->segment.base);
    off += 8;
    StoreU64(out + off, grant->segment.length);
    off += 8;
    out[off++] = static_cast<uint8_t>(
        (grant->valid ? 1 : 0) | (grant->can_read ? 2 : 0) | (grant->can_write ? 4 : 0) |
        (grant->can_grant ? 8 : 0));
  }
  StoreU32(out + off, static_cast<uint32_t>(msg.payload.size()));
}

// Grant flag bits WriteHeader can emit; a byte with any other bit set is not
// an encoding of any message.
constexpr uint8_t kGrantFlagBits = 0x0f;

// Parses the fixed header from `bytes` (at least kMessageHeaderBytes) and
// stores the payload length it declares in *payload_len. Returns false when
// the header is not one WriteHeader can produce, so every accepted header
// re-serializes to the same bytes.
bool ParseHeader(const uint8_t* bytes, Message* msg, uint32_t* payload_len) {
  size_t off = 0;
  msg->dst_service = LoadU32(bytes + off);
  off += 4;
  msg->kind = static_cast<MsgKind>(bytes[off++]);
  msg->opcode = LoadU16(bytes + off);
  off += 2;
  msg->status = static_cast<MsgStatus>(bytes[off++]);
  msg->request_id = LoadU64(bytes + off);
  off += 8;
  msg->dst_process = LoadU32(bytes + off);
  off += 4;
  msg->src_tile = LoadU32(bytes + off);
  off += 4;
  msg->src_service = LoadU32(bytes + off);
  off += 4;
  msg->src_app = LoadU32(bytes + off);
  off += 4;
  for (SegmentGrant* grant : {&msg->grant, &msg->grant2}) {
    grant->segment.base = LoadU64(bytes + off);
    off += 8;
    grant->segment.length = LoadU64(bytes + off);
    off += 8;
    const uint8_t flags = bytes[off++];
    if ((flags & ~kGrantFlagBits) != 0) {
      return false;
    }
    grant->valid = (flags & 1) != 0;
    grant->can_read = (flags & 2) != 0;
    grant->can_write = (flags & 4) != 0;
    grant->can_grant = (flags & 8) != 0;
  }
  *payload_len = LoadU32(bytes + off);
  return true;
}

}  // namespace

void PutU32(PayloadBuf& buf, uint32_t v) {
  buf.reserve(buf.size() + 4);
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(PayloadBuf& buf, uint64_t v) {
  buf.reserve(buf.size() + 8);
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const PayloadBuf& buf, size_t offset) { return LoadU32(buf.data() + offset); }

uint64_t GetU64(const PayloadBuf& buf, size_t offset) { return LoadU64(buf.data() + offset); }

void PutU32(std::vector<uint8_t>& buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>& buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const std::vector<uint8_t>& buf, size_t offset) {
  return LoadU32(buf.data() + offset);
}

uint64_t GetU64(const std::vector<uint8_t>& buf, size_t offset) {
  return LoadU64(buf.data() + offset);
}

const char* MsgStatusName(MsgStatus status) {
  switch (status) {
    case MsgStatus::kOk:
      return "ok";
    case MsgStatus::kNoCapability:
      return "no_capability";
    case MsgStatus::kRateLimited:
      return "rate_limited";
    case MsgStatus::kBackpressure:
      return "backpressure";
    case MsgStatus::kNoSuchService:
      return "no_such_service";
    case MsgStatus::kDestFailed:
      return "dest_failed";
    case MsgStatus::kDenied:
      return "denied";
    case MsgStatus::kBadRequest:
      return "bad_request";
    case MsgStatus::kSegFault:
      return "seg_fault";
    case MsgStatus::kNoMemory:
      return "no_memory";
    case MsgStatus::kRevoked:
      return "revoked";
    case MsgStatus::kTileStopped:
      return "tile_stopped";
    case MsgStatus::kNotFound:
      return "not_found";
  }
  return "unknown";
}

size_t Message::WireBytes() const { return kMessageHeaderBytes + payload.size(); }

void SerializeMessageInto(Message&& msg, NocPacket& packet) {
  packet.head_len = static_cast<uint16_t>(kMessageHeaderBytes);
  WriteHeader(msg, packet.head.data());
  packet.payload = std::move(msg.payload);
#ifndef NDEBUG
  // Eager stamp, checked by CorruptWireBit and at ejection.
  packet.checksum = PacketWireChecksum(packet);
#endif
}

std::optional<Message> DeserializeMessage(NocPacket& packet) {
  if (packet.head_len == 0) {
    // Hand-built packet (tests, raw injectors): the whole contiguous wire
    // image lives in the payload.
    return DeserializeMessage(packet.payload.ToVector());
  }
  if (packet.head_len != kMessageHeaderBytes) {
    return std::nullopt;
  }
  Message msg;
  uint32_t payload_len = 0;
  if (!ParseHeader(packet.head.data(), &msg, &payload_len) ||
      payload_len != packet.payload.size()) {
    return std::nullopt;
  }
  msg.payload = std::move(packet.payload);
  return msg;
}

std::vector<uint8_t> SerializeMessage(const Message& msg) {
  std::vector<uint8_t> out(msg.WireBytes());
  WriteHeader(msg, out.data());
  std::memcpy(out.data() + kMessageHeaderBytes, msg.payload.data(), msg.payload.size());
  return out;
}

std::optional<Message> DeserializeMessage(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kMessageHeaderBytes) {
    return std::nullopt;
  }
  Message msg;
  uint32_t payload_len = 0;
  if (!ParseHeader(bytes.data(), &msg, &payload_len) ||
      bytes.size() != kMessageHeaderBytes + payload_len) {
    return std::nullopt;
  }
  msg.payload.assign(bytes.data() + kMessageHeaderBytes, payload_len);
  return msg;
}

}  // namespace apiary
