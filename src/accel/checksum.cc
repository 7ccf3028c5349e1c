#include "src/accel/checksum.h"

#include <algorithm>
#include <array>

namespace apiary {
namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void ChecksumAccelerator::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  if (msg.opcode != kOpChecksum) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  PayloadBuf crc;
  PutU32(crc, Crc32(msg.payload));
  const Cycle compute =
      std::max<Cycle>(1, msg.payload.size() / std::max<uint32_t>(1, bytes_per_cycle_));
  engine_.Submit(api.now(), compute, msg, kOpChecksum, std::move(crc));
}

}  // namespace apiary
