#include "src/accel/crypto.h"

#include <algorithm>

#include "src/core/message.h"

namespace apiary {

void XteaEncryptBlock(const std::array<uint32_t, 4>& key, uint32_t v[2]) {
  uint32_t v0 = v[0];
  uint32_t v1 = v[1];
  uint32_t sum = 0;
  constexpr uint32_t kDelta = 0x9e3779b9;
  for (int i = 0; i < 32; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  v[0] = v0;
  v[1] = v1;
}

std::vector<uint8_t> XteaCtr(const std::array<uint32_t, 4>& key, uint64_t nonce,
                             std::span<const uint8_t> data) {
  std::vector<uint8_t> out(data.begin(), data.end());
  uint64_t counter = 0;
  for (size_t offset = 0; offset < out.size(); offset += 8, ++counter) {
    uint32_t block[2] = {static_cast<uint32_t>(nonce ^ counter),
                         static_cast<uint32_t>((nonce >> 32) + counter)};
    XteaEncryptBlock(key, block);
    uint8_t keystream[8];
    for (int i = 0; i < 4; ++i) {
      keystream[i] = static_cast<uint8_t>(block[0] >> (8 * i));
      keystream[4 + i] = static_cast<uint8_t>(block[1] >> (8 * i));
    }
    const size_t chunk = std::min<size_t>(8, out.size() - offset);
    for (size_t i = 0; i < chunk; ++i) {
      out[offset + i] ^= keystream[i];
    }
  }
  return out;
}

void CryptoAccelerator::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  if (msg.opcode != kOpEncrypt || msg.payload.size() < 8) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  const uint64_t nonce = GetU64(msg.payload, 0);
  const std::span<const uint8_t> data(msg.payload.data() + 8, msg.payload.size() - 8);
  const Cycle compute = std::max<Cycle>(1, data.size() / std::max<uint32_t>(1, bytes_per_cycle_));
  engine_.Submit(api.now(), compute, msg, kOpEncrypt, PayloadBuf(XteaCtr(key_, nonce, data)));
}

}  // namespace apiary
