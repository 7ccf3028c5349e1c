// Encryption accelerator: XTEA in CTR mode — a small, real block cipher of
// the kind multi-tenant boards host for at-rest/in-flight data protection
// (the "security" flavor of the paper's composable third-party tiles).
//
// XTEA (Needham & Wheeler, 1997): 64-bit block, 128-bit key, 64 Feistel
// rounds. CTR mode turns it into a stream cipher, so encrypt == decrypt and
// arbitrary payload lengths work without padding.
#ifndef SRC_ACCEL_CRYPTO_H_
#define SRC_ACCEL_CRYPTO_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/accel/serial_engine.h"
#include "src/core/accelerator.h"

namespace apiary {

// One XTEA block encryption (64 rounds), the primitive the engine pipelines.
void XteaEncryptBlock(const std::array<uint32_t, 4>& key, uint32_t v[2]);

// CTR-mode keystream transform of `data` (in place semantics via return).
std::vector<uint8_t> XteaCtr(const std::array<uint32_t, 4>& key, uint64_t nonce,
                             std::span<const uint8_t> data);

// Request (kOpEncrypt): u64 nonce, data. Reply: transformed data. The key
// is provisioned at deploy time (a per-tenant secret the kernel installs —
// never carried in messages).
inline constexpr uint16_t kOpEncrypt = kOpAppBase + 9;

class CryptoAccelerator : public Accelerator {
 public:
  // `bytes_per_cycle` models the pipelined engine's throughput (a 64-round
  // XTEA core at ~1 block per 2 cycles is ~4 B/cycle).
  explicit CryptoAccelerator(std::array<uint32_t, 4> key, uint32_t bytes_per_cycle = 4)
      : key_(key), bytes_per_cycle_(bytes_per_cycle) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override { engine_.Drain(api); }
  // APIARY-WAKE(tile): hosted accelerator — the owning Tile's NI sink wake
  // ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return engine_.NextActivity(now); }

  std::string name() const override { return "crypto"; }
  uint32_t LogicCellCost() const override { return 12000; }
  uint64_t served() const { return engine_.done(); }

 private:
  std::array<uint32_t, 4> key_;
  uint32_t bytes_per_cycle_;
  SerialEngine engine_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_CRYPTO_H_
