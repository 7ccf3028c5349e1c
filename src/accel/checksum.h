// CRC32 checksum accelerator (and the pure function behind it). A small,
// common utility block — the kind of third-party tile the paper's
// composition story wants to make cheap to reuse.
#ifndef SRC_ACCEL_CHECKSUM_H_
#define SRC_ACCEL_CHECKSUM_H_

#include <cstdint>
#include <span>

#include "src/accel/accel_opcodes.h"
#include "src/accel/serial_engine.h"
#include "src/core/accelerator.h"

namespace apiary {

// CRC-32 (IEEE 802.3, reflected, init/xorout 0xffffffff).
uint32_t Crc32(std::span<const uint8_t> data);

class ChecksumAccelerator : public Accelerator {
 public:
  explicit ChecksumAccelerator(uint32_t bytes_per_cycle = 8)
      : bytes_per_cycle_(bytes_per_cycle) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override { engine_.Drain(api); }
  // APIARY-WAKE(tile): hosted accelerator — the owning Tile's NI sink wake
  // ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return engine_.NextActivity(now); }

  std::string name() const override { return "checksum"; }
  uint32_t LogicCellCost() const override { return 4000; }
  uint64_t served() const { return engine_.done(); }

 private:
  uint32_t bytes_per_cycle_;
  SerialEngine engine_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_CHECKSUM_H_
