#include "src/mem/memory_controller.h"

#include <algorithm>
#include <cstring>

namespace apiary {

MemoryController::MemoryController(DramConfig config) : store_(config.capacity_bytes, 0) {}

bool MemoryController::SubmitRead(uint64_t addr, std::span<uint8_t> out,
                                  std::function<void(Cycle)> done) {
  if (!InBounds(addr, out.size())) {
    return false;
  }
  // Copy at completion time so a racing write that lands before the DRAM
  // latency elapses is observed, matching a real controller's ordering point.
  auto copy_then_done = [this, addr, out, done = std::move(done)](Cycle now) {
    std::memcpy(out.data(), store_.data() + addr, out.size());
    if (done) {
      done(now);
    }
  };
  if (!dram_.Enqueue(addr, static_cast<uint32_t>(out.size()), /*is_write=*/false,
                     std::move(copy_then_done))) {
    return false;
  }
  RequestWake();
  return true;
}

bool MemoryController::SubmitWrite(uint64_t addr, std::span<const uint8_t> data,
                                   std::function<void(Cycle)> done) {
  if (!InBounds(addr, data.size())) {
    return false;
  }
  std::memcpy(store_.data() + addr, data.data(), data.size());
  if (!dram_.Enqueue(addr, static_cast<uint32_t>(data.size()), /*is_write=*/true,
                     std::move(done))) {
    return false;
  }
  RequestWake();
  return true;
}

void MemoryController::DebugWrite(uint64_t addr, std::span<const uint8_t> data) {
  if (InBounds(addr, data.size())) {
    std::memcpy(store_.data() + addr, data.data(), data.size());
  }
}

BitFlipResult MemoryController::InjectBitFlip(uint64_t addr, uint32_t bit) {
  if (addr >= store_.size()) {
    return BitFlipResult::kOutOfRange;
  }
  if (ecc_enabled_) {
    // SECDED corrects isolated single-bit flips before they reach the bus.
    return BitFlipResult::kCorrectedByEcc;
  }
  store_[addr] ^= static_cast<uint8_t>(1u << (bit & 7));
  return BitFlipResult::kCorrupted;
}

std::vector<uint8_t> MemoryController::DebugRead(uint64_t addr, uint64_t len) const {
  std::vector<uint8_t> out;
  if (InBounds(addr, len)) {
    out.assign(store_.begin() + static_cast<ptrdiff_t>(addr),
               store_.begin() + static_cast<ptrdiff_t>(addr + len));
  }
  return out;
}

}  // namespace apiary
