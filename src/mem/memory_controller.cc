#include "src/mem/memory_controller.h"

#include <algorithm>
#include <cstring>

namespace apiary {

MemoryController::MemoryController(DramConfig config)
    : capacity_(config.capacity_bytes),
      pages_((config.capacity_bytes + kStorePageBytes - 1) / kStorePageBytes) {}

uint8_t* MemoryController::WritablePage(uint64_t addr) {
  std::unique_ptr<uint8_t[]>& page = pages_[addr / kStorePageBytes];
  if (page == nullptr) {
    page = std::make_unique<uint8_t[]>(kStorePageBytes);
  }
  return page.get();
}

void MemoryController::CopyIn(uint64_t addr, std::span<const uint8_t> data) {
  while (!data.empty()) {
    const uint64_t offset = addr % kStorePageBytes;
    const size_t n = std::min<size_t>(data.size(), kStorePageBytes - offset);
    std::memcpy(WritablePage(addr) + offset, data.data(), n);
    addr += n;
    data = data.subspan(n);
  }
}

void MemoryController::CopyOut(uint64_t addr, std::span<uint8_t> out) const {
  while (!out.empty()) {
    const uint64_t offset = addr % kStorePageBytes;
    const size_t n = std::min<size_t>(out.size(), kStorePageBytes - offset);
    const uint8_t* page = pages_[addr / kStorePageBytes].get();
    if (page != nullptr) {
      std::memcpy(out.data(), page + offset, n);
    } else {
      std::memset(out.data(), 0, n);
    }
    addr += n;
    out = out.subspan(n);
  }
}

bool MemoryController::SubmitRead(uint64_t addr, std::span<uint8_t> out,
                                  std::function<void(Cycle)> done) {
  if (!InBounds(addr, out.size())) {
    return false;
  }
  uint32_t slot = static_cast<uint32_t>(reads_.size());
  if (free_reads_.empty()) {
    reads_.emplace_back();
  } else {
    slot = free_reads_.back();
    free_reads_.pop_back();
  }
  reads_[slot] = PendingRead{addr, out, std::move(done)};
  // Copy at completion time so a racing write that lands before the DRAM
  // latency elapses is observed, matching a real controller's ordering point.
  if (!dram_.Enqueue(addr, static_cast<uint32_t>(out.size()), /*is_write=*/false,
                     [this, slot](Cycle now) { CompleteRead(slot, now); })) {
    reads_[slot].done = nullptr;
    free_reads_.push_back(slot);
    return false;
  }
  RequestWake();
  return true;
}

void MemoryController::CompleteRead(uint32_t slot, Cycle now) {
  // Free the slot before `done` runs: it may submit the next read.
  PendingRead read = std::move(reads_[slot]);
  free_reads_.push_back(slot);
  CopyOut(read.addr, read.out);
  if (read.done) {
    read.done(now);
  }
}

bool MemoryController::SubmitWrite(uint64_t addr, std::span<const uint8_t> data,
                                   std::function<void(Cycle)> done) {
  if (!InBounds(addr, data.size())) {
    return false;
  }
  CopyIn(addr, data);
  if (!dram_.Enqueue(addr, static_cast<uint32_t>(data.size()), /*is_write=*/true,
                     std::move(done))) {
    return false;
  }
  RequestWake();
  return true;
}

void MemoryController::DebugWrite(uint64_t addr, std::span<const uint8_t> data) {
  if (InBounds(addr, data.size())) {
    CopyIn(addr, data);
  }
}

BitFlipResult MemoryController::InjectBitFlip(uint64_t addr, uint32_t bit) {
  if (addr >= capacity_) {
    return BitFlipResult::kOutOfRange;
  }
  if (ecc_enabled_) {
    // SECDED corrects isolated single-bit flips before they reach the bus.
    return BitFlipResult::kCorrectedByEcc;
  }
  WritablePage(addr)[addr % kStorePageBytes] ^= static_cast<uint8_t>(1u << (bit & 7));
  return BitFlipResult::kCorrupted;
}

std::vector<uint8_t> MemoryController::DebugRead(uint64_t addr, uint64_t len) const {
  std::vector<uint8_t> out;
  if (InBounds(addr, len)) {
    out.resize(len);
    CopyOut(addr, out);
  }
  return out;
}

}  // namespace apiary
