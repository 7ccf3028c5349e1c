// Memory controller: couples a byte-addressable backing store (so simulated
// accelerators move real data) with the DRAM timing model.
#ifndef SRC_MEM_MEMORY_CONTROLLER_H_
#define SRC_MEM_MEMORY_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/mem/dram.h"
#include "src/mem/memory_backend.h"
#include "src/sim/clocked.h"

namespace apiary {

// The backing store is paged: a page is allocated (zeroed) on its first
// write, and memory never written reads as zeros. Modelled capacity costs the
// host one pointer per page until it is written.
inline constexpr uint64_t kStorePageBytes = 64 * 1024;

class MemoryController : public Clocked, public MemoryBackend {
 public:
  explicit MemoryController(DramConfig config);

  // Asynchronous read: `out` must stay alive until `done` runs. Returns
  // false on backpressure (bank queue full); the caller retries next cycle.
  // Both submits wake the controller (callers are service ticks).
  bool SubmitRead(uint64_t addr, std::span<uint8_t> out,
                  std::function<void(Cycle)> done) override;

  // Asynchronous write: data is copied into the store immediately (the model
  // has no reorder window); `done` fires when the DRAM timing completes.
  bool SubmitWrite(uint64_t addr, std::span<const uint8_t> data,
                   std::function<void(Cycle)> done) override;

  // Zero-latency debug access for tests and for constructing initial state.
  void DebugWrite(uint64_t addr, std::span<const uint8_t> data) override;
  std::vector<uint8_t> DebugRead(uint64_t addr, uint64_t len) const override;

  BitFlipResult InjectBitFlip(uint64_t addr, uint32_t bit) override;
  void SetEccEnabled(bool enabled) override { ecc_enabled_ = enabled; }

  void Tick(Cycle now) override { dram_.Tick(now); }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return dram_.NextActivity(now);
  }
  std::string DebugName() const override { return "memctl"; }

  uint64_t capacity() const override { return capacity_; }
  const CounterSet& counters() const { return dram_.counters(); }

 private:
  // A read waiting on DRAM timing. The DRAM completion carries only the
  // slot index, so it fits std::function's inline buffer.
  struct PendingRead {
    uint64_t addr = 0;
    std::span<uint8_t> out;
    std::function<void(Cycle)> done;
  };

  bool InBounds(uint64_t addr, uint64_t len) const {
    return addr <= capacity_ && len <= capacity_ - addr;
  }
  // The page holding `addr`, allocated zeroed if it was never written.
  uint8_t* WritablePage(uint64_t addr);
  // Page-split copies; unwritten pages read as zeros.
  void CopyIn(uint64_t addr, std::span<const uint8_t> data);
  void CopyOut(uint64_t addr, std::span<uint8_t> out) const;
  void CompleteRead(uint32_t slot, Cycle now);

  DramChannel dram_;
  uint64_t capacity_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  std::vector<PendingRead> reads_;
  std::vector<uint32_t> free_reads_;
  bool ecc_enabled_ = false;
};

}  // namespace apiary

#endif  // SRC_MEM_MEMORY_CONTROLLER_H_
