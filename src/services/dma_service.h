// The Apiary DMA service: capability-checked segment-to-segment copies.
//
// Large data movement between accelerators' segments (e.g. handing a frame
// buffer from one pipeline stage to the next) shouldn't stream every byte
// through messages. The DMA service performs the copy at the memory
// controller, but only within the *two* segment grants the requester's
// monitor attached — source must be readable, destination writable, and both
// ranges in bounds. A single message thus moves megabytes with the same
// isolation guarantees as a 4-byte access (Sections 4.5/4.6).
#ifndef SRC_SERVICES_DMA_SERVICE_H_
#define SRC_SERVICES_DMA_SERVICE_H_

#include <deque>
#include <memory>

#include "src/core/accelerator.h"
#include "src/mem/memory_controller.h"
#include "src/services/opcodes.h"
#include "src/stats/summary.h"

namespace apiary {

// The engine's burst size: the copy is issued to DRAM in chunks, so timing
// reflects both the read and write streams.
inline constexpr uint32_t kDmaChunkBytes = 512;

class DmaService : public Accelerator {
 public:
  explicit DmaService(MemoryBackend* memory) : memory_(memory) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Tick issues reads, retries refused writes and completes jobs; with no
  // job queued it has nothing to do.
  // APIARY-WAKE(tile): copy requests arrive through the owning Tile's NI
  // sink, whose wake ends the park on delivery. DRAM callbacks only touch
  // jobs still in jobs_, and the tile stays active while any is queued.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return jobs_.empty() ? kNoActivity : now;
  }

  std::string name() const override { return "dma_service"; }
  uint32_t LogicCellCost() const override { return 9000; }

  const CounterSet& counters() const { return counters_; }

 private:
  struct Job {
    Message request;
    uint64_t src_addr = 0;
    uint64_t dst_addr = 0;
    uint32_t total = 0;
    uint32_t read_issued = 0;     // Bytes whose read has been submitted.
    uint32_t written_done = 0;    // Bytes whose write has completed.
    std::vector<uint8_t> staging;
    // (offset, chunk) writes that hit DRAM backpressure, to retry.
    std::deque<std::pair<uint32_t, uint32_t>> rewrites;
  };

  void ReplyError(const Message& msg, TileApi& api, MsgStatus status);

  MemoryBackend* memory_;
  std::deque<std::shared_ptr<Job>> jobs_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_DMA_SERVICE_H_
