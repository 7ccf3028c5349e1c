// Multi-channel interleaved memory (HBM-style): N independent DRAM channels
// striped at a fixed granularity, presented to the memory/DMA services as
// one flat address space.
//
// Modern boards ship HBM with many pseudo-channels (Section 2's "HBM
// memory" among the new I/O); the win is bandwidth through channel-level
// parallelism, which the A7 ablation quantifies.
#ifndef SRC_MEM_INTERLEAVED_MEMORY_H_
#define SRC_MEM_INTERLEAVED_MEMORY_H_

#include <deque>
#include <memory>

#include "src/mem/memory_backend.h"
#include "src/mem/memory_controller.h"
#include "src/sim/clocked.h"
#include "src/stats/summary.h"

namespace apiary {

// Stripe granularity: consecutive stripes rotate across channels.
inline constexpr uint64_t kInterleaveStripeBytes = 4096;

class InterleavedMemory : public Clocked, public MemoryBackend {
 public:
  // Total capacity = channels x per_channel.capacity_bytes.
  InterleavedMemory(DramConfig per_channel, uint32_t channels);

  bool SubmitRead(uint64_t addr, std::span<uint8_t> out,
                  std::function<void(Cycle)> done) override;
  bool SubmitWrite(uint64_t addr, std::span<const uint8_t> data,
                   std::function<void(Cycle)> done) override;
  void DebugWrite(uint64_t addr, std::span<const uint8_t> data) override;
  std::vector<uint8_t> DebugRead(uint64_t addr, uint64_t len) const override;
  uint64_t capacity() const override { return capacity_; }

  BitFlipResult InjectBitFlip(uint64_t addr, uint32_t bit) override;
  void SetEccEnabled(bool enabled) override;

  void Tick(Cycle now) override;
  // Active while any operation still has chunks to issue; otherwise defers
  // to the earliest channel completion. Both submits wake the block
  // (callers are service and accelerator ticks); the channels are
  // subobjects, ticked and declared only through this block.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (!pending_.empty()) {
      return now;
    }
    Cycle next = kNoActivity;
    for (const auto& channel : channels_) {
      const Cycle c = channel->NextActivity(now);
      next = c < next ? c : next;
    }
    return next;
  }
  std::string DebugName() const override { return "hbm"; }

  uint32_t num_channels() const { return static_cast<uint32_t>(channels_.size()); }
  const CounterSet& counters() const { return counters_; }

 private:
  struct Chunk {
    uint32_t channel;
    uint64_t local_addr;
    uint64_t global_offset;  // Offset within the operation's buffer.
    uint64_t len;
  };
  struct Op {
    bool is_write = false;
    uint64_t addr = 0;
    // Read target (caller-owned) or write source (copied).
    std::span<uint8_t> out;
    std::vector<uint8_t> data;
    std::function<void(Cycle)> done;
    std::vector<Chunk> chunks;
    size_t next_chunk = 0;           // Submission progress.
    std::shared_ptr<size_t> remaining;  // Completion countdown.
  };

  // Maps a global address to (channel, local address) and splits [addr,
  // addr+len) at stripe boundaries.
  std::vector<Chunk> Split(uint64_t addr, uint64_t len) const;
  bool InBounds(uint64_t addr, uint64_t len) const {
    return addr <= capacity_ && len <= capacity_ - addr;
  }

  uint64_t capacity_;
  std::vector<std::unique_ptr<MemoryController>> channels_;
  std::deque<std::shared_ptr<Op>> pending_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_MEM_INTERLEAVED_MEMORY_H_
