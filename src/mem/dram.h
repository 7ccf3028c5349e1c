// Banked DRAM timing model with an open-row policy.
//
// The model captures the behaviour accelerators specialize for (Section 4.6
// of the paper): sequential accesses hit the open row and are fast, random
// accesses pay a precharge+activate penalty, and concurrent streams contend
// on banks.
#ifndef SRC_MEM_DRAM_H_
#define SRC_MEM_DRAM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/clocked.h"
#include "src/stats/summary.h"

namespace apiary {

// Channel timing: 16 banks with 4 KiB row buffers, 64-byte bursts. An access
// to the open row pays the CAS latency; any other row pays precharge +
// activate + CAS; each burst after the first streams out in kDramBurstCycles.
inline constexpr uint32_t kDramBanks = 16;
inline constexpr uint32_t kDramRowBytes = 4096;
inline constexpr uint32_t kDramBurstBytes = 64;
inline constexpr Cycle kDramRowHitCycles = 8;
inline constexpr Cycle kDramRowMissCycles = 28;
inline constexpr Cycle kDramBurstCycles = 2;
inline constexpr uint32_t kDramBankQueueDepth = 16;

struct DramConfig {
  uint64_t capacity_bytes = 4ull << 30;  // 4 GiB channel.
};

// A single DRAM channel. Requests complete asynchronously via callback; the
// channel services one request per bank at a time, banks in parallel.
class DramChannel : public Clocked {
 public:
  using Completion = std::function<void(Cycle)>;

  DramChannel();

  // Enqueues an access of `bytes` starting at `addr`. Returns false if the
  // target bank queue is full (caller must retry / apply backpressure).
  bool Enqueue(uint64_t addr, uint32_t bytes, bool is_write, Completion done);

  void Tick(Cycle now) override;
  // Quiescent until the earliest bank completion; a bank with queued but
  // unlaunched requests needs the very next tick to launch them.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "dram"; }

  const CounterSet& counters() const { return counters_; }

  // Address decomposition helpers (row-major interleave across banks).
  uint32_t BankOf(uint64_t addr) const;
  uint64_t RowOf(uint64_t addr) const;

 private:
  struct Request {
    uint64_t addr;
    uint32_t bytes;
    bool is_write;
    Completion done;
  };
  struct Bank {
    std::deque<Request> queue;
    uint64_t open_row = ~0ull;
    Cycle busy_until = 0;
    bool in_flight = false;
    Request current;
  };

  Cycle ServiceLatency(Bank& bank, const Request& req);

  std::vector<Bank> banks_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_MEM_DRAM_H_
