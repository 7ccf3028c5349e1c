#include "src/mem/dram.h"

#include <utility>

namespace apiary {

DramChannel::DramChannel() : banks_(kDramBanks) {}

uint32_t DramChannel::BankOf(uint64_t addr) const {
  // Interleave rows across banks so sequential streams use all banks.
  return static_cast<uint32_t>((addr / kDramRowBytes) % kDramBanks);
}

uint64_t DramChannel::RowOf(uint64_t addr) const {
  return addr / (static_cast<uint64_t>(kDramRowBytes) * kDramBanks);
}

bool DramChannel::Enqueue(uint64_t addr, uint32_t bytes, bool is_write, Completion done) {
  Bank& bank = banks_[BankOf(addr)];
  if (bank.queue.size() >= kDramBankQueueDepth) {
    counters_.Add("dram.backpressure");
    return false;
  }
  bank.queue.push_back(Request{addr, bytes, is_write, std::move(done)});
  counters_.Add(is_write ? "dram.writes" : "dram.reads");
  counters_.Add("dram.bytes", bytes);
  return true;
}

Cycle DramChannel::ServiceLatency(Bank& bank, const Request& req) {
  const uint64_t row = RowOf(req.addr);
  Cycle latency;
  if (bank.open_row == row) {
    latency = kDramRowHitCycles;
    counters_.Add("dram.row_hits");
  } else {
    latency = kDramRowMissCycles;
    counters_.Add("dram.row_misses");
    bank.open_row = row;
  }
  // Each additional burst beyond the first streams out back-to-back.
  const uint32_t bursts = (req.bytes + kDramBurstBytes - 1) / kDramBurstBytes;
  if (bursts > 1) {
    latency += static_cast<Cycle>(bursts - 1) * kDramBurstCycles;
  }
  return latency;
}

// APIARY-WAKE(owner): subobject of MemoryController, whose NextActivity
// folds this declaration in; every enqueue goes through the controller's
// SubmitRead/SubmitWrite, which wake the controller.
Cycle DramChannel::NextActivity(Cycle now) const {
  Cycle next = kNoActivity;
  for (const Bank& bank : banks_) {
    if (bank.in_flight) {
      const Cycle done = bank.busy_until > now ? bank.busy_until : now;
      next = done < next ? done : next;
    } else if (!bank.queue.empty()) {
      return now;
    }
  }
  return next;
}

void DramChannel::Tick(Cycle now) {
  for (Bank& bank : banks_) {
    if (bank.in_flight) {
      if (now >= bank.busy_until) {
        bank.in_flight = false;
        if (bank.current.done) {
          bank.current.done(now);
        }
      } else {
        continue;
      }
    }
    if (!bank.in_flight && !bank.queue.empty()) {
      bank.current = std::move(bank.queue.front());
      bank.queue.pop_front();
      bank.busy_until = now + ServiceLatency(bank, bank.current);
      bank.in_flight = true;
    }
  }
}

}  // namespace apiary
