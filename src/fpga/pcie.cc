#include "src/fpga/pcie.h"

#include <algorithm>
#include <cmath>

namespace apiary {

bool PcieEndpoint::Submit(uint64_t bytes, Completion done) {
  if (queue_.size() >= kPcieQueueDepth) {
    counters_.Add("pcie.backpressure");
    return false;
  }
  counters_.Add("pcie.transfers");
  counters_.Add("pcie.bytes", bytes);
  queue_.push_back(Transfer{bytes, std::move(done), false, 0});
  RequestWake();
  return true;
}

void PcieEndpoint::Tick(Cycle now) {
  // Launch: the link serializes transfers back to back; each transfer also
  // pays the one-way crossing latency.
  for (Transfer& t : queue_) {
    if (t.launched) {
      continue;
    }
    const Cycle serialize = std::max<Cycle>(
        1, static_cast<Cycle>(std::ceil(static_cast<double>(t.bytes) / kPcieBytesPerCycle)));
    const Cycle start = std::max(now, link_free_at_);
    link_free_at_ = start + serialize;
    t.complete_at = start + serialize + kPcieOneWayCycles;
    t.launched = true;
  }
  // Complete in FIFO order.
  while (!queue_.empty() && queue_.front().launched && queue_.front().complete_at <= now) {
    Transfer t = std::move(queue_.front());
    queue_.pop_front();
    if (t.done) {
      t.done(now);
    }
  }
}

}  // namespace apiary
