// Raw, unprotected inter-accelerator queues — the status quo IPC the paper
// describes in Section 4.5: "A form of IPC already exists between
// accelerators on FPGAs in the form of queues that are used to pipeline
// accelerators... these queues are not accessed controlled in any way."
//
// Used by experiment E3 as the no-isolation lower bound: a dedicated FIFO
// between two modules, one flit per cycle, no naming, no checks, no policy.
#ifndef SRC_BASELINE_RAW_QUEUE_H_
#define SRC_BASELINE_RAW_QUEUE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/noc/packet.h"
#include "src/sim/clocked.h"

namespace apiary {

class RawQueue : public Clocked {
 public:
  // `width_bytes` is the datapath width (bytes transferred per cycle);
  // `depth_entries` bounds the FIFO.
  RawQueue(uint32_t width_bytes = kFlitBytes, uint32_t depth_entries = 64)
      : width_bytes_(width_bytes), depth_entries_(depth_entries) {}

  // Pushes a message's bytes into the queue and wakes it. Returns false
  // when full.
  bool Push(PayloadBuf payload, Cycle now);

  // Pops the next fully transferred message, if any.
  std::optional<PayloadBuf> Pop(Cycle now);

  void Tick(Cycle now) override { (void)now; }
  // The queue itself does no tick work, but harness predicates poll Pop()
  // against front().available_at — declare that cycle as an activity
  // boundary so RunUntil predicates observe it exactly.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (entries_.empty()) {
      return kNoActivity;
    }
    const Cycle at = entries_.front().available_at;
    return at > now ? at : now;
  }
  std::string DebugName() const override { return "raw_queue"; }

  uint64_t pushed() const { return pushed_; }
  uint64_t popped() const { return popped_; }

 private:
  struct Entry {
    Cycle available_at;
    PayloadBuf payload;
  };

  uint32_t width_bytes_;
  uint32_t depth_entries_;
  std::deque<Entry> entries_;
  Cycle channel_free_at_ = 0;
  uint64_t pushed_ = 0;
  uint64_t popped_ = 0;
};

inline bool RawQueue::Push(PayloadBuf payload, Cycle now) {
  if (entries_.size() >= depth_entries_) {
    return false;
  }
  // Serialize onto the point-to-point wires: width_bytes per cycle, plus one
  // cycle of FIFO latency.
  const Cycle transfer = (payload.size() + width_bytes_ - 1) / width_bytes_;
  const Cycle start = channel_free_at_ > now ? channel_free_at_ : now;
  channel_free_at_ = start + transfer;
  entries_.push_back(Entry{channel_free_at_ + 1, std::move(payload)});
  ++pushed_;
  RequestWake();
  return true;
}

inline std::optional<PayloadBuf> RawQueue::Pop(Cycle now) {
  if (entries_.empty() || entries_.front().available_at > now) {
    return std::nullopt;
  }
  PayloadBuf payload = std::move(entries_.front().payload);
  entries_.pop_front();
  ++popped_;
  return payload;
}

}  // namespace apiary

#endif  // SRC_BASELINE_RAW_QUEUE_H_
