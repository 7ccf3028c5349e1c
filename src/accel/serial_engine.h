// SerialEngine: the job queue every fixed-function accelerator shares.
//
// A fixed-function engine works one job at a time. A job submitted at `now`
// starts when the engine frees up (or at `now`, if it is idle) and finishes
// `cycles` later: done = max(free_at, now) + cycles, so back-to-back requests
// queue behind each other. Finished results leave in submission order, each
// either as a reply to its request or, for a pipeline stage, as a new request
// to the next stage's endpoint.
#ifndef SRC_ACCEL_SERIAL_ENGINE_H_
#define SRC_ACCEL_SERIAL_ENGINE_H_

#include <cstdint>
#include <deque>

#include "src/core/accelerator.h"

namespace apiary {

class SerialEngine {
 public:
  // Queues the result (`opcode`, `payload`) of `request`, finishing `cycles`
  // after the engine frees up. `forward_to` kInvalidCapRef replies to the
  // request; any other endpoint receives the result as a new request.
  void Submit(Cycle now, Cycle cycles, const Message& request, uint16_t opcode, PayloadBuf payload,
              CapRef forward_to = kInvalidCapRef);

  // Called from the owning accelerator's Tick: sends every finished result,
  // in order. A kBackpressure or kRateLimited refusal stops the drain and the
  // same result retries next tick; any other refusal drops the result and
  // counts it in dropped().
  void Drain(TileApi& api);

  // The head's finish cycle, `now` once it is overdue (a refused result
  // retries every cycle), kNoActivity when nothing is queued. The owning
  // accelerator returns this from its own NextActivity.
  [[nodiscard]] Cycle NextActivity(Cycle now) const;

  uint64_t submitted() const { return submitted_; }
  // Results that left the queue: sent, or dropped on a refusal.
  uint64_t done() const { return done_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Result {
    // The request's header, which Reply routes by, carrying the result's
    // payload in place of the request's (Reply reads no request payload).
    // One Message per result keeps two of them to a std::deque node.
    Message request;
    uint16_t opcode = 0;  // The result's.
    CapRef forward_to = kInvalidCapRef;
    Cycle done_at = 0;
  };

  std::deque<Result> results_;
  Cycle free_at_ = 0;
  uint64_t submitted_ = 0;
  uint64_t done_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_SERIAL_ENGINE_H_
