// Rate limiters. The token bucket is instantiated per flow by the Apiary
// monitor to bound an accelerator's injection rate (Section 4.5: "having
// permissioned access and rate limiting are necessary to prevent malicious
// accelerators from ... causing resource exhaustion"); the window meter
// bounds per-tenant shares (memory operations, ICAP loads). Both depend only
// on the cycle count, so every layer may use them.
#ifndef SRC_SIM_RATE_LIMITER_H_
#define SRC_SIM_RATE_LIMITER_H_

#include <cstdint>

#include "src/sim/types.h"

namespace apiary {

class TokenBucket {
 public:
  // `tokens_per_1k_cycles` is the refill rate (tokens are flits);
  // `burst_tokens` caps the bucket. A default-constructed bucket is
  // unlimited.
  TokenBucket() = default;
  TokenBucket(uint64_t tokens_per_1k_cycles, uint64_t burst_tokens);

  // True if `cost` tokens are available at `now`; if so, consumes them.
  bool TryConsume(Cycle now, uint64_t cost);

  // Peek without consuming.
  bool WouldAllow(Cycle now, uint64_t cost);

  bool unlimited() const { return unlimited_; }

 private:
  void Refill(Cycle now);

  bool unlimited_ = true;
  uint64_t rate_per_1k_ = 0;
  uint64_t burst_ = 0;
  // Token count scaled by 1000 to avoid fractional refill loss.
  uint64_t milli_tokens_ = 0;
  Cycle last_refill_ = 0;
};

// Windowed quota meter: grants up to `quota` units per fixed window of
// `window_cycles`. Unlike TokenBucket, unused allowance does not carry over
// between windows, which makes it the right primitive for per-tenant shares
// (memory-channel operations, ICAP loads) where bursts must not accumulate.
//
// Boundary contract: window `k` covers cycles [k*W, (k+1)*W). A grant at the
// boundary cycle k*W is charged to window `k` exactly once — it neither
// consumes the remaining allowance of window `k-1` nor double-counts into
// window `k+1`. The regression tests in tests/noc_test.cc pin this.
class WindowMeter {
 public:
  // A default-constructed meter is unlimited.
  WindowMeter() = default;
  WindowMeter(uint64_t quota_per_window, Cycle window_cycles);

  // True if `cost` units fit in the current window's remaining quota at
  // `now`; if so, charges them to that window.
  bool TryConsume(Cycle now, uint64_t cost);

  // Peek without consuming.
  bool WouldAllow(Cycle now, uint64_t cost);

  // Units charged so far to the window containing `now`.
  uint64_t used(Cycle now);

  // First cycle of the window after the one containing `now` — when a
  // quota-blocked client regains allowance. Pure (no state roll), so
  // callers' NextActivity paths can stay const.
  Cycle NextWindowStart(Cycle now) const {
    return unlimited_ ? now : (now / window_ + 1) * window_;
  }

  bool unlimited() const { return unlimited_; }
  uint64_t quota() const { return quota_; }
  Cycle window_cycles() const { return window_; }

 private:
  void Roll(Cycle now);

  bool unlimited_ = true;
  uint64_t quota_ = 0;
  Cycle window_ = 1;
  Cycle window_index_ = 0;
  uint64_t used_ = 0;
};

}  // namespace apiary

#endif  // SRC_SIM_RATE_LIMITER_H_
