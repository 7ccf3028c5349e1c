#include "src/sim/rate_limiter.h"

#include <algorithm>

namespace apiary {

TokenBucket::TokenBucket(uint64_t tokens_per_1k_cycles, uint64_t burst_tokens)
    : unlimited_(false),
      rate_per_1k_(tokens_per_1k_cycles),
      burst_(burst_tokens),
      milli_tokens_(burst_tokens * 1000) {}

void TokenBucket::Refill(Cycle now) {
  if (now <= last_refill_) {
    return;
  }
  const Cycle elapsed = now - last_refill_;
  last_refill_ = now;
  milli_tokens_ = std::min(burst_ * 1000, milli_tokens_ + elapsed * rate_per_1k_);
}

bool TokenBucket::TryConsume(Cycle now, uint64_t cost) {
  if (unlimited_) {
    return true;
  }
  Refill(now);
  if (milli_tokens_ >= cost * 1000) {
    milli_tokens_ -= cost * 1000;
    return true;
  }
  return false;
}

bool TokenBucket::WouldAllow(Cycle now, uint64_t cost) {
  if (unlimited_) {
    return true;
  }
  Refill(now);
  return milli_tokens_ >= cost * 1000;
}

WindowMeter::WindowMeter(uint64_t quota_per_window, Cycle window_cycles)
    : unlimited_(false),
      quota_(quota_per_window),
      window_(window_cycles == 0 ? 1 : window_cycles) {}

void WindowMeter::Roll(Cycle now) {
  // Integer division puts the boundary cycle k*W in window k, never k-1:
  // the usage counter resets exactly when `now` first reaches the boundary,
  // so a grant made at that cycle is charged to the new window only.
  const Cycle idx = now / window_;
  if (idx != window_index_) {
    window_index_ = idx;
    used_ = 0;
  }
}

bool WindowMeter::TryConsume(Cycle now, uint64_t cost) {
  if (unlimited_) {
    return true;
  }
  Roll(now);
  if (used_ + cost <= quota_) {
    used_ += cost;
    return true;
  }
  return false;
}

bool WindowMeter::WouldAllow(Cycle now, uint64_t cost) {
  if (unlimited_) {
    return true;
  }
  Roll(now);
  return used_ + cost <= quota_;
}

uint64_t WindowMeter::used(Cycle now) {
  if (unlimited_) {
    return 0;
  }
  Roll(now);
  return used_;
}

}  // namespace apiary
