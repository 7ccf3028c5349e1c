#include "src/sim/active_schedule.h"

#include <bit>
#include <cassert>

namespace apiary {

void ActiveSchedule::Add(Clocked* block) {
  const auto slot = static_cast<uint32_t>(slots_.size());
  slots_.push_back(Slot{block, 0});
  if (slot % 64 == 0) {
    active_.push_back(0);
  }
  block->BindWakeSink(this, slot);
  Activate(slot);
}

void ActiveSchedule::Activate(uint32_t slot) {
  active_[slot / 64] |= uint64_t{1} << (slot % 64);
  ++active_count_;
}

void ActiveSchedule::Wake(uint32_t slot) {
  // Declarations are pure: a wake from inside NextActivity would change
  // the active set under AdvanceBoundary's walk.
  assert(!polling_ && "NextActivity must not wake a block");
  ++wake_calls_;
  if (!IsActive(slot)) {
    Activate(slot);  // Waking an active block is never an error.
  }
}

void ActiveSchedule::ExecuteTicks(Cycle now) {
  // The word is re-read after every tick, so a slot above the cursor woken
  // by this tick still ticks this cycle, and one below it waits for the next.
  for (size_t w = 0; w < active_.size(); ++w) {
    uint64_t pending = active_[w];
    while (pending != 0) {
      const int bit = std::countr_zero(pending);
      slots_[w * 64 + bit].block->Tick(now);
      ++ticked_blocks_;
      pending = active_[w] & ((~uint64_t{0} << bit) << 1);
    }
  }
}

void ActiveSchedule::AdvanceBoundary(Cycle now) {
  // 1. Activate the sleepers whose deadline is due.
  while (!timers_.empty() && timers_.top().first <= now) {
    const Timer due = timers_.top();
    timers_.pop();
    if (TimerLive(due)) {
      Activate(due.second);
      ++wheel_wakes_;
    }
  }

  // 2. Re-poll the active set and park the quiescent: declared-future blocks
  // go to the heap, idle-until-input blocks park on their wake channel.
  polling_ = true;
  for (size_t w = 0; w < active_.size(); ++w) {
    for (uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      Slot& s = slots_[w * 64 + bit];
      const Cycle next = s.block->NextActivity(now);
      if (next <= now) {
        continue;
      }
      active_[w] &= ~(uint64_t{1} << bit);
      --active_count_;
      s.deadline = next;
      if (next != kNoActivity) {
        timers_.emplace(next, static_cast<uint32_t>(w * 64 + bit));
      }
    }
  }
  polling_ = false;
}

Cycle ActiveSchedule::EarliestWork(Cycle now) {
  if (active_count_ > 0) {
    return now;  // O(1): some block is busy.
  }
  // The skip target must be exact, not a bound (skip counters are part of
  // the byte-identity contract), so stale tops go before the top is read.
  while (!timers_.empty() && !TimerLive(timers_.top())) {
    timers_.pop();
  }
  return timers_.empty() ? kNoActivity : timers_.top().first;
}

}  // namespace apiary
