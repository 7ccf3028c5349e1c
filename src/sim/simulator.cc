#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/thread_domain.h"

namespace apiary {

void Simulator::Register(Clocked* block) {
  // Slot ids are registration indices (the tick order), which a block added
  // mid-tick would break under either engine.
  assert(!ticking_ && "Register must not be called from inside a tick");
  blocks_.push_back(block);
  // The schedule is kept bound under the reference engine too, so wake
  // calls stay counted.
  sched_.Add(block);
}

void Simulator::SetSkipEnabled(bool enabled) {
  // The schedule is only advanced under the optimized engine, so switching
  // to it after cycles ran would start from stale parked state.
  assert(executed_cycles_ == 0);
  skip_enabled_ = enabled;
}

void Simulator::Step() {
  ticking_ = true;
  if (skip_enabled_) {
    sched_.ExecuteTicks(clock_);
  } else {
    for (Clocked* block : blocks_) {
      block->Tick(clock_);
    }
    reference_ticked_blocks_ += blocks_.size();
  }
  ticking_ = false;
  ++clock_;
  ++executed_cycles_;
  if (skip_enabled_) {
    sched_.AdvanceBoundary(clock_);
  }
}

void Simulator::SkipAhead(Cycle limit) {
  if (!skip_enabled_ || clock_ >= limit) {
    return;
  }
  // O(1) when any block is busy; otherwise the earliest live heap deadline
  // — the minimum of every parked block's NextActivity (declarations are
  // pure, and input to a parked block wakes it), so the reference engine
  // would execute exactly the cycles jumped over here as no-ops.
  const Cycle target = std::min(sched_.EarliestWork(clock_), limit);
  if (target <= clock_) {
    return;
  }
  skipped_cycles_ += target - clock_;
  ++skips_;
  clock_ = target;
  // Deadlines landing exactly on the jump target are due now.
  sched_.AdvanceBoundary(clock_);
}

void Simulator::Run(Cycle cycles) {
  // Everything this run allocates or logs belongs to this simulator's
  // domain (nested installs of the same context are harmless no-ops).
  ThreadDomain::ScopedInstall install(&context_);
  const Cycle end = clock_ + cycles;
  while (clock_ < end) {
    Step();
    SkipAhead(end);
  }
}

bool Simulator::RunUntil(const std::function<bool()>& pred, Cycle max_cycles) {
  ThreadDomain::ScopedInstall install(&context_);
  const Cycle end = clock_ + max_cycles;
  while (clock_ < end) {
    if (pred()) {
      return true;
    }
    Step();
    // Re-check at the fresh boundary BEFORE skipping: if the executed cycle
    // satisfied the predicate, clock_ must stay here (the cycle count callers
    // observe), not at the far side of a jump.
    if (pred()) {
      return true;
    }
    SkipAhead(end);
  }
  return pred();
}

}  // namespace apiary
