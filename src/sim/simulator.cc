#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/thread_domain.h"

namespace apiary {

void Simulator::Register(Clocked* block) {
  blocks_.push_back(block);
  // The schedule is kept bound under the reference engine too, so wake
  // calls stay counted.
  slots_.push_back(sched_.Add(block, clock_));
}

void Simulator::Unregister(Clocked* block) { pending_removals_.push_back(block); }

void Simulator::ApplyPendingRemovals() {
  if (pending_removals_.empty()) {
    return;
  }
  // Single-pass lockstep compaction of blocks_ and slots_: sort the
  // removal set once and binary-search it per block. Sorting also makes
  // double-unregister of the same block harmless (each surviving element is
  // visited once).
  std::sort(pending_removals_.begin(), pending_removals_.end());
  size_t kept = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (std::binary_search(pending_removals_.begin(), pending_removals_.end(), blocks_[i])) {
      sched_.Remove(slots_[i]);
    } else {
      blocks_[kept] = blocks_[i];
      slots_[kept] = slots_[i];
      ++kept;
    }
  }
  blocks_.resize(kept);
  slots_.resize(kept);
  pending_removals_.clear();
}

void Simulator::SetSkipEnabled(bool enabled) {
  // The schedule is only advanced under the optimized engine, so switching
  // to it after cycles ran would start from stale parked state.
  assert(executed_cycles_ == 0);
  skip_enabled_ = enabled;
}

void Simulator::Step() {
  if (skip_enabled_) {
    sched_.ExecuteTicks(clock_);
  } else {
    // Index-based loop with a count snapshot: ticks may register new
    // blocks, which then start ticking on the next cycle.
    const size_t count = blocks_.size();
    for (size_t i = 0; i < count; ++i) {
      blocks_[i]->Tick(clock_);
    }
    reference_ticked_blocks_ += count;
  }
  ApplyPendingRemovals();
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
  // O(1) when any kActiveSet block is busy; otherwise the earliest pinned
  // declaration or live wheel deadline — the minimum of every block's
  // NextActivity (declarations are pure), so the reference engine would
  // execute exactly the cycles jumped over here as no-ops.
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
