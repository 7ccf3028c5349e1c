// Active-set scheduler: the executed-cycle engine behind Simulator.
//
// A tick-everything loop pays O(all blocks) per executed cycle even when most
// blocks are quiescent. This schedule keeps the active set as a bitset over
// slot ids and the declared deadlines of timed sleepers in one min-heap, so
// an executed cycle is O(active + woken) and the skip-decision poll is O(1)
// when any block is busy.
//
// Blocks register for life, between runs: a slot id is the registration
// index, so walking the bitset in ascending order is the reference engine's
// registration-order tick loop, and trace ordering is byte-identical to it.
//
// Correctness rests on the quiescence contract: Tick() of a quiescent
// block is a no-op (including its trace), so conservatively ticking a block
// is always byte-safe — only a *missed* tick (a late wake) can change
// behavior. Every transition out of parked quiescence therefore goes through
// exactly one of two channels:
//   * the deadline heap (the block's own declared deadline),
//   * Clocked::RequestWake()/WakeHint (input delivered by another block's
//     tick, a const link poll, or harness code between runs).
// Every block follows it.
#ifndef SRC_SIM_ACTIVE_SCHEDULE_H_
#define SRC_SIM_ACTIVE_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/clocked.h"
#include "src/sim/types.h"

namespace apiary {

class ActiveSchedule final : public WakeSink {
 public:
  ActiveSchedule() = default;
  ActiveSchedule(const ActiveSchedule&) = delete;
  ActiveSchedule& operator=(const ActiveSchedule&) = delete;

  // Adds a block for life; its slot id is the number of blocks added before
  // it. Call between runs only (Simulator::Register asserts it). The block
  // starts active (conservative: a spurious tick is a no-op) and ticks on
  // the next executed cycle.
  void Add(Clocked* block);

  // WakeSink: ends `slot`'s parked quiescence. A wake issued mid-ExecuteTicks
  // for a slot *earlier* than the ticking one waits for the next cycle (the
  // reference loop had already ticked it this cycle), while one for a *later*
  // slot ticks this cycle (the reference loop had not reached it yet) —
  // byte-identical visibility. A wake between runs ticks on the next
  // executed cycle.
  void Wake(uint32_t slot) override;

  // Ticks the active set for cycle `now`, in ascending slot order.
  void ExecuteTicks(Cycle now);

  // Establishes the active set for cycle `now` (call after advancing the
  // clock, including across skip jumps): activates due heap entries, then
  // re-polls the active blocks, parking the quiescent ones.
  void AdvanceBoundary(Cycle now);

  // The earliest cycle >= `now` at which this schedule needs an executed
  // cycle: `now` itself while any block is active (O(1)), else the
  // earliest live heap deadline; kNoActivity when fully idle. Drops stale
  // heap tops on the way. Polls no declaration.
  Cycle EarliestWork(Cycle now);

  // Executed-cycle breakdown (monotonic).
  uint64_t ticked_blocks() const { return ticked_blocks_; }
  uint64_t wheel_wakes() const { return wheel_wakes_; }
  uint64_t wake_calls() const { return wake_calls_; }

 private:
  struct Slot {
    Clocked* block;
    // While the slot is inactive: its declared deadline (a live heap entry
    // carries the same value), or kNoActivity when parked until a wake.
    Cycle deadline;
  };

  using Timer = std::pair<Cycle, uint32_t>;  // (deadline, slot)

  bool IsActive(uint32_t slot) const { return (active_[slot / 64] >> (slot % 64)) & 1; }
  // Entries are validated lazily against their slot, so a wake never has to
  // search the heap: an entry is stale once its slot was activated (and
  // possibly re-parked with another deadline). Slots are never reused, so no
  // generation is needed.
  bool TimerLive(const Timer& t) const {
    return !IsActive(t.second) && slots_[t.second].deadline == t.first;
  }
  void Activate(uint32_t slot);

  std::vector<Slot> slots_;
  // The active set: bit s % 64 of word s / 64 is set iff slot s ticks on the
  // next executed cycle.
  std::vector<uint64_t> active_;
  // Number of active slots: the O(1) busy signal.
  size_t active_count_ = 0;
  // Min-heap of timed sleepers' deadlines.
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;

  // Set while AdvanceBoundary re-polls declarations (which must not wake).
  bool polling_ = false;

  uint64_t ticked_blocks_ = 0;
  uint64_t wheel_wakes_ = 0;
  uint64_t wake_calls_ = 0;
};

}  // namespace apiary

#endif  // SRC_SIM_ACTIVE_SCHEDULE_H_
