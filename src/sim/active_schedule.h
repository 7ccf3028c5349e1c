// Active-set scheduler: the executed-cycle engine behind Simulator.
//
// A tick-everything loop pays O(all blocks) per executed cycle even when most
// blocks are quiescent. This schedule keeps an insertion-stable *active list*
// (iterated in registration order, so trace ordering is byte-identical to the
// tick-everything loop) plus a bucketed timer wheel keyed by
// Clocked::NextActivity, making an executed cycle O(active + woken) and the
// skip-decision poll O(1) when any block is busy.
//
// Correctness rests on the quiescence contract: Tick() of a quiescent
// block is a no-op (including its trace), so conservatively ticking a block
// is always byte-safe — only a *missed* tick (a late wake) can change
// behavior. Every transition out of parked quiescence therefore goes through
// exactly one of two channels:
//   * the timer wheel (the block's own declared deadline),
//   * Clocked::RequestWake()/WakeHint (input delivered by another block's
//     tick, a const link poll, or harness code between runs),
// and SchedPolicy::kEveryCycle opts a block out entirely (ticked on every
// executed cycle, exactly as the reference loop would).
#ifndef SRC_SIM_ACTIVE_SCHEDULE_H_
#define SRC_SIM_ACTIVE_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/sim/clocked.h"
#include "src/sim/types.h"

namespace apiary {

class ActiveSchedule final : public WakeSink {
 public:
  ActiveSchedule() = default;
  ActiveSchedule(const ActiveSchedule&) = delete;
  ActiveSchedule& operator=(const ActiveSchedule&) = delete;

  // Adds a block; returns its stable slot id (never reshuffled by other
  // blocks' removal — the fix for the old index-remap in
  // Simulator::ApplyPendingRemovals). The block starts active (conservative:
  // a spurious tick is a no-op). When called while ExecuteTicks is running,
  // the block's first tick is deferred to the next cycle, matching the reference
  // loop's count snapshot (blocks registered mid-tick start next cycle, while
  // blocks registered between runs tick on the next executed cycle).
  uint32_t Add(Clocked* block, Cycle now);

  // Removes a block; its slot id is recycled (generation-checked, so stale
  // wheel entries can never alias the new tenant).
  void Remove(uint32_t slot);

  // WakeSink: ends `slot`'s parked quiescence. Insertion keeps registration
  // order; a wake issued mid-ExecuteTicks for a sleeper *earlier* in order
  // than the waker is deferred to next cycle (the reference loop had already
  // ticked the sleeper this cycle), while one for a sleeper *later* in order
  // ticks this cycle (the reference loop had not reached it yet) —
  // byte-identical visibility. A wake between runs ticks on the next
  // executed cycle.
  void Wake(uint32_t slot) override;

  // WakeSink: re-reads the block's SchedulingPolicy() (a tile's policy
  // follows the service loaded onto it, which reconfiguration changes
  // mid-run) and conservatively re-activates the block.
  void RefreshPolicy(uint32_t slot) override;

  // Ticks the active list for cycle `now`, in registration order.
  void ExecuteTicks(Cycle now);

  // Establishes the active set for cycle `now` (call after advancing the
  // clock, including across skip jumps): pops due timer-wheel entries, then
  // re-polls the active blocks, parking the quiescent ones.
  void AdvanceBoundary(Cycle now);

  // The earliest cycle >= `now` at which this schedule needs an executed
  // cycle: `now` itself while any block is active (O(1) when a kActiveSet
  // block is busy), else the earliest wheel deadline or pinned declaration;
  // kNoActivity when fully idle. Pure (safe to call repeatedly).
  Cycle EarliestWork(Cycle now) const;

  size_t size() const { return live_count_; }

  // Executed-cycle breakdown (monotonic).
  uint64_t ticked_blocks() const { return ticked_blocks_; }
  uint64_t wheel_wakes() const { return wheel_wakes_; }
  uint64_t wake_calls() const { return wake_calls_; }

 private:
  enum class State : uint8_t { kFree, kActive, kTimed, kParked };

  struct Slot {
    Clocked* block = nullptr;
    uint64_t order = 0;         // Registration order; the global tick order.
    Cycle deadline = 0;         // Valid while kTimed (wheel entry validation).
    Cycle no_tick_before = 0;   // Defers the first tick of a mid-loop Add.
    uint32_t gen = 0;
    State state = State::kFree;
    Clocked::SchedPolicy policy = Clocked::SchedPolicy::kActiveSet;
    bool timed_far = false;  // Valid while kTimed: entry lives in far_, not a bucket.
  };

  struct WheelEntry {
    uint32_t slot;
    uint32_t gen;
    Cycle deadline;
  };

  static constexpr Cycle kWheelBuckets = 256;

  bool EntryLive(const WheelEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen == e.gen && s.state == State::kTimed && s.deadline == e.deadline;
  }

  // Inserts `slot` into active_ keeping registration order; fixes up the
  // tick cursor so in-progress iteration neither revisits nor misses blocks.
  void InsertActive(uint32_t slot);
  void ScheduleTimed(uint32_t slot, Cycle now, Cycle deadline);
  void Activate(uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_order_ = 0;
  size_t live_count_ = 0;

  // Slots to tick, sorted by registration order. Pinned (kEveryCycle) slots
  // are permanent members; others come and go with their quiescence.
  std::vector<uint32_t> active_;
  // Number of active_ entries with kActiveSet policy: the O(1) busy signal.
  size_t transient_active_ = 0;
  // kEveryCycle membership (small; polled for skip targets).
  std::vector<uint32_t> pinned_;

  // Bucketed wheel for near deadlines (< now + kWheelBuckets) and an
  // unsorted far list (with a cached lower bound) for the rest. Entries are
  // validated lazily against their slot (generation + state + deadline), so
  // wakes and removals never have to search the wheel.
  std::vector<WheelEntry> buckets_[kWheelBuckets];
  std::vector<WheelEntry> far_;
  Cycle far_min_ = kNoActivity;
  Cycle last_boundary_ = 0;
  // Number of kTimed slots whose entry is in a near bucket (exact; lets the
  // boundary pop and the EarliestWork bucket walk short-circuit when zero).
  size_t near_timed_ = 0;
  // Lower bound on the earliest live wheel deadline (exact value would need
  // a scan; the bound keeps EarliestWork's bucket walk short).
  Cycle wheel_min_ = kNoActivity;

  bool ticking_ = false;
  size_t cursor_ = 0;
  // Set while AdvanceBoundary re-polls declarations (which must not wake).
  bool polling_ = false;

  uint64_t ticked_blocks_ = 0;
  uint64_t wheel_wakes_ = 0;
  uint64_t wake_calls_ = 0;
};

}  // namespace apiary

#endif  // SRC_SIM_ACTIVE_SCHEDULE_H_
