// Interface for cycle-driven hardware blocks.
#ifndef SRC_SIM_CLOCKED_H_
#define SRC_SIM_CLOCKED_H_

#include <cstdint>
#include <string>

#include "src/sim/types.h"

namespace apiary {

// Destination of a wake request: the schedule a block is currently bound to.
// Implemented by ActiveSchedule; blocks never see the concrete type.
class WakeSink {
 public:
  virtual ~WakeSink() = default;
  virtual void Wake(uint32_t slot) = 0;
  // The block's SchedulingPolicy() answer changed (e.g. reconfiguration
  // loaded a per-cycle service onto a tile); re-read it.
  virtual void RefreshPolicy(uint32_t slot) { (void)slot; }
};

// A Clocked object models a synchronous hardware block: it is ticked once per
// simulated clock cycle. The simulator ticks all registered objects in
// registration order; blocks that need two-phase (compute/commit) semantics
// implement it internally by latching outputs. The simulator's now() is the
// only clock: code that needs the cycle outside Tick() reads it there, so no
// block keeps a copy that a skipped window could leave stale.
class Clocked {
 public:
  virtual ~Clocked() = default;

  // How the active-set scheduler may treat this block (see DESIGN.md
  // §"Simulation substrate"):
  //   kActiveSet    — honors the full quiescence contract: Tick() of a
  //                   quiescent block is a no-op, and every early end of
  //                   quiescence is announced through RequestWake()/WakeHint.
  //                   The scheduler parks the block and wakes it from the
  //                   timer wheel or a wake call.
  //   kEveryCycle   — Tick() does per-executed-cycle work by design (a
  //                   same-cycle observation of other blocks' state, an
  //                   integral folded in at every executed cycle). Ticked on
  //                   every executed cycle exactly as before active sets;
  //                   NextActivity still bounds skips.
  // There is no third way back from parking: whoever mutates a parked
  // block's input — another block's tick, a const link poll, harness code
  // between runs — calls RequestWake()/WakeHint.
  enum class SchedPolicy : uint8_t { kActiveSet = 0, kEveryCycle = 1 };
  [[nodiscard]] virtual SchedPolicy SchedulingPolicy() const { return SchedPolicy::kActiveSet; }

  // Advance one cycle. `now` is the cycle being executed.
  virtual void Tick(Cycle now) = 0;

  // Quiescence hook (see DESIGN.md §"Simulation substrate"). Returns the
  // earliest future cycle at which this block needs Tick() to run again:
  //   - any value <= now  : "active next cycle" (never skip past me),
  //   - a future cycle T  : quiescent until T; Tick() through T-1 would be a
  //                         no-op given no external input,
  //   - kNoActivity       : idle until external input arrives.
  // The declaration must be *pure*: absent this block's own Tick() and
  // external input, repeated polls return the same answer, and a poll never
  // wakes a block. The active-set scheduler parks on it; a block whose
  // quiescence ends early (input arrives) must be woken via
  // RequestWake()/WakeHint by whoever delivered the input, including harness
  // code that feeds a block between runs. Declaring a cycle too late breaks
  // simulations (missed work); when in doubt, return `now`. The default
  // keeps unported blocks cycle-accurate.
  [[nodiscard]] virtual Cycle NextActivity(Cycle now) const {
    return now;  // Active every cycle unless the block declares otherwise.
  }

  // Human-readable name for tracing and debug dumps.
  virtual std::string DebugName() const { return "clocked"; }

  // --- Wake protocol (active-set scheduling). ---
  //
  // Ends this block's parked quiescence: the schedule re-activates it for
  // the cycle dictated by reference tick order (a wake from a block earlier in
  // registration order takes effect this cycle; from a later block, next
  // cycle; from harness code between runs, the next executed cycle —
  // exactly when a tick-everything loop would have seen the input).
  // Callable from const methods (a const query that flips cached state, e.g.
  // a link-lock poll, still ends quiescence). Always safe to call: waking an
  // already-active or genuinely idle block is a no-op tick at worst, never a
  // behavior change. See DESIGN.md for the full contract.
  void RequestWake() const {
    if (wake_sink_ != nullptr) {
      wake_sink_->Wake(wake_slot_);
    }
  }

  // Tells the schedule this block's SchedulingPolicy() answer changed (a
  // tile's policy follows the accelerator loaded onto it). Call after any
  // mutation that can change the answer. Conservatively re-activates the
  // block.
  void RequestPolicyRefresh() const {
    if (wake_sink_ != nullptr) {
      wake_sink_->RefreshPolicy(wake_slot_);
    }
  }

  // Schedule binding; called by ActiveSchedule on add/remove. Not for blocks.
  void BindWakeSink(WakeSink* sink, uint32_t slot) const {
    wake_sink_ = sink;
    wake_slot_ = slot;
  }

 private:
  // Mutable: RequestWake must be callable from const observers; the binding
  // itself is scheduler bookkeeping, not block state.
  mutable WakeSink* wake_sink_ = nullptr;
  mutable uint32_t wake_slot_ = 0;
};

// Copyable wake handle for non-Clocked subobjects (a MAC's RX queue, an NI's
// delivery side, a DRAM completion lambda): lets them wake the Clocked block
// that consumes their output without knowing the schedule.
class WakeHint {
 public:
  WakeHint() = default;
  explicit WakeHint(const Clocked* target) : target_(target) {}

  void Wake() const {
    if (target_ != nullptr) {
      target_->RequestWake();
    }
  }
  bool bound() const { return target_ != nullptr; }

 private:
  const Clocked* target_ = nullptr;
};

}  // namespace apiary

#endif  // SRC_SIM_CLOCKED_H_
