// The top-level simulation driver: a single global clock domain.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <functional>
#include <vector>

#include "src/sim/active_schedule.h"
#include "src/sim/clocked.h"
#include "src/sim/sim_context.h"
#include "src/sim/types.h"

namespace apiary {

class Simulator {
 public:
  // `frequency_mhz` maps cycles to wall time for reporting (default matches a
  // typical FPGA fabric clock).
  explicit Simulator(double frequency_mhz = 250.0) : frequency_mhz_(frequency_mhz) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Registers a block. The simulator does not own the block; callers keep it
  // alive for the duration of the run. With skipping enabled (the default)
  // only blocks that are active — by declaration, timer-wheel deadline, or
  // wake — are ticked on an executed cycle; with SetSkipEnabled(false) every
  // block is ticked every cycle. Seeded runs are byte-identical either way.
  void Register(Clocked* block);

  // Removes a previously registered block (e.g. a reconfigured-away
  // accelerator). Safe to call during a tick; removal takes effect before
  // the next cycle.
  void Unregister(Clocked* block);

  // Runs `cycles` additional cycles. When skipping is enabled (the default),
  // stretches where every block is quiescent (see Clocked::NextActivity)
  // are fast-forwarded instead of being ticked cycle by cycle; executed
  // cycles behave exactly as before. Harness code that feeds a block between
  // runs wakes it (Clocked::RequestWake), so the input is seen on the first
  // executed cycle of the next run.
  void Run(Cycle cycles);

  // Runs until `pred` returns true or `max_cycles` additional cycles have
  // elapsed. Returns true if `pred` fired.
  //
  // Contract (changed with quiescence skipping, still correct): `pred` is
  // evaluated before every *executed* cycle and once at the end, not once
  // per simulated cycle. Cycles inside a skipped window are never observed —
  // which is sound because nothing ticks there, so a pred over simulated
  // state cannot change mid-skip. A pred whose flip is time-driven (e.g.
  // "now() >= T") is only guaranteed to be seen at the next activity
  // boundary; blocks that gate such state (queues with ready times, fault
  // windows) declare those boundaries via NextActivity so the flip cycle is
  // identical with and without skipping. Use SetSkipEnabled(false) to force
  // the old every-cycle evaluation.
  bool RunUntil(const std::function<bool()>& pred, Cycle max_cycles);

  Cycle now() const { return clock_; }
  double frequency_mhz() const { return frequency_mhz_; }

  // This simulator's domain context: the home of every pool/arena its
  // blocks allocate from. Installed as the current thread's domain for the
  // duration of Run()/RunUntil(); harnesses that build boards off the run
  // path install it explicitly (ThreadDomain::ScopedInstall) so
  // construction-time allocations land in the same domain.
  SimContext& context() { return context_; }

  // Converts a cycle count to nanoseconds at the configured frequency.
  double CyclesToNs(Cycle cycles) const {
    return static_cast<double>(cycles) * 1000.0 / frequency_mhz_;
  }

  // Selects the engine; call before the first cycle runs. Enabled (the
  // default) is the optimized engine: quiescent stretches are fast-forwarded
  // and executed cycles tick only the active set. Disabled (`--no-skip`) is
  // the reference engine: every cycle is executed and every block is ticked
  // in registration order. Seeded runs are byte-identical either way
  // (tests/engine_differential_test.cc).
  void SetSkipEnabled(bool enabled);
  bool skip_enabled() const { return skip_enabled_; }

  // Fast-forward observability (for benchmarks and tests).
  uint64_t skipped_cycles() const { return skipped_cycles_; }
  uint64_t skips() const { return skips_; }

  // Executed-cycle breakdown (for benchmarks): how much tick work the
  // scheduler actually did. `ticked_blocks / (executed_cycles * block_count)`
  // is the observed active fraction.
  uint64_t executed_cycles() const { return executed_cycles_; }
  uint64_t ticked_blocks() const { return reference_ticked_blocks_ + sched_.ticked_blocks(); }
  uint64_t wheel_wakes() const { return sched_.wheel_wakes(); }
  uint64_t wake_calls() const { return sched_.wake_calls(); }
  size_t block_count() const { return blocks_.size(); }

 private:
  void Step();
  // Fast-forwards the clock to the earliest cycle in (now, limit] that any
  // block needs, when every block is quiescent. No-op when some block is
  // active or skipping is disabled.
  void SkipAhead(Cycle limit);
  void ApplyPendingRemovals();

  SimContext context_;
  double frequency_mhz_;
  Cycle clock_ = 0;  // The board's only clock (see Clocked).
  bool skip_enabled_ = true;
  uint64_t skipped_cycles_ = 0;
  uint64_t skips_ = 0;
  uint64_t executed_cycles_ = 0;
  uint64_t reference_ticked_blocks_ = 0;  // Ticks issued by the reference engine.
  std::vector<Clocked*> blocks_;
  std::vector<uint32_t> slots_;  // Each block's sched_ slot; lockstep with blocks_.
  std::vector<Clocked*> pending_removals_;
  ActiveSchedule sched_;
};

}  // namespace apiary

#endif  // SRC_SIM_SIMULATOR_H_
