// Partial-reconfiguration scheduler: serializes bitstream loads through the
// single ICAP port.
//
// Real FPGAs have one internal configuration access port; two regions cannot
// reconfigure concurrently. The board model charges each load
// `partial_reconfig_cycles`, and this scheduler is the arbiter that keeps
// the port single-owner: jobs queue FIFO, at most one tile is mid-load at a
// time, and the port also yields to Supervisor-driven recovery
// reconfigurations (any tile already reconfiguring blocks the queue — the
// supervisor and the orchestrator share the ICAP without racing).
//
// A teardown job models the full drain -> reconfigure -> rebind shutdown:
// wait for the caller's drain predicate (bounded by a deadline), then load
// the blanking bitstream through the same serialized port.
#ifndef SRC_ORCH_RECONFIG_SCHEDULER_H_
#define SRC_ORCH_RECONFIG_SCHEDULER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/core/kernel.h"
#include "src/sim/clocked.h"
#include "src/sim/rate_limiter.h"
#include "src/stats/summary.h"

namespace apiary {

struct ReconfigSchedulerConfig {
  // Cycles a teardown waits after its drain predicate turns true, letting
  // in-flight responses clear the NoC before the region is blanked.
  Cycle drain_cycles = 4'000;
  // A drain predicate that never turns true aborts the teardown after this
  // long (the caller is told ok=false and the region stays up).
  Cycle drain_deadline_cycles = 200'000;
};

class ReconfigScheduler : public Clocked {
 public:
  using AccelFactory = std::function<std::unique_ptr<Accelerator>()>;
  // (tile, service assigned by Deploy, ok). service is kInvalidService when
  // !ok.
  using LoadCallback = std::function<void(TileId, ServiceId, bool)>;
  using TeardownCallback = std::function<void(TileId, bool)>;

  ReconfigScheduler(ApiaryOs* os, AppId app,
                    ReconfigSchedulerConfig config = ReconfigSchedulerConfig{});

  // Queues a bitstream load of `factory()` onto `tile` (which the caller
  // placed and reserved). The callback fires when the accelerator is booted
  // (ok) or the job was abandoned because the tile became unusable (!ok).
  void ScheduleLoad(TileId tile, AccelFactory factory, LoadCallback done);

  // Queues a drain-then-blank teardown of `tile`. `drained` is polled each
  // cycle while the job is at the head of the queue; once true (or the
  // deadline passes), the region is undeployed through the ICAP.
  void ScheduleTeardown(TileId tile, std::function<bool()> drained,
                        TeardownCallback done);

  void Tick(Cycle now) override;
  // Drain predicates and ICAP-stall accounting are polled cycle-by-cycle, so
  // the scheduler pins the clock whenever a job is queued or active; with an
  // empty queue the tick is a no-op and the clock may run free.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return busy() ? now : kNoActivity;
  }
  std::string DebugName() const override { return "reconfig_scheduler"; }

  size_t queue_depth() const { return jobs_.size(); }
  bool busy() const { return active_.has_value() || !jobs_.empty(); }
  const CounterSet& counters() const { return counters_; }

  // ICAP rate quota: at most `loads_per_window` bitstream pushes (loads or
  // blanks) per `window_cycles` window. Jobs over quota wait at the head of
  // the queue ("orch.quota_stall_cycles") instead of being dropped — a
  // reconfig-thrashing tenant throttles itself without losing work. Zero
  // `loads_per_window` clears the quota.
  void SetRateQuota(uint32_t loads_per_window, Cycle window_cycles);

 private:
  enum class JobKind : uint8_t { kLoad, kTeardown };
  struct Job {
    JobKind kind = JobKind::kLoad;
    TileId tile = kInvalidTile;
    AccelFactory factory;                 // kLoad only.
    LoadCallback on_load;                 // kLoad only.
    std::function<bool()> drained;        // kTeardown only.
    TeardownCallback on_teardown;         // kTeardown only.
    Cycle head_at = 0;                    // Cycle the job reached the head.
    Cycle drain_ok_since = kInvalidCycle; // First cycle `drained` held.
  };
  // Job currently holding (or waiting to hold) the ICAP.
  struct Active {
    Job job;
    ServiceId service = kInvalidService;
    bool loading = false;  // Bitstream actually started (tile reconfiguring).
  };

  static constexpr Cycle kInvalidCycle = ~Cycle{0};

  void StartNext(Cycle now);
  void FinishActive(bool ok);

  ApiaryOs* os_;
  AppId app_;
  ReconfigSchedulerConfig config_;
  std::deque<Job> jobs_;
  std::optional<Active> active_;
  WindowMeter quota_;  // Bitstream pushes per window; unlimited by default.
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_ORCH_RECONFIG_SCHEDULER_H_
