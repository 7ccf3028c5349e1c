// Metrics-driven autoscaler: grows and shrinks a replica set behind a
// LoadBalancer based on tail latency and queue depth.
//
// The control loop closes the elastic-orchestration story: the load
// balancer measures (queue-depth integral, per-window latency histogram),
// the autoscaler decides (an SLO-latency policy with utilization headroom,
// hysteresis and a cooldown so reconfiguration latency does not cause
// oscillation), the placer chooses a region (near the balancer, apart from
// the other replicas), and the reconfiguration scheduler executes through
// the serialized ICAP. Capability wiring goes through the kernel: each new
// replica is granted to the balancer via GrantSendToService, and teardown
// revokes through Undeploy.
#ifndef SRC_ORCH_AUTOSCALER_H_
#define SRC_ORCH_AUTOSCALER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/sim/clocked.h"
#include "src/stats/summary.h"

namespace apiary {

// Utilization headroom: scale up when average in-flight requests per live
// replica exceed kScaleUpUtilization even if latency still looks fine; only
// scale down when the set would stay under kScaleDownUtilization per
// replica after losing one.
inline constexpr double kScaleUpUtilization = 0.7;
inline constexpr double kScaleDownUtilization = 0.5;
// Scale-down hysteresis: the shrink condition must hold this many
// consecutive polls.
inline constexpr uint32_t kScaleDownStablePolls = 3;

struct AutoscalerConfig {
  uint32_t min_replicas = 1;
  uint32_t max_replicas = 8;
  // Control-loop period; metrics are windowed over it.
  Cycle poll_period = 10'000;
  // The p99 target, and the fraction of it under which a replica is
  // considered latency-surplus. There is no default target: 0 means unset,
  // and the Autoscaler constructor rejects it.
  Cycle slo_p99_cycles = 0;
  double slo_down_fraction = 0.4;
  // cooldown_cycles must have passed since the last scaling action before a
  // scale-down. Scale-up has no cooldown — it is paced naturally by the
  // serialized ICAP (one reconfiguration in flight at a time), and demand
  // spikes should not wait out a timer.
  Cycle cooldown_cycles = 150'000;
  // Logic-cell footprint of one replica (placement admission).
  uint32_t replica_logic_cells = 20'000;
};

class Autoscaler : public Clocked {
 public:
  using ReplicaFactory = std::function<std::unique_ptr<Accelerator>()>;

  // The balancer lives on `lb_tile`; new replicas deploy under `app` and are
  // granted to the balancer through the kernel. `placer` and `scheduler`
  // are shared orchestration infrastructure (not owned). Throws
  // std::invalid_argument when `config` sets no SLO target.
  Autoscaler(ApiaryOs* os, LoadBalancer* lb, TileId lb_tile, AppId app,
             ReplicaFactory factory, Placer* placer, ReconfigScheduler* scheduler,
             AutoscalerConfig config);

  // Registers an already-deployed replica (initial wiring at time zero; the
  // caller has AddBackend'ed its endpoint on the balancer).
  void AdoptReplica(ServiceId service, TileId tile, CapRef endpoint);

  // Admission control for scale-ups: when set, a scale-up proceeds only if
  // the predicate returns true (the tenant manager wires its tile-quota
  // check here). A denied attempt counts "orch.scale_up_quota_denied" and
  // retries on a later poll.
  void SetAdmission(std::function<bool()> admit) { admit_ = std::move(admit); }

  void Tick(Cycle now) override;
  // The control loop only acts at poll multiples, so the autoscaler parks
  // until the next one. The region-cycle integral (the other per-tick
  // effect) covers the parked cycles at the next tick; whatever changes the
  // replica count outside a tick (adoption, the scheduler's callbacks)
  // folds the integral through the cycle before first.
  // APIARY-WAKE(self): no input ends the wait; a zero poll_period turns
  // the control loop off for good.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (config_.poll_period == 0) {
      return kNoActivity;
    }
    const Cycle rem = now % config_.poll_period;
    return rem == 0 ? now : now + (config_.poll_period - rem);
  }
  std::string DebugName() const override { return "autoscaler"; }

  uint32_t live_replicas() const;
  uint64_t scale_ups() const { return scale_ups_; }
  uint64_t scale_downs() const { return scale_downs_; }
  // Tile-cycles consumed by the replica set (live + loading + draining
  // regions each cost one region-cycle per cycle), through the cycle before
  // the simulator's now(): the provisioning-cost metric the A10 experiment
  // compares against static deployments.
  uint64_t replica_tile_cycles() const;
  const CounterSet& counters() const { return counters_; }
  const AutoscalerConfig& config() const { return config_; }

 private:
  enum class ReplicaState : uint8_t { kLoading, kLive, kDraining };
  struct Replica {
    ServiceId service = kInvalidService;
    TileId tile = kInvalidTile;
    CapRef endpoint = kInvalidCapRef;
    ReplicaState state = ReplicaState::kLoading;
  };

  // Charges the current replica count for the cycles after last_tick_
  // through `through`.
  void ChargeThrough(Cycle through);
  // Called before the replica count changes outside Tick: the cycles up to
  // now - 1 ran with the old count (a no-op when this cycle's tick already
  // ran).
  void ChargeBeforeNow();
  void Poll();
  void ScaleUp();
  void ScaleDown();
  // Pushes the current live-endpoint set to the balancer.
  void PushMembership();

  ApiaryOs* os_;
  LoadBalancer* lb_;
  TileId lb_tile_;
  AppId app_;
  ReplicaFactory factory_;
  Placer* placer_;
  ReconfigScheduler* scheduler_;
  AutoscalerConfig config_;
  std::function<bool()> admit_;

  std::vector<Replica> replicas_;
  bool op_pending_ = false;   // One scaling operation in flight at a time.
  uint32_t down_streak_ = 0;  // Consecutive polls that wanted to shrink.
  Cycle last_scale_at_ = 0;
  uint64_t last_queue_sum_ = 0;
  uint64_t scale_ups_ = 0;
  uint64_t scale_downs_ = 0;
  uint64_t tile_cycles_ = 0;  // Region-cycles through last_tick_.
  Cycle last_tick_ = 0;       // Creation - 1 until the first tick.
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_ORCH_AUTOSCALER_H_
