#include "src/orch/autoscaler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/sim/logging.h"
#include "src/stats/histogram.h"

namespace apiary {

Autoscaler::Autoscaler(ApiaryOs* os, LoadBalancer* lb, TileId lb_tile, AppId app,
                       ReplicaFactory factory, Placer* placer,
                       ReconfigScheduler* scheduler, AutoscalerConfig config)
    : os_(os),
      lb_(lb),
      lb_tile_(lb_tile),
      app_(app),
      factory_(std::move(factory)),
      placer_(placer),
      scheduler_(scheduler),
      config_(config) {
  // With a zero target every window that saw a completion reads as
  // latency-high, so the loop would scale up on every poll.
  if (config_.slo_p99_cycles == 0) {
    throw std::invalid_argument("AutoscalerConfig::slo_p99_cycles is unset");
  }
  // Anchor the integral at creation so the first tick does not back-fill
  // region-cycles for cycles that predate us.
  last_tick_ = os_->sim().now() - 1;
  os_->sim().Register(this);
}

void Autoscaler::AdoptReplica(ServiceId service, TileId tile, CapRef endpoint) {
  ChargeBeforeNow();
  Replica r;
  r.service = service;
  r.tile = tile;
  r.endpoint = endpoint;
  r.state = ReplicaState::kLive;
  replicas_.push_back(r);
}

uint64_t Autoscaler::replica_tile_cycles() const {
  // Cycles after the last tick were skipped (or are being executed): the
  // membership has not changed since, so they cost the current set.
  const Cycle now = os_->sim().now();
  if (now - 1 <= last_tick_) {
    return tile_cycles_;
  }
  return tile_cycles_ + (now - 1 - last_tick_) * replicas_.size();
}

uint32_t Autoscaler::live_replicas() const {
  uint32_t n = 0;
  for (const Replica& r : replicas_) {
    n += (r.state == ReplicaState::kLive) ? 1 : 0;
  }
  return n;
}

void Autoscaler::PushMembership() {
  std::vector<CapRef> endpoints;
  for (const Replica& r : replicas_) {
    if (r.state == ReplicaState::kLive) {
      endpoints.push_back(r.endpoint);
    }
  }
  lb_->ReplaceBackends(endpoints);
}

void Autoscaler::ChargeThrough(Cycle through) {
  // Every replica-owned region costs a region-cycle whether it is serving,
  // loading, or draining — the honest provisioning cost. Unsigned
  // arithmetic keeps the count right while last_tick_ is still the
  // creation cycle minus one.
  tile_cycles_ += (through - last_tick_) * replicas_.size();
  last_tick_ = through;
}

void Autoscaler::ChargeBeforeNow() {
  const Cycle now = os_->sim().now();
  if (last_tick_ != now) {
    ChargeThrough(now - 1);
  }
}

void Autoscaler::Tick(Cycle now) {
  // The cycles since the last tick were parked, with the same membership.
  ChargeThrough(now);
  if (config_.poll_period != 0 && now % config_.poll_period == 0) {
    Poll();
  }
}

void Autoscaler::Poll() {
  // Always consume the window so each poll sees only its own interval.
  const Histogram window = lb_->TakeWindowLatency();
  const Cycle now = os_->sim().now();
  const uint64_t queue_sum = lb_->outstanding_cycle_sum(now);
  const uint64_t queue_delta = queue_sum - last_queue_sum_;
  last_queue_sum_ = queue_sum;

  if (op_pending_) {
    return;  // One reconfiguration at a time; re-decide once it lands.
  }
  const uint32_t live = live_replicas();

  // Bound enforcement bypasses the cooldown: the operator's floor and
  // ceiling are not advisory, and replicas adopted outside them are
  // corrected here.
  if (live > config_.max_replicas) {
    ScaleDown();
    return;
  }
  if (live < config_.min_replicas) {
    ScaleUp();
    return;
  }

  const double avg_queue =
      static_cast<double>(queue_delta) / static_cast<double>(config_.poll_period);
  const double per_live = live == 0 ? avg_queue : avg_queue / live;
  const double slo = static_cast<double>(config_.slo_p99_cycles);
  bool latency_high = false;
  bool latency_low = false;
  if (window.count() == 0) {
    // No completions this window: wedged if work is queued, surplus if truly
    // idle.
    latency_high = avg_queue > static_cast<double>(live);
    latency_low = queue_delta == 0;
  } else {
    const auto p99 = static_cast<double>(window.P99());
    latency_high = p99 > slo;
    latency_low = p99 < config_.slo_down_fraction * slo;
  }
  // Utilization headroom complements the latency signal: grow before queues
  // turn into tail latency, and shrink only when the survivors would still
  // run comfortably below kScaleDownUtilization without the retired replica.
  const bool want_up = latency_high || per_live > kScaleUpUtilization;
  const double after = live > 1 ? avg_queue / (live - 1) : avg_queue;
  const bool want_down = latency_low && after < kScaleDownUtilization;
  // Scale-up is uncooled: the serialized ICAP already paces it to one
  // reconfiguration at a time, and queue blow-ups cost far more than an
  // extra replica. Scale-down is deliberate: the shrink signal must hold
  // for kScaleDownStablePolls consecutive windows AND a cooldown since the
  // last scaling action, or the loop oscillates on the diurnal ramps.
  if (want_up && live < config_.max_replicas) {
    down_streak_ = 0;
    ScaleUp();
    return;
  }
  down_streak_ = want_down ? down_streak_ + 1 : 0;
  if (down_streak_ >= kScaleDownStablePolls && live > config_.min_replicas &&
      now - last_scale_at_ >= config_.cooldown_cycles) {
    down_streak_ = 0;
    ScaleDown();
  }
}

void Autoscaler::ScaleUp() {
  if (admit_ && !admit_()) {
    // Tenant tile quota (or other policy) refuses the new region; stay at
    // the current size and retry on a later poll.
    counters_.Add("orch.scale_up_quota_denied");
    return;
  }
  PlacementRequest req;
  req.logic_cells = config_.replica_logic_cells;
  // Hug the balancer; spread away from the replicas already serving.
  req.near.push_back(lb_tile_);
  for (const Replica& r : replicas_) {
    req.apart.push_back(r.tile);
  }
  const TileId tile = placer_->Pick(req);
  if (tile == kInvalidTile) {
    counters_.Add("orch.scale_up_blocked");
    return;  // No eligible region; try again next poll.
  }
  placer_->Reserve(tile);
  op_pending_ = true;
  last_scale_at_ = os_->sim().now();
  Replica r;
  r.tile = tile;
  r.state = ReplicaState::kLoading;
  replicas_.push_back(r);
  counters_.Add("orch.scale_up_started");
  APIARY_LOG(kInfo) << "autoscaler: scaling up onto tile " << tile;
  scheduler_->ScheduleLoad(tile, factory_, [this](TileId t, ServiceId svc, bool ok) {
    ChargeBeforeNow();
    placer_->Release(t);
    op_pending_ = false;
    auto it = std::find_if(replicas_.begin(), replicas_.end(), [t](const Replica& x) {
      return x.tile == t && x.state == ReplicaState::kLoading;
    });
    if (it == replicas_.end()) {
      return;
    }
    if (!ok) {
      replicas_.erase(it);
      counters_.Add("orch.scale_up_failed");
      return;
    }
    it->service = svc;
    // Kernel-mediated rebind: the balancer's authority over the new replica
    // is a fresh capability, not an ambient route.
    it->endpoint = os_->GrantSendToService(lb_tile_, svc);
    it->state = ReplicaState::kLive;
    ++scale_ups_;
    counters_.Add("orch.scale_ups");
    PushMembership();
  });
}

void Autoscaler::ScaleDown() {
  // LIFO: retire the newest live replica; the oldest keep their warm state.
  auto it = std::find_if(replicas_.rbegin(), replicas_.rend(), [](const Replica& x) {
    return x.state == ReplicaState::kLive;
  });
  if (it == replicas_.rend()) {
    return;
  }
  Replica& victim = *it;
  victim.state = ReplicaState::kDraining;
  op_pending_ = true;
  last_scale_at_ = os_->sim().now();
  // Out of the rotation immediately: no new work lands on a draining
  // replica, while its in-flight requests finish through the recorded
  // endpoint.
  PushMembership();
  counters_.Add("orch.scale_down_started");
  APIARY_LOG(kInfo) << "autoscaler: draining tile " << victim.tile;
  const CapRef ep = victim.endpoint;
  scheduler_->ScheduleTeardown(
      victim.tile, [this, ep]() { return lb_->InFlightOn(ep) == 0; },
      [this](TileId t, bool ok) {
        ChargeBeforeNow();
        op_pending_ = false;
        auto rit = std::find_if(replicas_.begin(), replicas_.end(), [t](const Replica& x) {
          return x.tile == t && x.state == ReplicaState::kDraining;
        });
        if (rit == replicas_.end()) {
          return;
        }
        if (!ok) {
          // Region was already gone (recovery path owns it); drop the
          // replica record either way.
          counters_.Add("orch.scale_down_raced");
        }
        replicas_.erase(rit);
        ++scale_downs_;
        counters_.Add("orch.scale_downs");
        PushMembership();
      });
}

}  // namespace apiary
