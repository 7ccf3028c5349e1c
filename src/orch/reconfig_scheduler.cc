#include "src/orch/reconfig_scheduler.h"

#include <utility>

#include "src/sim/logging.h"

namespace apiary {

ReconfigScheduler::ReconfigScheduler(ApiaryOs* os, AppId app,
                                     ReconfigSchedulerConfig config)
    : os_(os), app_(app), config_(config) {
  os_->sim().Register(this);
}

void ReconfigScheduler::ScheduleLoad(TileId tile, AccelFactory factory,
                                     LoadCallback done) {
  Job job;
  job.kind = JobKind::kLoad;
  job.tile = tile;
  job.factory = std::move(factory);
  job.on_load = std::move(done);
  jobs_.push_back(std::move(job));
  counters_.Add("orch.loads_queued");
  // New work for an idle (parked) scheduler; callers are root-phase blocks.
  RequestWake();
}

void ReconfigScheduler::ScheduleTeardown(TileId tile, std::function<bool()> drained,
                                         TeardownCallback done) {
  Job job;
  job.kind = JobKind::kTeardown;
  job.tile = tile;
  job.drained = std::move(drained);
  job.on_teardown = std::move(done);
  jobs_.push_back(std::move(job));
  counters_.Add("orch.teardowns_queued");
  RequestWake();
}

void ReconfigScheduler::SetRateQuota(uint32_t loads_per_window, Cycle window_cycles) {
  quota_ = loads_per_window == 0 ? WindowMeter() : WindowMeter(loads_per_window, window_cycles);
}

void ReconfigScheduler::StartNext(Cycle now) {
  if (active_.has_value() || jobs_.empty()) {
    return;
  }
  Active a;
  a.job = std::move(jobs_.front());
  jobs_.pop_front();
  a.job.head_at = now;  // Drain deadline runs from reaching the head.
  active_ = std::move(a);
}

void ReconfigScheduler::FinishActive(bool ok) {
  // Move the job out before invoking its callback: the callback may schedule
  // new work (push into jobs_) or inspect queue state.
  Active a = std::move(*active_);
  active_.reset();
  if (a.job.kind == JobKind::kLoad) {
    counters_.Add(ok ? "orch.loads_live" : "orch.loads_aborted");
    if (a.job.on_load) {
      a.job.on_load(a.job.tile, ok ? a.service : kInvalidService, ok);
    }
  } else {
    counters_.Add(ok ? "orch.teardowns_done" : "orch.teardowns_aborted");
    if (a.job.on_teardown) {
      a.job.on_teardown(a.job.tile, ok);
    }
  }
}

void ReconfigScheduler::Tick(Cycle now) {
  StartNext(now);
  if (!active_.has_value()) {
    return;
  }
  Active& a = *active_;
  Job& job = a.job;

  if (a.loading) {
    // Bitstream in flight; the tile flips out of reconfiguring() when the
    // load (or blank) completes.
    if (os_->tile(job.tile).reconfiguring()) {
      return;
    }
    if (job.kind == JobKind::kLoad &&
        os_->tile(job.tile).monitor().fault_state() != TileFaultState::kHealthy) {
      FinishActive(false);  // Faulted during boot; the supervisor owns it now.
      return;
    }
    FinishActive(true);
    return;
  }

  if (job.kind == JobKind::kTeardown) {
    // Phase 1: drain. Poll the predicate; require it to hold for
    // drain_cycles so responses clear the NoC, and force the teardown if it
    // never holds by the deadline (a stuck requester must not pin a region).
    if (job.drain_ok_since == kInvalidCycle) {
      const bool deadline = now - job.head_at > config_.drain_deadline_cycles;
      if (!job.drained || job.drained()) {
        job.drain_ok_since = now;
      } else if (deadline) {
        counters_.Add("orch.teardowns_forced");
        APIARY_LOG(kWarn) << "reconfig_scheduler: drain deadline on tile "
                          << job.tile << "; forcing teardown";
        job.drain_ok_since = now;
      } else {
        return;
      }
    }
    if (now - job.drain_ok_since < config_.drain_cycles) {
      return;
    }
    // Phase 2: the blanking bitstream goes through the same serialized port,
    // and counts against the tenant's ICAP rate quota like any other push.
    if (!quota_.WouldAllow(now, 1)) {
      counters_.Add("orch.quota_stall_cycles");
      return;
    }
    if (!os_->IcapFree()) {
      counters_.Add("orch.icap_stall_cycles");
      return;
    }
    if (!os_->Undeploy(job.tile, /*immediate=*/false)) {
      FinishActive(false);  // Already vacant (e.g. torn down by recovery).
      return;
    }
    quota_.TryConsume(now, 1);
    a.loading = true;
    counters_.Add("orch.teardowns_started");
    return;
  }

  // Load job: claim the ICAP, then deploy with real reconfiguration latency.
  if (!quota_.WouldAllow(now, 1)) {
    counters_.Add("orch.quota_stall_cycles");
    return;
  }
  if (!os_->IcapFree()) {
    counters_.Add("orch.icap_stall_cycles");
    return;
  }
  if (!os_->tile(job.tile).vacant() ||
      os_->tile(job.tile).monitor().fault_state() != TileFaultState::kHealthy) {
    FinishActive(false);  // The region was lost between placement and load.
    return;
  }
  DeployOptions options;
  options.tile = job.tile;
  options.immediate = false;
  ServiceId service = kInvalidService;
  const TileId landed = os_->Deploy(app_, job.factory(), &service, options);
  if (landed == kInvalidTile) {
    FinishActive(false);
    return;
  }
  quota_.TryConsume(now, 1);
  a.service = service;
  a.loading = true;
  counters_.Add("orch.loads_started");
}

}  // namespace apiary
