#include "src/services/supervisor.h"

#include <algorithm>

#include "src/sim/logging.h"

namespace apiary {

Supervisor::Supervisor(ApiaryOs* os, SupervisorConfig config)
    : os_(os), config_(config) {
  // Registered after the tiles (ApiaryOs construction), so each cycle the
  // supervisor observes post-tick tile state.
  os_->sim().Register(this);
}

void Supervisor::Manage(TileId tile, AccelFactory factory) {
  Managed m;
  m.factory = std::move(factory);
  managed_[tile] = std::move(m);
}

void Supervisor::SetStandby(ServiceId service, TileId standby_tile) {
  standbys_[service] = standby_tile;
}

bool Supervisor::quarantined(TileId tile) const {
  auto it = managed_.find(tile);
  return it != managed_.end() && it->second.state == TileState::kQuarantined;
}

uint64_t Supervisor::restarts(TileId tile) const {
  auto it = managed_.find(tile);
  return it == managed_.end() ? 0 : it->second.restarts;
}

Supervisor::TileState Supervisor::tile_state(TileId tile) const {
  auto it = managed_.find(tile);
  return it == managed_.end() ? TileState::kHealthy : it->second.state;
}

bool Supervisor::AllHealthy() const {
  return std::all_of(managed_.begin(), managed_.end(), [](const auto& kv) {
    return kv.second.state == TileState::kHealthy;
  });
}

void Supervisor::Quarantine(TileId tile, const std::string& reason) {
  os_->FailStop(tile, reason);
  Managed& m = managed_[tile];  // Unmanaged tiles quarantine too (no factory needed).
  if (m.state == TileState::kQuarantined) {
    return;
  }
  m.state = TileState::kQuarantined;
  counters_.Add("supervisor.quarantines");
  APIARY_LOG(kWarn) << "supervisor: tile " << tile << " quarantined (" << reason << ")";
}

void Supervisor::OnTileFault(TileId tile, const std::string& reason) {
  auto it = managed_.find(tile);
  if (it == managed_.end()) {
    os_->FailStop(tile, reason);  // Not ours to heal, but still contained.
    return;
  }
  Managed& m = it->second;
  if (m.state != TileState::kHealthy) {
    return;  // Already recovering (or quarantined) — one fault, one recovery.
  }
  counters_.Add("supervisor.faults_detected");
  const Cycle now = os_->sim().now();
  m.fault_detected_at = now;
  // Contain first: the tile may still be half-alive (watchdog path).
  os_->FailStop(tile, reason);
  APIARY_LOG(kInfo) << "supervisor: tile " << tile << " faulted (" << reason << ")";

  // Crash-loop accounting over a sliding-ish window.
  if (now - m.window_start > config_.crash_loop_window) {
    m.window_start = now;
    m.recent_faults = 0;
  }
  ++m.recent_faults;
  if (m.recent_faults > config_.quarantine_after) {
    m.state = TileState::kQuarantined;
    counters_.Add("supervisor.quarantines");
    APIARY_LOG(kWarn) << "supervisor: tile " << tile << " quarantined after "
                      << m.recent_faults << " faults";
    return;
  }

  // Hot-standby failover: repoint the logical name, re-grant every client,
  // and let the spare carry the service while the dead tile reconfigures.
  const ServiceId svc = os_->monitor(tile).service();
  auto standby_it = standbys_.find(svc);
  if (standby_it != standbys_.end()) {
    const TileId spare = standby_it->second;
    // A spare that is mid-reconfiguration (its own recovery, or an
    // orchestrator load claimed the region) or otherwise unhealthy must
    // never take over a logical name — rebinding would black-hole the
    // service. Leave it registered for next time and fall back to cold
    // recovery of the faulted tile.
    const bool spare_usable = !os_->tile(spare).reconfiguring() &&
                              os_->monitor(spare).fault_state() == TileFaultState::kHealthy &&
                              tile_state(spare) == TileState::kHealthy;
    if (spare_usable) {
      standbys_.erase(standby_it);
      os_->RebindService(svc, spare);
      os_->RegrantClientsOf(svc);
      counters_.Add("supervisor.failovers");
      // Service is back the moment the re-grants land.
      recovery_cycles_.Record(0);
      counters_.Add("supervisor.faults_recovered");
      // Once repaired, this tile becomes the service's next spare.
      m.standby_for = svc;
    } else {
      counters_.Add("supervisor.standby_unavailable");
      APIARY_LOG(kWarn) << "supervisor: standby tile " << spare << " for service " << svc
                        << " is unavailable; cold-recovering tile " << tile;
    }
  }

  BeginRecovery(tile, m, now);
}

void Supervisor::BeginRecovery(TileId tile, Managed& m, Cycle now) {
  (void)tile;
  // First fault in a window restarts immediately; repeats back off
  // exponentially so a persistent fault cannot monopolize reconfiguration
  // bandwidth.
  Cycle delay = 0;
  if (m.recent_faults > 1) {
    const uint32_t doublings = std::min(m.recent_faults - 2, kSupervisorBackoffMaxDoublings);
    delay = kSupervisorBackoffBaseCycles << doublings;
    counters_.Add("supervisor.backoff_delays");
  }
  m.restart_at = now + delay;
  m.state = TileState::kBackoff;
}

Cycle Supervisor::NextActivity(Cycle now) const {
  Cycle next = kNoActivity;
  bool poll_has_work = false;
  for (const auto& [tile, m] : managed_) {
    switch (m.state) {
      case TileState::kHealthy:
        // The poll only acts on a fail-stopped monitor; an idle healthy
        // fleet needs no poll wakeups at all.
        if (os_->monitor(tile).fault_state() == TileFaultState::kStopped) {
          poll_has_work = true;
        }
        break;
      case TileState::kBackoff: {
        const Cycle at = m.restart_at > now ? m.restart_at : now;
        next = at < next ? at : next;
        break;
      }
      case TileState::kReconfiguring:
        // The recovering tile itself pins the reconfig-done cycle (see
        // header comment); nothing to declare here.
        break;
      case TileState::kQuarantined:
        break;
    }
  }
  if (poll_has_work) {
    const Cycle rem = now % kSupervisorPollPeriod;
    const Cycle poll = rem == 0 ? now : now + (kSupervisorPollPeriod - rem);
    next = poll < next ? poll : next;
  }
  return next;
}

void Supervisor::Tick(Cycle now) {
  // Poll for tiles that fail-stopped themselves (crash faults surface this
  // way; wedges arrive via the MgmtService watchdog instead).
  if (now % kSupervisorPollPeriod == 0) {
    for (auto& [tile, m] : managed_) {
      if (m.state == TileState::kHealthy &&
          os_->monitor(tile).fault_state() == TileFaultState::kStopped) {
        OnTileFault(tile, os_->monitor(tile).fault_reason());
      }
    }
  }
  for (auto& [tile, m] : managed_) {
    switch (m.state) {
      case TileState::kBackoff:
        if (now >= m.restart_at) {
          if (!os_->IcapFree()) {
            // Another region owns the configuration port; recovery waits
            // its turn rather than stacking a second load on the ICAP.
            counters_.Add("supervisor.icap_wait_cycles");
            break;
          }
          // Revoke-and-reload, then immediately replay the kernel's grant
          // log: the caps sit in the monitor table through reconfiguration
          // so the fresh logic finds them at boot.
          os_->Reconfigure(tile, m.factory(), /*immediate=*/false);
          os_->ReinstallTileCaps(tile);
          ++m.restarts;
          counters_.Add("supervisor.reconfigures");
          m.state = TileState::kReconfiguring;
        }
        break;
      case TileState::kReconfiguring:
        if (!os_->tile(tile).reconfiguring() &&
            os_->monitor(tile).fault_state() == TileFaultState::kHealthy) {
          if (m.standby_for != kInvalidService) {
            // Its old service lives on the spare now; this tile waits as
            // the next standby rather than splitting the logical name.
            SetStandby(m.standby_for, tile);
            m.standby_for = kInvalidService;
          } else {
            recovery_cycles_.Record(now - m.fault_detected_at);
            counters_.Add("supervisor.faults_recovered");
          }
          m.state = TileState::kHealthy;
        }
        break;
      case TileState::kHealthy:
      case TileState::kQuarantined:
        break;
    }
  }
}

}  // namespace apiary
