#include "src/tenant/abuse.h"

#include <algorithm>

#include "src/core/message.h"
#include "src/services/opcodes.h"

namespace apiary {

const char* AttackKindName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kFlitFlood:
      return "flit_flood";
    case AttackKind::kReconfigThrash:
      return "reconfig_thrash";
    case AttackKind::kCapProbe:
      return "cap_probe";
    case AttackKind::kWedgeLoop:
      return "wedge_loop";
  }
  return "unknown";
}

AbuseCampaign& AbuseCampaign::FlitFlood(Cycle at, Cycle duration) {
  phases_.push_back(AbusePhase{AttackKind::kFlitFlood, at, duration, 0});
  return *this;
}

AbuseCampaign& AbuseCampaign::ReconfigThrash(Cycle at, Cycle duration, Cycle period) {
  phases_.push_back(AbusePhase{AttackKind::kReconfigThrash, at, duration, period});
  return *this;
}

AbuseCampaign& AbuseCampaign::CapProbe(Cycle at, Cycle duration) {
  phases_.push_back(AbusePhase{AttackKind::kCapProbe, at, duration, 0});
  return *this;
}

AbuseCampaign& AbuseCampaign::WedgeLoop(Cycle at, Cycle duration, Cycle period) {
  phases_.push_back(AbusePhase{AttackKind::kWedgeLoop, at, duration, period});
  return *this;
}

AbuseDriver::AbuseDriver(ApiaryOs* os, AbuseCampaign campaign)
    : os_(os), campaign_(std::move(campaign)), rng_(campaign_.seed()) {
  os_->sim().Register(this);
}

void AbuseDriver::ConfigureThrash(ReconfigScheduler* scheduler, TileId tile,
                                  AccelFactory factory) {
  thrash_scheduler_ = scheduler;
  thrash_tile_ = tile;
  thrash_factory_ = std::move(factory);
}

void AbuseDriver::ConfigureWedge(TileId tile) { wedge_tile_ = tile; }

bool AbuseDriver::PhaseActive(AttackKind kind, Cycle now, Cycle* period) const {
  for (const AbusePhase& p : campaign_.phases()) {
    if (p.kind == kind && now >= p.at && now - p.at < p.duration) {
      if (period != nullptr) {
        *period = p.period;
      }
      return true;
    }
  }
  return false;
}

void AbuseDriver::Tick(Cycle now) {
  bool flipped = false;
  for (int k = 0; k < kNumAttackKinds; ++k) {
    const bool was = active_[k];
    active_[k] = PhaseActive(static_cast<AttackKind>(k), now, nullptr);
    flipped |= active_[k] != was;
    if (active_[k] && !was) {
      counters_.Add("abuse.phases_started");
    }
  }
  if (flipped) {
    // Data-plane attackers declare activity from the flags. The driver does
    // not know which tiles host them, so a flip wakes every tile; flips
    // happen only at phase edges, and a spurious wake is a no-op tick.
    for (TileId t = 0; t < os_->num_tiles(); ++t) {
      os_->tile(t).RequestWake();
    }
  }

  // Reconfig thrash: keep the tenant's scheduler saturated with alternating
  // load/teardown jobs on the thrash tile. With an ICAP rate quota in
  // place the scheduler throttles this loop; without one it contends for
  // the port every time the previous job finishes.
  Cycle thrash_period = 0;
  if (PhaseActive(AttackKind::kReconfigThrash, now, &thrash_period) &&
      thrash_scheduler_ != nullptr && !thrash_scheduler_->busy() &&
      !thrash_job_pending_) {
    if (os_->tile(thrash_tile_).vacant()) {
      thrash_job_pending_ = true;
      counters_.Add("abuse.thrash_loads");
      thrash_scheduler_->ScheduleLoad(
          thrash_tile_, [this] { return thrash_factory_(); },
          [this](TileId, ServiceId, bool ok) {
            thrash_job_pending_ = false;
            thrash_loaded_ = ok;
          });
    } else if (thrash_loaded_) {
      thrash_job_pending_ = true;
      counters_.Add("abuse.thrash_teardowns");
      thrash_scheduler_->ScheduleTeardown(
          thrash_tile_, [] { return true; },
          [this](TileId, bool) {
            thrash_job_pending_ = false;
            thrash_loaded_ = false;
          });
    }
  }

  // Wedge loop: upset the configured tile on a seeded cadence. Each wedge
  // silences the accelerator; the watchdog/supervisor pair pays the
  // recovery bill — which is exactly the resource the attack targets.
  Cycle wedge_period = 0;
  if (PhaseActive(AttackKind::kWedgeLoop, now, &wedge_period) &&
      wedge_tile_ != kInvalidTile && now >= next_wedge_) {
    if (!os_->tile(wedge_tile_).reconfiguring() && !os_->tile(wedge_tile_).seu_wedged() &&
        os_->monitor(wedge_tile_).fault_state() == TileFaultState::kHealthy) {
      os_->tile(wedge_tile_).InjectSeuWedge();
      counters_.Add("abuse.wedges_injected");
    }
    const Cycle base = wedge_period == 0 ? 1 : wedge_period;
    next_wedge_ = now + base + rng_.NextBelow(base / 4 + 1);
  }
}

Cycle AbuseDriver::NextActivity(Cycle now) const {
  for (int k = 0; k < kNumAttackKinds; ++k) {
    // Mid-phase: poll schedulers / flags every cycle. A flag still up after
    // its phase ended is due too: the tick at the end cycle lowers it.
    if (active_[k] || PhaseActive(static_cast<AttackKind>(k), now, nullptr)) {
      return now;
    }
  }
  Cycle next = kNoActivity;
  for (const AbusePhase& p : campaign_.phases()) {
    if (p.at > now) {
      next = std::min(next, p.at);
    }
  }
  return next;
}

void FloodAttacker::Tick(TileApi& api) {
  if (active_ == nullptr || !*active_ || victim_ == kInvalidCapRef) {
    return;
  }
  // Saturate: keep sending until the monitor or the NI refuses.
  while (true) {
    Message msg;
    msg.opcode = kOpAppBase;
    msg.payload.assign(message_bytes_, 0x5a);
    const SendResult r = api.Send(std::move(msg), victim_);
    if (r.ok()) {
      ++sent_;
      continue;
    }
    if (r.status == MsgStatus::kRateLimited) {
      ++rate_limited_;
    } else if (r.status == MsgStatus::kBackpressure) {
      ++backpressured_;
    }
    break;
  }
}

void ProbeAttacker::OnMessage(const Message& msg, TileApi& api) {
  (void)api;
  if (msg.kind != MsgKind::kResponse) {
    return;
  }
  if (msg.status == MsgStatus::kOk && !msg.payload.empty()) {
    ++leaked_;  // A data-bearing answer to a forged ref: isolation broke.
  } else {
    ++denied_;
  }
}

void ProbeAttacker::Tick(TileApi& api) {
  if (active_ == nullptr || !*active_ || api.now() < next_probe_) {
    return;
  }
  next_probe_ = api.now() + probe_period_;
  // Forge endpoint refs by cycling (slot, generation) pairs; the local
  // monitor's table lookup should refuse every one of them.
  ++attempts_;
  Message probe;
  probe.opcode = kOpAppBase;
  probe.payload = {0xde, 0xad};
  const CapRef forged = MakeCapRef(probe_cursor_ % 64, (probe_cursor_ / 64) % 16);
  probe_cursor_ = (probe_cursor_ + 1) % (num_tiles_ * 64 * 16);
  if (!api.Send(std::move(probe), forged).ok()) {
    ++denied_;
  }
}

}  // namespace apiary
