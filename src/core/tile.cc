#include "src/core/tile.h"

#include "src/sim/logging.h"

namespace apiary {

Tile::Tile(const Simulator* sim, TileId id, NetworkInterface* ni, Cycle reconfig_cycles)
    : id_(id), monitor_(sim, id, ni), reconfig_cycles_(reconfig_cycles) {
  // Packets landing in the NI's delivery queue are this tile's input: route
  // the NI's delivery-side wake here so a parked tile resumes the cycle the
  // reference every-block loop would have drained the packet.
  if (ni != nullptr) {
    ni->SetSinkWake(WakeHint(this));
  }
  // Fault-plane calls (RaiseFault, FailStop) can arrive from outside the
  // tile while it is parked; they wake it the same way delivered packets do.
  monitor_.SetOwnerWake(WakeHint(this));
}

std::string Tile::DebugName() const {
  return "tile" + std::to_string(id_) + (accel_ ? ":" + accel_->name() : ":empty");
}

void Tile::Configure(std::unique_ptr<Accelerator> accel, bool immediate) {
  pending_accel_ = std::move(accel);
  reconfiguring_ = true;
  booted_ = false;
  if (immediate) {
    reconfig_done_at_ = 0;  // Completes on the next tick.
  } else {
    reconfig_done_at_ = monitor_.now() + reconfig_cycles_;
  }
  // External input (the kernel's reconfiguration plane): a vacant tile may
  // be parked idle, and a busy one may be parked past the new done-at.
  RequestWake();
}

bool Tile::PreemptSwap(std::unique_ptr<Accelerator> replacement) {
  if (accel_ == nullptr || !accel_->IsPreemptible()) {
    return false;
  }
  std::vector<uint8_t> state = accel_->SaveState();
  APIARY_LOG(kInfo) << "tile " << id_ << ": preempting " << accel_->name() << " ("
                    << state.size() << "B of context)";
  accel_ = std::move(replacement);
  if (accel_ != nullptr) {
    accel_->RestoreState(state);
    accel_->OnBoot(monitor_);
  }
  monitor_.Restart();
  // The replacement boots with fresh state and may need to run immediately
  // even if the preempted context had declared a long quiet stretch.
  RequestWake();
  return true;
}

void Tile::HandleAcceleratorFault() {
  // A raised fault fail-stops the tile. Swapping a preemptible context out
  // is the kernel's call (ApiaryOs::PreemptSwap), with a replacement.
  monitor_.FailStop("accelerator fault: " + monitor_.fault_reason());
}

Cycle Tile::NextActivity(Cycle now) const {
  Cycle next = monitor_.NextActivity(now);
  if (reconfiguring_) {
    const Cycle done = reconfig_done_at_ > now ? reconfig_done_at_ : now;
    next = done < next ? done : next;
  }
  const bool accel_runs = accel_ != nullptr && !reconfiguring_ && !seu_wedged_ &&
                          monitor_.fault_state() == TileFaultState::kHealthy;
  if (accel_runs) {
    // A raised-but-unhandled fault is pending Tick work: the fail-stop in
    // HandleAcceleratorFault only happens on the next tick, so the
    // declaration must keep the tile active until it runs.
    if (!booted_ || monitor_.HasPendingInbox() || monitor_.accelerator_faulted()) {
      return now;
    }
    const Cycle accel_next = accel_->NextActivity(now);
    next = accel_next < next ? accel_next : next;
  }
  return next;
}

void Tile::Tick(Cycle now) {
  monitor_.BeginCycle();

  if (reconfiguring_ && now >= reconfig_done_at_) {
    reconfiguring_ = false;
    accel_ = std::move(pending_accel_);
    monitor_.Restart();
    booted_ = false;
    seu_wedged_ = false;  // Reconfiguration rewrites the upset logic.
  }

  if (accel_ != nullptr && !reconfiguring_ && !seu_wedged_ &&
      monitor_.fault_state() == TileFaultState::kHealthy) {
    if (!booted_) {
      accel_->OnBoot(monitor_);
      booted_ = true;
    }
    accel_->Tick(monitor_);
    // Deliver all queued messages; accelerators are event-driven.
    while (auto msg = monitor_.Receive()) {
      accel_->OnMessage(*msg, monitor_);
      if (monitor_.accelerator_faulted()) {
        break;
      }
    }
    if (monitor_.accelerator_faulted()) {
      HandleAcceleratorFault();
    }
  }

  monitor_.FlushOutbox();
}

}  // namespace apiary
