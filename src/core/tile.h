// A tile: one NoC endpoint holding a trusted monitor and an untrusted,
// dynamically reconfigurable accelerator slot (Figure 1).
#ifndef SRC_CORE_TILE_H_
#define SRC_CORE_TILE_H_

#include <memory>
#include <string>

#include "src/core/accelerator.h"
#include "src/core/monitor.h"
#include "src/sim/clocked.h"

namespace apiary {

// Fault-handling policy applied when the accelerator raises (or the monitor
// detects) a fault (Section 4.4).
enum class FaultPolicy : uint8_t {
  kFailStop = 0,   // Concurrent-only accelerators: drain and stop the tile.
  kPreempt = 1,    // Preemptible accelerators: swap the faulty context out.
};

class Tile : public Clocked {
 public:
  // `sim` is the board's simulator; the tile's monitor reads its clock.
  Tile(const Simulator* sim, TileId id, NetworkInterface* ni, MonitorConfig config,
       Cycle reconfig_cycles);

  // Loads `accel` into the slot. Takes `reconfig_cycles` of partial
  // reconfiguration, counted from the simulator's current cycle, before the
  // accelerator boots; pass `immediate` for time-zero board bring-up.
  void Configure(std::unique_ptr<Accelerator> accel, bool immediate);

  // Swaps the current (preemptible) accelerator's context out and loads a
  // replacement, transferring saved state if the replacement wants it.
  // Returns false when the current accelerator is not preemptible.
  bool PreemptSwap(std::unique_ptr<Accelerator> replacement);

  void Tick(Cycle now) override;
  // Quiescent when the monitor has nothing to drain or flush, no
  // reconfiguration is counting down, and the (booted, healthy) accelerator
  // itself declares idleness. Wedged/stopped slots contribute nothing: their
  // accelerator is not ticked in a cycle-by-cycle run either.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override;

  Monitor& monitor() { return monitor_; }
  const Monitor& monitor() const { return monitor_; }
  Accelerator* accelerator() { return accel_.get(); }
  TileId id() const { return id_; }
  bool reconfiguring() const { return reconfiguring_; }
  bool vacant() const { return accel_ == nullptr && !reconfiguring_; }

  void set_fault_policy(FaultPolicy policy) { fault_policy_ = policy; }
  FaultPolicy fault_policy() const { return fault_policy_; }

  // Fault injection (src/fault): an SEU silently wedges the accelerator
  // logic. The tile stops ticking the accelerator but does NOT mark itself
  // faulted — exactly like real radiation-induced upsets, the only external
  // symptom is silence (missed heartbeats, unanswered requests). Cleared by
  // partial reconfiguration.
  void InjectSeuWedge() {
    seu_wedged_ = true;
    // Wedging only gates work (never advances it), but the wake is free and
    // keeps the declaration change visible at the next boundary.
    RequestWake();
  }
  bool seu_wedged() const { return seu_wedged_; }

 private:
  void HandleAcceleratorFault();

  TileId id_;
  Monitor monitor_;
  std::unique_ptr<Accelerator> accel_;
  std::unique_ptr<Accelerator> pending_accel_;
  Cycle reconfig_cycles_;
  Cycle reconfig_done_at_ = 0;
  bool reconfiguring_ = false;
  bool booted_ = false;
  bool seu_wedged_ = false;
  FaultPolicy fault_policy_ = FaultPolicy::kFailStop;
};

}  // namespace apiary

#endif  // SRC_CORE_TILE_H_
