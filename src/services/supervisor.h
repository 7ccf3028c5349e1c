// Self-healing supervisor: the kernel-side control loop that turns detected
// tile faults into automatic recovery (Section 4.4's fault model, closed
// into a loop).
//
// Detection feeds in two ways: the MgmtService watchdog forwards missed
// heartbeats (silent wedges), and the supervisor's own poll notices tiles
// that fail-stopped themselves (crash faults). Recovery is policy-driven:
//   * hot-standby failover when a pre-configured spare exists for the
//     service (RebindService + capability re-grant; ~instant),
//   * otherwise fail-stop -> partial reconfiguration -> capability
//     reinstall (the full cold path, minutes of simulated time),
//   * exponential backoff between repeated restarts of the same tile,
//   * quarantine for tiles that crash-loop faster than the policy allows.
#ifndef SRC_SERVICES_SUPERVISOR_H_
#define SRC_SERVICES_SUPERVISOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/core/kernel.h"
#include "src/sim/clocked.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

// How often the supervisor scans managed tiles for self-fail-stops.
inline constexpr Cycle kSupervisorPollPeriod = 256;
// Backoff before the 2nd, 3rd, ... restart inside one crash-loop window:
// base, 2*base, 4*base, ... capped at base << kSupervisorBackoffMaxDoublings.
inline constexpr Cycle kSupervisorBackoffBaseCycles = 20'000;
inline constexpr uint32_t kSupervisorBackoffMaxDoublings = 6;

struct SupervisorConfig {
  // More than this many faults inside `crash_loop_window` quarantines the
  // tile (no further restarts; requires operator intervention).
  uint32_t quarantine_after = 4;
  Cycle crash_loop_window = 1'500'000;
};

class Supervisor : public Clocked {
 public:
  // Recovery state of a managed tile. Public so orchestration (placement,
  // reconfiguration scheduling — src/orch) can refuse to target a region the
  // supervisor is mid-way through healing: scaling and recovery must never
  // race on one tile.
  enum class TileState : uint8_t {
    kHealthy = 0,
    kBackoff = 1,        // Fault seen; waiting out the restart delay.
    kReconfiguring = 2,  // Fresh bitstream loading.
    kQuarantined = 3,    // Crash-looped past policy; left fail-stopped.
  };

  // Builds a replacement accelerator for a tile being recovered.
  using AccelFactory = std::function<std::unique_ptr<Accelerator>()>;

  Supervisor(ApiaryOs* os, SupervisorConfig config = SupervisorConfig{});

  // Puts `tile` under supervision; `factory` supplies fresh logic for each
  // recovery reconfiguration.
  void Manage(TileId tile, AccelFactory factory);

  // Registers `standby_tile` (already configured with equivalent logic) as
  // the hot spare for `service`; consumed by the first failover.
  void SetStandby(ServiceId service, TileId standby_tile);

  // Fault notification: from MgmtService's watchdog, from the poll loop, or
  // from any other detector. Idempotent while a recovery is in progress.
  void OnTileFault(TileId tile, const std::string& reason);

  // Policy escalation: fail-stop `tile` and leave it quarantined (no
  // restarts) until operator intervention. Used by the tenant manager for
  // repeat quota offenders; the crash-loop path reaches the same state
  // automatically.
  void Quarantine(TileId tile, const std::string& reason);

  void Tick(Cycle now) override;
  // Parks until a backoff expiry, or the next poll multiple while any
  // healthy-state managed tile sits fail-stopped (the poll's only effect).
  // Everything else arrives as a wake: OnTileFault, and each managed
  // tile's monitor, which wakes the supervisor on FailStop and when a
  // reconfiguration lands (Monitor::SetWatcher). The supervisor is
  // registered after the tiles, so a wake from a tile's tick runs it in
  // that same cycle — exactly as in a cycle-by-cycle run.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "supervisor"; }

  const CounterSet& counters() const { return counters_; }
  // Fault-detection to back-in-service time, per recovered fault.
  const Histogram& recovery_cycles() const { return recovery_cycles_; }
  bool quarantined(TileId tile) const;
  uint64_t restarts(TileId tile) const;
  // Recovery state of `tile`; kHealthy for tiles not under supervision.
  TileState tile_state(TileId tile) const;
  // True when no managed tile is mid-recovery or quarantined.
  bool AllHealthy() const;

 private:
  struct Managed {
    AccelFactory factory;
    TileState state = TileState::kHealthy;
    uint64_t restarts = 0;
    uint32_t recent_faults = 0;   // Faults inside the current window.
    Cycle window_start = 0;
    Cycle fault_detected_at = 0;
    Cycle restart_at = 0;
    // When the tile's service failed over to a spare, the recovered tile
    // becomes the service's next standby instead of rejoining directly.
    ServiceId standby_for = kInvalidService;
  };

  void BeginRecovery(TileId tile, Managed& m, Cycle now);

  ApiaryOs* os_;
  SupervisorConfig config_;
  std::map<TileId, Managed> managed_;
  std::map<ServiceId, TileId> standbys_;
  CounterSet counters_;
  Histogram recovery_cycles_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_SUPERVISOR_H_
