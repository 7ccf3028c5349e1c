// Adversarial-behavior library: seeded attack campaigns against a shared
// board, used to measure (not just assert) the tenant subsystem's isolation.
//
// A campaign is a deterministic schedule of attack phases; the driver flips
// per-attack active flags at phase edges and performs the control-plane
// attacks itself (reconfig thrash through a scheduler, SEU wedge loops).
// Data-plane attackers (flit floods, capability-probe sweeps) are
// accelerators that poll the driver's active flag through a plain bool
// pointer, so they stay deployable like any workload while the campaign
// remains the single source of timing; the driver wakes the board's tiles
// whenever it flips a flag. All randomness comes from the
// campaign seed: identical seeds replay identical attacks, byte for byte.
#ifndef SRC_TENANT_ABUSE_H_
#define SRC_TENANT_ABUSE_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/accelerator.h"
#include "src/core/capability.h"
#include "src/core/kernel.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/sim/clocked.h"
#include "src/sim/random.h"
#include "src/stats/summary.h"

namespace apiary {

enum class AttackKind : uint8_t {
  kFlitFlood = 0,       // Saturate a victim endpoint with maximal traffic.
  kReconfigThrash = 1,  // Load/teardown loop hogging the ICAP.
  kCapProbe = 2,        // Forged-capability sweep across the board.
  kWedgeLoop = 3,       // Repeated SEU wedges forcing recovery churn.
};
inline constexpr int kNumAttackKinds = 4;

const char* AttackKindName(AttackKind kind);

struct AbusePhase {
  AttackKind kind = AttackKind::kFlitFlood;
  Cycle at = 0;        // First active cycle.
  Cycle duration = 0;  // Active for [at, at + duration).
  Cycle period = 0;    // Repeat interval for event-style attacks.
};

// Builder for a seeded attack schedule.
class AbuseCampaign {
 public:
  explicit AbuseCampaign(uint64_t seed) : seed_(seed) {}

  AbuseCampaign& FlitFlood(Cycle at, Cycle duration);
  AbuseCampaign& ReconfigThrash(Cycle at, Cycle duration, Cycle period);
  AbuseCampaign& CapProbe(Cycle at, Cycle duration);
  AbuseCampaign& WedgeLoop(Cycle at, Cycle duration, Cycle period);

  uint64_t seed() const { return seed_; }
  const std::vector<AbusePhase>& phases() const { return phases_; }

 private:
  uint64_t seed_;
  std::vector<AbusePhase> phases_;
};

// Executes a campaign against the board: maintains the per-attack active
// flags and drives the control-plane attacks.
class AbuseDriver : public Clocked {
 public:
  using AccelFactory = std::function<std::unique_ptr<Accelerator>()>;

  AbuseDriver(ApiaryOs* os, AbuseCampaign campaign);

  // Stable pointer to the attack's active flag; data-plane attacker
  // accelerators poll it each tick. Every flip wakes every tile.
  const bool* ActiveFlag(AttackKind kind) const {
    return &active_[static_cast<int>(kind)];
  }

  // Reconfig thrash: while active, cycles `tile` through load/teardown on
  // `scheduler` (the attacking tenant's scheduler, so its ICAP quota —
  // when enforcement is on — throttles the thrash).
  void ConfigureThrash(ReconfigScheduler* scheduler, TileId tile, AccelFactory factory);

  // Wedge loop: while active, injects an SEU wedge into `tile` every phase
  // period (with seeded jitter), forcing watchdog-driven recovery churn.
  void ConfigureWedge(TileId tile);

  void Tick(Cycle now) override;
  // While any phase is active (or a flag is still up at its phase's end)
  // the driver acts (or polls a scheduler) every cycle; otherwise it sleeps
  // to the next phase start.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "abuse_driver"; }

  const CounterSet& counters() const { return counters_; }

 private:
  bool PhaseActive(AttackKind kind, Cycle now, Cycle* period) const;

  ApiaryOs* os_;
  AbuseCampaign campaign_;
  Rng rng_;
  std::array<bool, kNumAttackKinds> active_{};

  ReconfigScheduler* thrash_scheduler_ = nullptr;
  TileId thrash_tile_ = kInvalidTile;
  AccelFactory thrash_factory_;
  bool thrash_job_pending_ = false;
  bool thrash_loaded_ = false;

  TileId wedge_tile_ = kInvalidTile;
  Cycle next_wedge_ = 0;

  CounterSet counters_;
};

// Data-plane attacker: floods `victim` with back-to-back messages whenever
// the campaign flag is up. Counts how far it got (attacker throughput) and
// how often the monitor refused it (enforcement at work).
class FloodAttacker : public Accelerator {
 public:
  FloodAttacker(const bool* active, uint32_t message_bytes = 256)
      : active_(active), message_bytes_(message_bytes) {}

  void SetVictim(CapRef victim) { victim_ = victim; }

  void OnMessage(const Message& msg, TileApi& api) override {
    (void)msg;
    (void)api;  // Responses and bounces are ignored; the flood continues.
  }
  void Tick(TileApi& api) override;
  // APIARY-WAKE(driver): AbuseDriver wakes the tile on every flag flip.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return (active_ != nullptr && *active_ && victim_ != kInvalidCapRef) ? now
                                                                         : kNoActivity;
  }

  std::string name() const override { return "flood_attacker"; }
  uint32_t LogicCellCost() const override { return 9000; }

  uint64_t sent() const { return sent_; }
  uint64_t rate_limited() const { return rate_limited_; }
  uint64_t backpressured() const { return backpressured_; }

 private:
  const bool* active_;
  uint32_t message_bytes_;
  CapRef victim_ = kInvalidCapRef;
  uint64_t sent_ = 0;
  uint64_t rate_limited_ = 0;
  uint64_t backpressured_ = 0;
};

// Data-plane attacker: sweeps forged (slot, generation) capability refs
// across the board while active, counting attempts and how many the local
// monitor refused. Any delivery that comes back kOk with data is a leak.
class ProbeAttacker : public Accelerator {
 public:
  ProbeAttacker(const bool* active, uint32_t num_tiles, Cycle probe_period = 64)
      : active_(active), num_tiles_(num_tiles == 0 ? 1 : num_tiles),
        probe_period_(probe_period == 0 ? 1 : probe_period) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // APIARY-WAKE(driver): AbuseDriver wakes the tile on every flag flip.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (active_ == nullptr || !*active_) {
      return kNoActivity;
    }
    return next_probe_ > now ? next_probe_ : now;
  }

  std::string name() const override { return "probe_attacker"; }
  uint32_t LogicCellCost() const override { return 7000; }

  uint64_t attempts() const { return attempts_; }
  uint64_t denied() const { return denied_; }
  uint64_t leaked() const { return leaked_; }

 private:
  const bool* active_;
  uint32_t num_tiles_;
  Cycle probe_period_;
  Cycle next_probe_ = 0;
  uint32_t probe_cursor_ = 0;
  uint64_t attempts_ = 0;
  uint64_t denied_ = 0;
  uint64_t leaked_ = 0;
};

}  // namespace apiary

#endif  // SRC_TENANT_ABUSE_H_
