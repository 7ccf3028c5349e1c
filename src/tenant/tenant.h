// Tenant subsystem: mutually distrusting principals on one Apiary board.
//
// The paper's isolation claim (Sections 4.5-4.6) is per-tile: monitors scrub
// identities, capabilities gate endpoints, rate limits bound injection. A
// cloud deployment needs one more layer — the *tenant*, a principal that
// owns a set of tiles, a capability subtree rooted in the kernel, and
// enforced shares of every board-wide resource:
//   * tile count        — admission-checked at deploy and autoscale time,
//   * NoC bandwidth     — a tenant-shared token bucket drawn alongside each
//                         member monitor's per-tile limiter, plus a weighted
//                         arbitration class inside every router,
//   * memory channel    — per-app windowed op shares in the MemoryService,
//   * ICAP reconfig rate— a windowed load quota on the tenant's scheduler.
// The manager also meters each tenant's consumption at fixed boundaries and
// appends deterministic billing records (byte-identical across reruns and
// across skip/no-skip), exported through kOpTenantStats. Repeat quota
// offenders are escalated to Supervisor quarantine.
#ifndef SRC_TENANT_TENANT_H_
#define SRC_TENANT_TENANT_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kernel.h"
#include "src/orch/autoscaler.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/memory_service.h"
#include "src/services/supervisor.h"
#include "src/sim/clocked.h"
#include "src/sim/rate_limiter.h"
#include "src/stats/summary.h"

namespace apiary {

using TenantId = uint32_t;
inline constexpr TenantId kInvalidTenant = 0;

// Resource shares for one tenant. Zero means "unlimited" for every knob —
// a default-constructed quota admits everything (the enforcement-off
// configuration of the adversarial experiments).
struct TenantQuota {
  uint32_t max_tiles = 0;
  // Tenant-wide NoC injection budget, shared by all member monitors.
  uint64_t noc_flits_per_1k = 0;
  uint64_t noc_burst_flits = 0;
  // Weighted-arbitration class for the tenant's traffic (0 keeps the
  // default class; classes are assigned per tenant by the operator).
  uint8_t arb_class = 0;
  uint32_t arb_weight = 0;
  // Memory-channel share: data-plane ops per window for each member app.
  uint64_t mem_ops_per_window = 0;
  Cycle mem_window_cycles = 10'000;
  // ICAP share: bitstream pushes per window on the tenant's scheduler.
  uint32_t reconfig_loads_per_window = 0;
  Cycle reconfig_window_cycles = 1'000'000;
  // Escalation policy: a metering period with at least `offense_threshold`
  // quota denials is a strike; `quarantine_strikes` strikes quarantine the
  // tenant's tiles. Zero threshold disables escalation.
  uint64_t offense_threshold = 0;
  uint32_t quarantine_strikes = 3;
};

// Point-in-time metering totals for one tenant (also the kOpTenantStats
// response payload, minus the record digest).
struct TenantUsage {
  uint32_t tiles = 0;
  uint64_t tile_cycles = 0;
  uint64_t messages_sent = 0;
  uint64_t flits_sent = 0;
  uint64_t quota_denials = 0;
  uint64_t mem_ops = 0;
};

class TenantManager : public Clocked {
 public:
  // Metering records are cut every `meter_period` cycles. The manager
  // registers itself with the kernel's simulator.
  explicit TenantManager(ApiaryOs* os, Cycle meter_period = 100'000);

  // ------------------------------------------------------------------
  // Tenant lifecycle.
  // ------------------------------------------------------------------
  TenantId CreateTenant(const std::string& name, const TenantQuota& quota);
  // Creates a kernel app owned by `tenant` and installs the tenant's
  // memory-channel share for it (when a memory service is attached).
  AppId CreateApp(TenantId tenant, const std::string& name);

  // Deploys an accelerator for one of the tenant's apps, enforcing the tile
  // quota and attaching the tenant's NoC budget and arbitration class to
  // the landed tile's monitor. Returns kInvalidTile when the quota or the
  // underlying deploy refuses.
  TileId Deploy(TenantId tenant, AppId app, std::unique_ptr<Accelerator> accel,
                ServiceId* out_service = nullptr, DeployOptions options = DeployOptions{});

  // Tile-quota admission check (no side effects): true while the tenant may
  // add one more tile. Wire into Autoscaler::SetAdmission.
  bool AdmitTile(TenantId tenant) const;

  // Membership maintenance for tiles that joined through other paths (e.g.
  // an orchestrator load callback): applies the tenant's NoC budget and
  // class to the monitor.
  void AttachTile(TenantId tenant, TileId tile);

  // ------------------------------------------------------------------
  // Capability subtree.
  // ------------------------------------------------------------------
  // Grants through the kernel and records the edge in the tenant's subtree
  // so RevokeAll can cut the whole tenant off in one call.
  [[nodiscard]] CapRef GrantSendToService(TenantId tenant, TileId src, ServiceId dst);
  void RevokeAll(TenantId tenant);

  // ------------------------------------------------------------------
  // Enforcement wiring.
  // ------------------------------------------------------------------
  // Tenant-owned reconfig scheduler: installs the tenant's ICAP quota.
  void AttachScheduler(TenantId tenant, ReconfigScheduler* scheduler);
  // Escalation target; without one, repeat offenders are fail-stopped
  // directly through the kernel.
  void SetSupervisor(Supervisor* supervisor);
  // Memory service hosting the tenant apps' segments; needed both to
  // install per-app shares and to meter memory ops.
  void SetMemoryService(MemoryService* memsvc);

  // ------------------------------------------------------------------
  // Metering.
  // ------------------------------------------------------------------
  TenantUsage Usage(TenantId tenant) const;
  // Deterministic billing-record text: one line per metering period, stable
  // across reruns and across skip/no-skip runs.
  const std::string& BillingRecords(TenantId tenant) const;
  uint32_t BillingRecordCount(TenantId tenant) const;
  // FNV-1a digest over the record text (the kOpTenantStats proof token).
  uint32_t BillingDigest(TenantId tenant) const;
  const std::vector<TileId>& Tiles(TenantId tenant) const;
  const TenantQuota& Quota(TenantId tenant) const;
  bool Escalated(TenantId tenant) const;

  void Tick(Cycle now) override;
  // The manager acts only at metering boundaries; declaring them keeps the
  // boundary cycles executed (never skipped), which is what makes records
  // identical across skip and no-skip runs.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "tenant_manager"; }

  const CounterSet& counters() const { return counters_; }

 private:
  struct TenantState {
    std::string name;
    TenantQuota quota;
    // Shared injection budget; member monitors hold a pointer (std::map
    // nodes are address-stable).
    TokenBucket noc_budget;
    std::vector<TileId> tiles;
    std::vector<AppId> apps;
    std::vector<std::pair<TileId, CapRef>> grants;
    // Metering state: last-boundary snapshots and running totals.
    uint64_t last_messages = 0;
    uint64_t last_flits = 0;
    uint64_t last_denials = 0;
    uint64_t last_mem_ops = 0;
    TenantUsage totals;
    uint32_t strikes = 0;
    bool escalated = false;
    std::string records;
    uint32_t record_count = 0;
  };

  TenantState* Find(TenantId tenant);
  const TenantState* Find(TenantId tenant) const;
  // Sums a monitor counter across the tenant's member tiles.
  uint64_t SumMonitorCounter(const TenantState& t, const std::string& name) const;
  uint64_t SumMemOps(const TenantState& t) const;
  void CutRecord(TenantId id, TenantState& t, Cycle now);
  void Escalate(TenantId id, TenantState& t);

  ApiaryOs* os_;
  Cycle meter_period_;
  TenantId next_tenant_ = 1;
  std::map<TenantId, TenantState> tenants_;
  std::map<AppId, TenantId> app_owner_;
  Supervisor* supervisor_ = nullptr;
  MemoryService* memsvc_ = nullptr;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_TENANT_TENANT_H_
