#include "src/tenant/tenant.h"

#include <iomanip>
#include <sstream>

#include "src/sim/logging.h"

namespace apiary {

namespace {

// FNV-1a over the billing-record text; the digest kOpTenantStats exports so
// clients can prove two runs produced byte-identical records.
uint32_t Fnv1a(const std::string& text) {
  uint32_t h = 2166136261u;
  for (const char c : text) {
    h = (h ^ static_cast<uint8_t>(c)) * 16777619u;
  }
  return h;
}

}  // namespace

TenantManager::TenantManager(ApiaryOs* os, Cycle meter_period)
    : os_(os), meter_period_(meter_period == 0 ? 1 : meter_period) {
  os_->sim().Register(this);
}

TenantId TenantManager::CreateTenant(const std::string& name, const TenantQuota& quota) {
  const TenantId id = next_tenant_++;
  TenantState t;
  t.name = name;
  t.quota = quota;
  if (quota.noc_flits_per_1k != 0) {
    t.noc_budget = TokenBucket(quota.noc_flits_per_1k, quota.noc_burst_flits);
  }
  tenants_[id] = std::move(t);
  // First tenant flips NextActivity from "idle forever" to the metering
  // boundary; the manager may be parked on that stale declaration.
  RequestWake();
  if (quota.arb_class != 0 && quota.arb_weight != 0) {
    os_->SetNocClassWeight(quota.arb_class, quota.arb_weight);
  }
  counters_.Add("tenant.created");
  return id;
}

AppId TenantManager::CreateApp(TenantId tenant, const std::string& name) {
  TenantState* t = Find(tenant);
  if (t == nullptr) {
    return kInvalidApp;
  }
  const AppId app = os_->CreateApp(name);
  t->apps.push_back(app);
  app_owner_[app] = tenant;
  if (memsvc_ != nullptr && t->quota.mem_ops_per_window != 0) {
    memsvc_->SetAppShare(app, t->quota.mem_ops_per_window, t->quota.mem_window_cycles);
  }
  return app;
}

bool TenantManager::AdmitTile(TenantId tenant) const {
  const TenantState* t = Find(tenant);
  if (t == nullptr) {
    return false;
  }
  return t->quota.max_tiles == 0 || t->tiles.size() < t->quota.max_tiles;
}

void TenantManager::AttachTile(TenantId tenant, TileId tile) {
  TenantState* t = Find(tenant);
  if (t == nullptr) {
    return;
  }
  t->tiles.push_back(tile);
  Monitor& m = os_->monitor(tile);
  if (!t->noc_budget.unlimited()) {
    m.SetSharedLimiter(&t->noc_budget);
  }
  if (t->quota.arb_class != 0) {
    m.SetArbClass(t->quota.arb_class);
  }
}

TileId TenantManager::Deploy(TenantId tenant, AppId app, std::unique_ptr<Accelerator> accel,
                             ServiceId* out_service, DeployOptions options) {
  TenantState* t = Find(tenant);
  if (t == nullptr) {
    return kInvalidTile;
  }
  if (!AdmitTile(tenant)) {
    counters_.Add("tenant.deploy_quota_denied");
    return kInvalidTile;
  }
  const TileId tile = os_->Deploy(app, std::move(accel), out_service, options);
  if (tile == kInvalidTile) {
    return kInvalidTile;
  }
  AttachTile(tenant, tile);
  return tile;
}

CapRef TenantManager::GrantSendToService(TenantId tenant, TileId src, ServiceId dst) {
  TenantState* t = Find(tenant);
  if (t == nullptr) {
    return kInvalidCapRef;
  }
  const CapRef ref = os_->GrantSendToService(src, dst);
  if (ref != kInvalidCapRef) {
    t->grants.emplace_back(src, ref);
  }
  return ref;
}

void TenantManager::RevokeAll(TenantId tenant) {
  TenantState* t = Find(tenant);
  if (t == nullptr) {
    return;
  }
  // The subtree cut: every capability the tenant was ever granted through
  // this manager dies in one sweep (already-revoked entries no-op).
  for (const auto& [tile, ref] : t->grants) {
    os_->Revoke(tile, ref);
  }
  t->grants.clear();
  counters_.Add("tenant.subtree_revocations");
}

void TenantManager::AttachScheduler(TenantId tenant, ReconfigScheduler* scheduler) {
  TenantState* t = Find(tenant);
  if (t == nullptr || scheduler == nullptr) {
    return;
  }
  scheduler->SetRateQuota(t->quota.reconfig_loads_per_window,
                          t->quota.reconfig_window_cycles);
}

void TenantManager::SetSupervisor(Supervisor* supervisor) { supervisor_ = supervisor; }

void TenantManager::SetMemoryService(MemoryService* memsvc) {
  memsvc_ = memsvc;
  // Install shares for apps created before the service was attached.
  for (const auto& [app, tenant] : app_owner_) {
    const TenantState* t = Find(tenant);
    if (t != nullptr && t->quota.mem_ops_per_window != 0) {
      memsvc_->SetAppShare(app, t->quota.mem_ops_per_window, t->quota.mem_window_cycles);
    }
  }
}

uint64_t TenantManager::SumMonitorCounter(const TenantState& t,
                                          const std::string& name) const {
  uint64_t sum = 0;
  for (const TileId tile : t.tiles) {
    sum += os_->monitor(tile).counters().Get(name);
  }
  return sum;
}

uint64_t TenantManager::SumMemOps(const TenantState& t) const {
  if (memsvc_ == nullptr) {
    return 0;
  }
  uint64_t sum = 0;
  for (const AppId app : t.apps) {
    sum += memsvc_->AppOps(app);
  }
  return sum;
}

void TenantManager::CutRecord(TenantId id, TenantState& t, Cycle now) {
  // Sample member-monitor counters and emit the period's deltas. Every
  // input is deterministic simulation state, so the record text is a pure
  // function of the run's seed and configuration.
  const uint64_t messages = SumMonitorCounter(t, "monitor.sends");
  const uint64_t flits = SumMonitorCounter(t, "monitor.flits_sent");
  // Denials cover both enforcement flavors: rate-limit refusals (quota
  // pressure) and capability refusals (probe sweeps) — either one, sustained,
  // is offense material.
  const uint64_t denials = SumMonitorCounter(t, "monitor.send_rate_limited") +
                           SumMonitorCounter(t, "monitor.send_no_cap");
  const uint64_t mem_ops = SumMemOps(t);
  const uint64_t d_messages = messages - t.last_messages;
  const uint64_t d_flits = flits - t.last_flits;
  const uint64_t d_denials = denials - t.last_denials;
  const uint64_t d_mem_ops = mem_ops - t.last_mem_ops;
  t.last_messages = messages;
  t.last_flits = flits;
  t.last_denials = denials;
  t.last_mem_ops = mem_ops;

  const uint64_t tile_cycles = t.tiles.size() * meter_period_;
  t.totals.tiles = static_cast<uint32_t>(t.tiles.size());
  t.totals.tile_cycles += tile_cycles;
  t.totals.messages_sent += d_messages;
  t.totals.flits_sent += d_flits;
  t.totals.quota_denials += d_denials;
  t.totals.mem_ops += d_mem_ops;

  std::ostringstream line;
  line << "[t" << std::setw(4) << std::setfill('0') << id << " @" << std::setw(12)
       << now << "] tiles=" << t.tiles.size() << " tile_cycles=" << tile_cycles
       << " msgs=" << d_messages << " flits=" << d_flits << " denied=" << d_denials
       << " mem_ops=" << d_mem_ops;

  // Repeat-offender escalation: sustained quota pressure is adversarial,
  // not bursty bad luck. Strikes accumulate per offending period and clear
  // on a clean one.
  if (t.quota.offense_threshold != 0 && !t.escalated) {
    if (d_denials >= t.quota.offense_threshold) {
      ++t.strikes;
      line << " strike=" << t.strikes;
      if (t.strikes >= t.quota.quarantine_strikes) {
        Escalate(id, t);
        line << " escalated";
      }
    } else {
      t.strikes = 0;
    }
  }
  line << "\n";
  t.records += line.str();
  ++t.record_count;
  counters_.Add("tenant.records_cut");
}

void TenantManager::Escalate(TenantId id, TenantState& t) {
  t.escalated = true;
  counters_.Add("tenant.escalations");
  APIARY_LOG(kWarn) << "tenant_manager: tenant " << id << " (" << t.name
                    << ") escalated to quarantine after " << t.strikes << " strikes";
  RevokeAll(id);
  for (const TileId tile : t.tiles) {
    if (supervisor_ != nullptr) {
      supervisor_->Quarantine(tile, "tenant quota abuse");
    } else {
      os_->FailStop(tile, "tenant quota abuse");
    }
  }
}

void TenantManager::Tick(Cycle now) {
  if (now == 0 || now % meter_period_ != 0) {
    return;
  }
  for (auto& [id, t] : tenants_) {
    CutRecord(id, t, now);
  }
}

Cycle TenantManager::NextActivity(Cycle now) const {
  if (tenants_.empty()) {
    return kNoActivity;
  }
  const Cycle rem = now % meter_period_;
  return rem == 0 ? now : now + (meter_period_ - rem);
}

TenantManager::TenantState* TenantManager::Find(TenantId tenant) {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

const TenantManager::TenantState* TenantManager::Find(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

TenantUsage TenantManager::Usage(TenantId tenant) const {
  const TenantState* t = Find(tenant);
  return t == nullptr ? TenantUsage{} : t->totals;
}

const std::string& TenantManager::BillingRecords(TenantId tenant) const {
  static const std::string kEmpty;
  const TenantState* t = Find(tenant);
  return t == nullptr ? kEmpty : t->records;
}

uint32_t TenantManager::BillingRecordCount(TenantId tenant) const {
  const TenantState* t = Find(tenant);
  return t == nullptr ? 0 : t->record_count;
}

uint32_t TenantManager::BillingDigest(TenantId tenant) const {
  return Fnv1a(BillingRecords(tenant));
}

const std::vector<TileId>& TenantManager::Tiles(TenantId tenant) const {
  static const std::vector<TileId> kEmpty;
  const TenantState* t = Find(tenant);
  return t == nullptr ? kEmpty : t->tiles;
}

const TenantQuota& TenantManager::Quota(TenantId tenant) const {
  static const TenantQuota kDefault;
  const TenantState* t = Find(tenant);
  return t == nullptr ? kDefault : t->quota;
}

bool TenantManager::Escalated(TenantId tenant) const {
  const TenantState* t = Find(tenant);
  return t != nullptr && t->escalated;
}

}  // namespace apiary
