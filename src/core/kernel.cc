#include "src/core/kernel.h"

#include <algorithm>

#include "src/sim/logging.h"

namespace apiary {
namespace {

uint64_t SegmentKey(TileId tile, CapRef ref) {
  return (static_cast<uint64_t>(tile) << 32) | ref;
}

}  // namespace

ApiaryOs::ApiaryOs(Board& board) : board_(&board) {
  if (!board.ok()) {
    ok_ = false;
    error_ = "board failed to build: " + board.build_error();
    return;
  }
  const uint32_t n = board.num_tiles();
  // Each tile's monitor is static trusted logic; charge it to the budget.
  const uint64_t monitor_cells = MonitorCellCost(ResourceCosts{}, kMonitorCapEntries);
  if (!board.budget().ChargeStatic("monitors", monitor_cells * n)) {
    ok_ = false;
    error_ = "monitors do not fit on the part";
    return;
  }
  tiles_.reserve(n);
  for (TileId t = 0; t < n; ++t) {
    tiles_.push_back(std::make_unique<Tile>(&board.sim(), t, &board.mesh().ni(t),
                                            board.config().partial_reconfig_cycles));
    board.sim().Register(tiles_.back().get());
  }
  segments_ = std::make_unique<SegmentAllocator>(0, board.memory().capacity());
}

AppId ApiaryOs::CreateApp(const std::string& name) {
  apps_.push_back(AppInfo{name, {}});
  return static_cast<AppId>(apps_.size() - 1);
}

const std::string& ApiaryOs::AppName(AppId app) const { return apps_[app].name; }

const std::vector<TileId>& ApiaryOs::AppTiles(AppId app) const { return apps_[app].tiles; }

TileId ApiaryOs::FindVacantTile() const {
  for (TileId t = 0; t < tiles_.size(); ++t) {
    if (tiles_[t]->vacant()) {
      return t;
    }
  }
  return kInvalidTile;
}

TileId ApiaryOs::DeployInternal(AppId app, ServiceId service,
                                std::unique_ptr<Accelerator> accel,
                                const DeployOptions& options) {
  const TileId t = options.tile.value_or(FindVacantTile());
  if (t == kInvalidTile || t >= tiles_.size()) {
    return kInvalidTile;
  }
  if (!tiles_[t]->vacant()) {
    return kInvalidTile;
  }
  if (accel->LogicCellCost() > board_->config().tile_region_cells) {
    APIARY_LOG(kWarn) << accel->name() << " (" << accel->LogicCellCost()
                      << " cells) exceeds the tile region ("
                      << board_->config().tile_region_cells << ")";
    return kInvalidTile;
  }
  tiles_[t]->monitor().SetIdentity(app, service);
  tiles_[t]->Configure(std::move(accel), options.immediate);
  service_registry_[service] = t;
  if (app != kInvalidApp) {
    apps_[app].tiles.push_back(t);
  }
  return t;
}

TileId ApiaryOs::DeployService(ServiceId service, std::unique_ptr<Accelerator> accel,
                               DeployOptions options) {
  return DeployInternal(kInvalidApp, service, std::move(accel), options);
}

TileId ApiaryOs::Deploy(AppId app, std::unique_ptr<Accelerator> accel, ServiceId* out_service,
                        DeployOptions options) {
  const ServiceId service = next_app_service_++;
  if (out_service != nullptr) {
    *out_service = service;
  }
  return DeployInternal(app, service, std::move(accel), options);
}

void ApiaryOs::ReleaseTileGrants(TileId tile) {
  tiles_[tile]->monitor().RevokeAllCaps();
  for (auto it = owned_segments_.begin(); it != owned_segments_.end();) {
    if (static_cast<TileId>(it->first >> 32) == tile) {
      segments_->Free(it->second);
      it = owned_segments_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ApiaryOs::Reconfigure(TileId tile, std::unique_ptr<Accelerator> accel, bool immediate) {
  if (tile >= tiles_.size()) {
    return false;
  }
  if (accel != nullptr && accel->LogicCellCost() > board_->config().tile_region_cells) {
    return false;
  }
  // The new bitstream must not inherit the old accelerator's authority:
  // revoke every capability and free the tile's kernel-owned segments. The
  // kernel (or Supervisor) re-grants from the grant log after boot.
  ReleaseTileGrants(tile);
  tiles_[tile]->Configure(std::move(accel), immediate);
  return true;
}

std::vector<TileId> ApiaryOs::FreeTiles() const {
  std::vector<TileId> free;
  for (TileId t = 0; t < tiles_.size(); ++t) {
    if (tiles_[t]->vacant()) {
      free.push_back(t);
    }
  }
  return free;
}

bool ApiaryOs::Undeploy(TileId tile, bool immediate) {
  if (tile >= tiles_.size() || tiles_[tile]->vacant()) {
    return false;
  }
  ReleaseTileGrants(tile);
  // Drop every logical service hosted here from the registry, revoking the client
  // capabilities that still name this tile so no sender keeps a route to the
  // vacated region.
  std::vector<ServiceId> hosted;
  for (const auto& [service, t] : service_registry_) {
    if (t == tile) {
      hosted.push_back(service);
    }
  }
  for (ServiceId svc : hosted) {
    service_registry_.erase(svc);
    for (auto it = grant_log_.begin(); it != grant_log_.end();) {
      if (it->dst == svc) {
        Monitor& m = tiles_[it->src]->monitor();
        const CapRef stale = m.cap_table().FindEndpointForService(svc);
        if (stale != kInvalidCapRef) {
          m.RevokeCap(stale);
        }
        it = grant_log_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The departing accelerator's outbound authority is history as well; a
  // future tenant of this region must not inherit it via ReinstallTileCaps.
  grant_log_.erase(std::remove_if(grant_log_.begin(), grant_log_.end(),
                                  [tile](const GrantEdge& e) { return e.src == tile; }),
                   grant_log_.end());
  tiles_[tile]->monitor().SetIdentity(kInvalidApp, kInvalidService);
  // A vacated region leaves its tenant: drop the shared injection budget and
  // return the tile's traffic to the default arbitration class so the next
  // occupant cannot draw against (or bill to) the old tenant.
  tiles_[tile]->monitor().SetSharedLimiter(nullptr);
  tiles_[tile]->monitor().SetArbClass(0);
  tiles_[tile]->Configure(nullptr, immediate);
  return true;
}

void ApiaryOs::RebindService(ServiceId service, TileId tile) {
  if (tile >= tiles_.size()) {
    return;
  }
  service_registry_[service] = tile;
  // The standby answers under the service's logical identity from now on.
  tiles_[tile]->monitor().SetIdentity(tiles_[tile]->monitor().app(), service);
}

TileId ApiaryOs::LookupServiceTile(ServiceId service) const {
  auto it = service_registry_.find(service);
  return it == service_registry_.end() ? kInvalidTile : it->second;
}

CapRef ApiaryOs::GrantSendToService(TileId src, ServiceId dst) {
  const TileId dst_tile = LookupServiceTile(dst);
  if (dst_tile == kInvalidTile || src >= tiles_.size()) {
    return kInvalidCapRef;
  }
  Capability cap;
  cap.kind = CapKind::kEndpoint;
  cap.rights = kRightSend;
  cap.dst_tile = dst_tile;
  cap.dst_service = dst;
  const CapRef ref = tiles_[src]->monitor().InstallCap(cap);
  if (ref != kInvalidCapRef) {
    tiles_[dst_tile]->monitor().AllowSender(src);
    bool known = false;
    for (const GrantEdge& edge : grant_log_) {
      if (edge.src == src && edge.dst == dst) {
        known = true;
        break;
      }
    }
    if (!known) {
      grant_log_.push_back(GrantEdge{src, dst});
    }
  }
  return ref;
}

void ApiaryOs::ReinstallTileCaps(TileId tile) {
  if (tile >= tiles_.size()) {
    return;
  }
  // Snapshot first: GrantSendToService appends to grant_log_ (dedup makes
  // that a no-op here, but never iterate a vector being appended to).
  std::vector<ServiceId> dsts;
  for (const GrantEdge& edge : grant_log_) {
    if (edge.src == tile) {
      dsts.push_back(edge.dst);
    }
  }
  for (ServiceId dst : dsts) {
    (void)GrantSendToService(tile, dst);
  }
}

void ApiaryOs::RegrantClientsOf(ServiceId dst) {
  std::vector<TileId> srcs;
  for (const GrantEdge& edge : grant_log_) {
    if (edge.dst == dst) {
      srcs.push_back(edge.src);
    }
  }
  for (TileId src : srcs) {
    // The stale capability still names the failed physical tile; revoke it
    // so the slot is reused and the client cannot keep hitting the corpse.
    Monitor& m = tiles_[src]->monitor();
    const CapRef stale = m.cap_table().FindEndpointForService(dst);
    if (stale != kInvalidCapRef) {
      m.RevokeCap(stale);
    }
    (void)GrantSendToService(src, dst);
  }
}

CapRef ApiaryOs::GrantSend(TileId src, TileId dst) {
  if (src >= tiles_.size() || dst >= tiles_.size()) {
    return kInvalidCapRef;
  }
  Capability cap;
  cap.kind = CapKind::kEndpoint;
  cap.rights = kRightSend;
  cap.dst_tile = dst;
  // Physical grants still carry the destination's logical name so replies
  // and tracing stay meaningful.
  for (const auto& [service, tile] : service_registry_) {
    if (tile == dst) {
      cap.dst_service = service;
      break;
    }
  }
  const CapRef ref = tiles_[src]->monitor().InstallCap(cap);
  if (ref != kInvalidCapRef) {
    tiles_[dst]->monitor().AllowSender(src);
  }
  return ref;
}

std::optional<CapRef> ApiaryOs::GrantMemory(TileId tile, uint64_t bytes, uint32_t rights) {
  if (tile >= tiles_.size()) {
    return std::nullopt;
  }
  auto segment = segments_->Allocate(bytes);
  if (!segment.has_value()) {
    return std::nullopt;
  }
  Capability cap;
  cap.kind = CapKind::kMemory;
  cap.rights = rights;
  cap.segment = *segment;
  const CapRef ref = tiles_[tile]->monitor().InstallCap(cap);
  if (ref == kInvalidCapRef) {
    segments_->Free(*segment);
    return std::nullopt;
  }
  owned_segments_[SegmentKey(tile, ref)] = *segment;
  return ref;
}

CapRef ApiaryOs::GrantExistingSegment(TileId tile, const Segment& segment, uint32_t rights) {
  if (tile >= tiles_.size()) {
    return kInvalidCapRef;
  }
  Capability cap;
  cap.kind = CapKind::kMemory;
  cap.rights = rights;
  cap.segment = segment;
  return tiles_[tile]->monitor().InstallCap(cap);
}

bool ApiaryOs::Revoke(TileId tile, CapRef ref) {
  if (tile >= tiles_.size()) {
    return false;
  }
  if (!tiles_[tile]->monitor().RevokeCap(ref)) {
    return false;
  }
  auto it = owned_segments_.find(SegmentKey(tile, ref));
  if (it != owned_segments_.end()) {
    segments_->Free(it->second);
    owned_segments_.erase(it);
  }
  return true;
}

void ApiaryOs::SetRateLimit(TileId tile, uint64_t flits_per_1k_cycles, uint64_t burst_flits) {
  if (tile < tiles_.size()) {
    tiles_[tile]->monitor().SetRateLimit(flits_per_1k_cycles, burst_flits);
  }
}

void ApiaryOs::SetArbClass(TileId tile, uint8_t cls) {
  if (tile < tiles_.size()) {
    tiles_[tile]->monitor().SetArbClass(cls);
  }
}

void ApiaryOs::SetNocClassWeight(uint8_t cls, uint32_t weight) {
  board_->mesh().SetArbClassWeight(cls, weight);
}

void ApiaryOs::FailStop(TileId tile, const std::string& reason) {
  if (tile < tiles_.size()) {
    tiles_[tile]->monitor().FailStop(reason);
  }
}

bool ApiaryOs::PreemptSwap(TileId tile, std::unique_ptr<Accelerator> replacement) {
  if (tile >= tiles_.size()) {
    return false;
  }
  return tiles_[tile]->PreemptSwap(std::move(replacement));
}

CounterSet ApiaryOs::AggregateMonitorCounters() const {
  CounterSet total;
  for (const auto& tile : tiles_) {
    total.Merge(tile->monitor().counters());
  }
  return total;
}

bool ApiaryOs::IcapFree() const {
  for (const auto& tile : tiles_) {
    if (tile->reconfiguring()) {
      return false;
    }
  }
  return true;
}

uint64_t ApiaryOs::TotalMonitorCells() const {
  uint64_t total = 0;
  for (const auto& tile : tiles_) {
    total += tile->monitor().MonitorLogicCells();
  }
  return total;
}

}  // namespace apiary
