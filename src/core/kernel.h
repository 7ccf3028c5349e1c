// ApiaryOs: the board-level kernel object.
//
// Owns one Tile per NoC endpoint, the physical-memory segment allocator, the
// logical service registry, and the trusted management operations: deploying
// accelerators/services, granting and revoking capabilities, configuring
// rate limits, and fault handling. This is the "hardware microkernel"
// control plane of Section 4; the per-tile data plane lives in Monitor.
#ifndef SRC_CORE_KERNEL_H_
#define SRC_CORE_KERNEL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/service_ids.h"
#include "src/core/tile.h"
#include "src/fpga/board.h"
#include "src/mem/segment_allocator.h"

namespace apiary {

struct DeployOptions {
  // Pin to a specific tile; otherwise the first vacant tile is used.
  std::optional<TileId> tile;
  // Skip partial-reconfiguration latency (time-zero board bring-up).
  bool immediate = true;
};

class ApiaryOs {
 public:
  explicit ApiaryOs(Board& board);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // ------------------------------------------------------------------
  // Applications and deployment.
  // ------------------------------------------------------------------
  AppId CreateApp(const std::string& name);
  const std::string& AppName(AppId app) const;
  const std::vector<TileId>& AppTiles(AppId app) const;

  // Deploys an OS service under a well-known logical name. Returns the tile
  // it landed on, or kInvalidTile on failure (no vacant tile / too big).
  TileId DeployService(ServiceId service, std::unique_ptr<Accelerator> accel,
                       DeployOptions options = DeployOptions{});

  // Deploys an application accelerator; it receives a fresh logical
  // endpoint id (returned via `out_service` if non-null).
  TileId Deploy(AppId app, std::unique_ptr<Accelerator> accel,
                ServiceId* out_service = nullptr, DeployOptions options = DeployOptions{});

  // Replaces the accelerator on `tile` (partial reconfiguration; clears the
  // fault state once the new bitstream is live).
  bool Reconfigure(TileId tile, std::unique_ptr<Accelerator> accel, bool immediate = false);

  // Points an existing logical service name at a different tile (hot-standby
  // failover: the replacement was configured in advance on a spare tile).
  // Existing capabilities keep naming the old tile; grant fresh ones.
  void RebindService(ServiceId service, TileId tile);

  // ------------------------------------------------------------------
  // Capabilities.
  // ------------------------------------------------------------------
  // Grants `src` the right to send requests to the tile hosting `dst`, and
  // installs `src` on that tile's accept list. Responses flow back via the
  // implicit reply right. Returns the endpoint CapRef for src's accelerator.
  [[nodiscard]] CapRef GrantSendToService(TileId src, ServiceId dst);

  // Raw tile-to-tile grant (dst named physically; used by tests).
  [[nodiscard]] CapRef GrantSend(TileId src, TileId dst);

  // Allocates `bytes` of board DRAM and installs a memory capability with
  // `rights` (kRightRead/kRightWrite) on `tile`. Dropping the result leaks
  // the segment until the tile is torn down.
  [[nodiscard]] std::optional<CapRef> GrantMemory(TileId tile, uint64_t bytes,
                                                  uint32_t rights);

  // Installs a capability for an existing segment (sharing between tiles of
  // one app, or attenuated re-grants).
  [[nodiscard]] CapRef GrantExistingSegment(TileId tile, const Segment& segment,
                                            uint32_t rights);

  // Revokes a capability; if it was the primary grant of a kernel-allocated
  // segment, the segment is freed.
  bool Revoke(TileId tile, CapRef ref);

  void SetRateLimit(TileId tile, uint64_t flits_per_1k_cycles, uint64_t burst_flits);

  // Tenant bandwidth control: configures the board-wide weight of a NoC
  // arbitration class (see Router::SetClassWeight); kernel-only. A tile's
  // class is set on its monitor (TenantManager::AttachTile).
  void SetNocClassWeight(uint8_t cls, uint32_t weight);

  // ------------------------------------------------------------------
  // Orchestration support (used by src/orch).
  // ------------------------------------------------------------------
  // Tiles whose dynamic region is currently free (no accelerator and not
  // mid-reconfiguration) — the placement candidates.
  std::vector<TileId> FreeTiles() const;

  // True when no tile is mid-reconfiguration. The part has one
  // configuration port (ICAP), so the orchestrator's reconfiguration
  // scheduler and the supervisor's recoveries wait for it in turn.
  bool IcapFree() const;

  // Logic cells available in one dynamic tile region.
  uint64_t TileRegionCells() const { return board_->config().tile_region_cells; }

  // Tears a tile down and returns its region to the free pool: revokes the
  // tile's capabilities, frees its kernel-owned segments, revokes every
  // client capability naming a service hosted here, unregisters those
  // services, and loads a blanking bitstream. `immediate` skips the
  // blanking-bitstream latency (time-zero rewiring and tests).
  bool Undeploy(TileId tile, bool immediate = true);

  // ------------------------------------------------------------------
  // Recovery support (used by the Supervisor, Section 4.4).
  // ------------------------------------------------------------------
  // Re-grants every endpoint capability previously granted WITH `tile` as
  // the source — the step after a reconfigured accelerator comes back up,
  // since Reconfigure revoked its whole capability table.
  void ReinstallTileCaps(TileId tile);

  // Re-grants endpoint capabilities for every client of logical service
  // `dst`, revoking each client's stale capability (which still names the
  // old physical tile) first. Used after RebindService repoints the name.
  void RegrantClientsOf(ServiceId dst);

  // ------------------------------------------------------------------
  // Fault management (Section 4.4).
  // ------------------------------------------------------------------
  void FailStop(TileId tile, const std::string& reason);
  bool PreemptSwap(TileId tile, std::unique_ptr<Accelerator> replacement);

  // ------------------------------------------------------------------
  // Introspection.
  // ------------------------------------------------------------------
  Tile& tile(TileId id) { return *tiles_[id]; }
  const Tile& tile(TileId id) const { return *tiles_[id]; }
  Monitor& monitor(TileId id) { return tiles_[id]->monitor(); }
  uint32_t num_tiles() const { return static_cast<uint32_t>(tiles_.size()); }
  TileId LookupServiceTile(ServiceId service) const;
  Board& board() { return *board_; }
  Simulator& sim() { return board_->sim(); }
  SegmentAllocator& segments() { return *segments_; }

  // Aggregate monitor counters across all tiles.
  CounterSet AggregateMonitorCounters() const;

  // Static logic devoted to monitors (for the overhead experiments).
  uint64_t TotalMonitorCells() const;

 private:
  TileId FindVacantTile() const;
  TileId DeployInternal(AppId app, ServiceId service, std::unique_ptr<Accelerator> accel,
                        const DeployOptions& options);
  // Revokes every capability on `tile` and frees its kernel-owned segments;
  // part of tearing a tile down for reconfiguration.
  void ReleaseTileGrants(TileId tile);

  Board* board_;
  bool ok_ = true;
  std::string error_;

  std::vector<std::unique_ptr<Tile>> tiles_;
  std::unique_ptr<SegmentAllocator> segments_;

  struct AppInfo {
    std::string name;
    std::vector<TileId> tiles;
  };
  std::vector<AppInfo> apps_;
  // Ordered maps: kernel state is part of the deterministic replay surface,
  // and hash iteration order would vary with the allocator/seed.
  std::map<ServiceId, TileId> service_registry_;
  ServiceId next_app_service_ = kFirstAppService;

  // Kernel-allocated segments keyed by (tile, cap slot) for free-on-revoke.
  std::map<uint64_t, Segment> owned_segments_;

  // Who was granted send-to-whom, by logical name — the kernel's record of
  // the capability graph, replayed after recovery re-installs a tile.
  struct GrantEdge {
    TileId src;
    ServiceId dst;
  };
  std::vector<GrantEdge> grant_log_;
};

}  // namespace apiary

#endif  // SRC_CORE_KERNEL_H_
