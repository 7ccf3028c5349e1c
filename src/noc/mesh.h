// 2-D mesh NoC: owns the routers and network interfaces for a board and
// orchestrates their per-cycle phases.
//
// Modern FPGAs offer hardened NoCs (Versal, Agilex — Section 4.3); this
// class models such a NoC at flit granularity so the monitor layer above it
// experiences realistic latency, bandwidth and contention.
#ifndef SRC_NOC_MESH_H_
#define SRC_NOC_MESH_H_

#include <memory>
#include <vector>

#include "src/noc/boundary_link.h"
#include "src/noc/express.h"
#include "src/noc/fault_hooks.h"
#include "src/noc/network_interface.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/noc/router.h"
#include "src/sim/clocked.h"
#include "src/sim/parallel/domain_partition.h"
#include "src/sim/parallel/sharded_fabric.h"
#include "src/sim/sim_context.h"

namespace apiary {

struct MeshConfig {
  uint32_t width = 4;
  uint32_t height = 4;
  uint32_t router_buffer_depth = 8;    // Flits per input VC buffer.
  uint32_t ni_inject_queue_flits = 512;  // Must hold the largest message.
  // Ablation knob: force all traffic onto one VC (responses share the
  // request channel), reproducing the head-of-line blocking the two-VC
  // design exists to avoid (Section 4.5).
  bool force_single_vc = false;
};

class Mesh : public Clocked, public ShardedFabric {
 public:
  // `context` selects the packet pool: the domain-local pool of the owning
  // simulator's SimContext when given (the Board constructor path), or a
  // mesh-private pool when null (standalone meshes in tests/benches).
  // Either way there is no process-wide pool to contend on.
  explicit Mesh(MeshConfig config, SimContext* context = nullptr);

  void Tick(Cycle now) override;
  // Quiescent when no router buffers a flit, no NI has flits queued for
  // injection, and the installed fault model (if any) has no per-cycle mesh
  // work (open stall windows). Monitors re-arm the mesh by enqueuing into an
  // NI during an executed cycle; the next boundary poll sees the flits. The
  // busy check tests a few live-set words: they are exact after every tick.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  // The busy sets are mutated by shard-phase worker code (AcceptFlit during
  // routing/boundary delivery, Inject from monitor ticks), which no
  // cross-thread wake may observe — the mesh is re-polled fresh at every
  // executed-cycle boundary instead.
  [[nodiscard]] SchedPolicy SchedulingPolicy() const override {
    return SchedPolicy::kBoundaryPoll;
  }
  std::string DebugName() const override { return "mesh"; }

  uint32_t width() const { return config_.width; }
  uint32_t height() const { return config_.height; }
  uint32_t num_tiles() const { return config_.width * config_.height; }

  NetworkInterface& ni(TileId tile) { return *nis_[tile]; }
  const NetworkInterface& ni(TileId tile) const { return *nis_[tile]; }
  Router& router(TileId tile) { return *routers_[tile]; }

  // The pool every packet injected into this mesh is drawn from (monitors
  // reach it through their NI).
  PacketPool& pool() { return *pool_; }
  const PacketPool& pool() const { return *pool_; }

  // Installs (or clears, with nullptr) the fault model on every router.
  void SetFaultModel(NocFaultModel* model);

  // Configures a weighted-arbitration class weight on every router (see
  // Router::SetClassWeight). Used by the kernel to give tenants
  // proportional NoC bandwidth shares.
  void SetArbClassWeight(uint8_t cls, uint32_t weight);

  // Express corridors (src/noc/express.h): timing-equivalent analytic
  // fast-forwarding of whole packets through verifiably idle routers. Off by
  // default; toggling off (or any interference hook — fault window, weight
  // reconfig, partition change) materializes in-flight corridors back into
  // ordinary buffered flits, so traces/counters/billing stay byte-identical
  // either way.
  void SetExpressEnabled(bool enabled);
  bool express_enabled() const { return express_enabled_; }
  // Converts every in-flight corridor back to buffered flits at the current
  // state boundary. Called by FaultInjector::Fire before a NoC window opens,
  // and by every reconfiguration entry point.
  void MaterializeExpress();
  // Lane statistics summed over the serial lane, live shard lanes, and lanes
  // folded at DisablePartition.
  ExpressStats AggregateExpressStats() const;

  // Minimal hop count between two tiles under XY routing.
  uint32_t Hops(TileId a, TileId b) const;

  // Aggregate statistics across all routers/NIs.
  CounterSet AggregateCounters() const;
  Histogram AggregateLatency() const;
  uint64_t TotalFlitsRouted() const;
  // Router arbitration probes summed over the mesh (Router::arb_probes).
  uint64_t TotalArbProbes() const;

  // Total logic-cell cost of the NoC fabric (routers + NIs).
  uint64_t LogicCellCost() const;

  // ------------------------------------------------------------------
  // ShardedFabric (the parallel engine's view of the mesh; see
  // src/sim/parallel/sharded_fabric.h for the phase/ordering contract).
  // ------------------------------------------------------------------
  uint32_t FabricWidth() const override { return config_.width; }
  uint32_t FabricHeight() const override { return config_.height; }
  void EnablePartition(const DomainPartition& partition,
                       std::vector<std::unique_ptr<SimContext>> shard_contexts) override;
  void DisablePartition() override;
  SimContext* shard_context(uint32_t shard) override { return shard_contexts_[shard].get(); }
  void ShardCommit(uint32_t shard, Cycle now) override;
  void ShardRoute(uint32_t shard, Cycle now) override;
  void ShardTransfer(uint32_t shard, Cycle now) override;
  Clocked* AsClocked() override { return this; }

  bool partitioned() const { return !shard_pools_.empty(); }
  // Cross-shard handoff observability (read with workers parked).
  uint64_t BoundaryFlitsHandedOff() const;
  uint64_t BoundaryPacketsCloned() const;
  // Pool stats summed over the serial pool and every shard pool — the
  // partition-aware replacement for pool().stats() in benches.
  PacketPoolStats AggregatePoolStats() const;
  // Zeroes the ledgers of the serial pool and every shard pool (bench
  // warmup boundary). Call with workers parked.
  void ResetPoolStats();

 private:
  // The busy subset of one sweep domain (the whole mesh when serial, one
  // shard when partitioned), as bitsets over global tile ids: bit t lives
  // in word t / 64 at position t % 64, and the four sets' words for one
  // such range share a LiveWord. `routers`/`nis` are exact after
  // compaction: bit t is set iff its router buffers a flit / its NI has
  // flits queued. AcceptFlit/Inject OR their bit into `fresh_*` on every
  // event (idempotent); merging is a word OR at the top of the next sweep.
  // Sweeps walk set bits lowest first (count trailing zeros), which is the
  // ascending tile order of the full sweep, so the order stays exact with
  // no sort. Newly staged flits are commit-invisible until that sweep
  // anyway, so deferring a fresh router one merge is byte-exact. A fresh
  // bit always belongs to a busy member at compaction (a flit staged this
  // tick cannot leave before the next commit), so no drained member is
  // ever revived by a later merge.
  struct LiveWord {
    uint64_t routers = 0;
    uint64_t fresh_routers = 0;
    uint64_t nis = 0;
    uint64_t fresh_nis = 0;
  };
  using LiveSet = std::vector<LiveWord>;
  static LiveSet MakeLiveSet(uint32_t num_tiles) { return LiveSet((num_tiles + 63) / 64); }

  static bool LiveBusy(const LiveSet& set);
  // Per-executed-cycle express work for one sweep domain, before the live
  // merge: complete corridors due this cycle, then materialize any corridor
  // whose zone a busy router (or whose path a busy NI) has entered.
  void ExpressTickTop(ExpressLane& lane, LiveSet& set, Cycle now);
  // Points each NI at its domain's lane (or detaches them when disabled).
  void BindExpressLanes();
  static void MergeFresh(LiveSet& set);
  // Clears drained members' bits, restoring the "set iff busy" invariant
  // the NextActivity check relies on.
  void CompactDead(LiveSet& set);
  // Points every router/NI at the serial live set.
  void BindLiveSets();

  // One directed cut link: flits leave `src` shard through src_router's
  // `out_port` and arrive in `dst` shard on dst_router's `in_port`.
  struct BoundaryEdge {
    std::unique_ptr<BoundaryLink> link;
    Router* src_router = nullptr;
    Router* dst_router = nullptr;
    RouterPort out_port = kPortNorth;
    RouterPort in_port = kPortNorth;
    uint32_t src_shard = 0;
    uint32_t dst_shard = 0;
  };

  MeshConfig config_;
  // Shard contexts live until MESH destruction, not DisablePartition:
  // packets cloned from shard pools can sit in NI delivery queues (and
  // monitor inboxes, which die before the board's mesh) past the engine's
  // teardown, and must still find their pool when released. Declared first
  // so they are destroyed last, after every flit ref in routers_/nis_/edges_
  // has dropped.
  std::vector<std::unique_ptr<SimContext>> shard_contexts_;
  std::vector<std::unique_ptr<SimContext>> retired_contexts_;
  std::unique_ptr<PacketPool> owned_pool_;  // Set only for standalone meshes.
  PacketPool* pool_;                        // Context slot pool or owned_pool_.
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  NocFaultModel* fault_model_ = nullptr;
  // Express lanes: one per sweep domain, same confinement as the LiveSets.
  // The lanes read router/NI/fault state through the friendship in
  // express.h; `folded_express_` keeps stats of shard lanes retired at
  // DisablePartition.
  friend class ExpressLane;
  bool express_enabled_ = false;
  ExpressLane express_;
  std::vector<ExpressLane> shard_express_;
  ExpressStats folded_express_;
  LiveSet live_;  // Serial sweep domain (unused while partitioned).
  // Per-shard sweep domains, worker-confined during shard phases (every
  // mark source — routing, boundary delivery, monitor injection — stays
  // inside the owning shard). Empty while unpartitioned.
  std::vector<LiveSet> shard_live_;

  // Partition state (empty while unpartitioned).
  DomainPartition partition_;
  std::vector<PacketPool*> shard_pools_;
  std::vector<BoundaryEdge> edges_;
  // Per shard: indices into edges_ it sends on / receives from.
  std::vector<std::vector<uint32_t>> shard_out_edges_;
  std::vector<std::vector<uint32_t>> shard_in_edges_;
};

}  // namespace apiary

#endif  // SRC_NOC_MESH_H_
