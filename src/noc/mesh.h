// 2-D mesh NoC: owns the routers and network interfaces for a board and
// orchestrates their per-cycle phases: route every busy router, then let
// every busy NI inject.
//
// Modern FPGAs offer hardened NoCs (Versal, Agilex — Section 4.3); this
// class models such a NoC at flit granularity so the monitor layer above it
// experiences realistic latency, bandwidth and contention.
#ifndef SRC_NOC_MESH_H_
#define SRC_NOC_MESH_H_

#include <memory>
#include <vector>

#include "src/noc/express.h"
#include "src/noc/fault_hooks.h"
#include "src/noc/network_interface.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/noc/router.h"
#include "src/sim/clocked.h"

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

class Mesh : public Clocked {
 public:
  // The mesh owns the pool its packets are drawn from, so there is no
  // process-wide pool to contend on.
  explicit Mesh(MeshConfig config);

  void Tick(Cycle now) override;
  // Quiescent when no router buffers a flit, no NI has flits queued for
  // injection, and the installed fault model (if any) has no per-cycle mesh
  // work (open stall windows). Every NI injection wakes the mesh (monitor
  // ticks and harness code alike), and so does every fault-model change
  // (SetFaultModel, and window opens through MaterializeExpress). The busy
  // check tests a few live-set words: they are exact after every tick.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "mesh"; }

  uint32_t width() const { return config_.width; }
  uint32_t height() const { return config_.height; }
  uint32_t num_tiles() const { return config_.width * config_.height; }

  NetworkInterface& ni(TileId tile) { return *nis_[tile]; }
  const NetworkInterface& ni(TileId tile) const { return *nis_[tile]; }
  Router& router(TileId tile) { return *routers_[tile]; }

  // The pool every packet injected into this mesh is drawn from (monitors
  // reach it through their NI).
  PacketPool& pool() { return pool_; }
  const PacketPool& pool() const { return pool_; }

  // Installs (or clears, with nullptr) the fault model on every router.
  void SetFaultModel(NocFaultModel* model);

  // Configures a weighted-arbitration class weight on every router (see
  // Router::SetClassWeight). Used by the kernel to give tenants
  // proportional NoC bandwidth shares.
  void SetArbClassWeight(uint8_t cls, uint32_t weight);

  // Express corridors (src/noc/express.h): timing-equivalent analytic
  // fast-forwarding of whole packets over links they reserve hop by hop.
  // Off by default; toggling off (or any interference hook — fault window,
  // weight reconfig) materializes in-flight corridors back into
  // ordinary buffered flits, so traces/counters/billing stay byte-identical
  // either way.
  void SetExpressEnabled(bool enabled);
  // Converts every in-flight corridor back to buffered flits at the current
  // state boundary, and wakes the mesh. Called by FaultInjector::Fire before
  // a NoC window opens, and by every reconfiguration entry point.
  void MaterializeExpress();
  // Express lane statistics (launches, deliveries, materializations).
  ExpressStats AggregateExpressStats() const { return express_.stats(); }
  // Which of the lane's corridor slots are live (ExpressLane::live_slots).
  uint32_t ExpressLiveSlots() const { return express_.live_slots(); }

  // Minimal hop count between two tiles under XY routing.
  uint32_t Hops(TileId a, TileId b) const;

  // Aggregate statistics across all routers/NIs, as of the end of the last
  // mesh tick: the flit hops and ejections of in-flight express corridors
  // are included (ExpressLane::InFlightRouted/InFlightEjected).
  CounterSet AggregateCounters() const;
  Histogram AggregateLatency() const;
  uint64_t TotalFlitsRouted() const;
  // Router arbitration probes summed over the mesh (Router::arb_probes),
  // in-flight express corridors included.
  uint64_t TotalArbProbes() const;

  // Total logic-cell cost of the NoC fabric (routers + NIs).
  uint64_t LogicCellCost() const;

  // The pool's ledger (benches read it at the end of a run).
  PacketPoolStats AggregatePoolStats() const { return pool_.stats(); }
  // Zeroes the pool's ledger (bench warmup boundary).
  void ResetPoolStats() { pool_.ResetStats(); }

 private:
  // The mesh's busy subset, as bitsets over tile ids: bit t lives in word
  // t / 64 at position t % 64, and both sets' words for one such range
  // share a LiveWord. Bit t is set iff its router buffers a flit / its NI
  // has flits queued: AcceptFlit/Inject OR their bit in on every event
  // (idempotent), and the route and inject walks clear the bit of any
  // member they leave empty. Walks visit set bits lowest first (count
  // trailing zeros), which is the ascending tile order of the full sweep,
  // so the order stays exact with no sort. A router in a later word that
  // receives a flit during the route walk is visited in that same walk;
  // its new head arrived this cycle, so the visit forwards nothing.
  struct LiveWord {
    uint64_t routers = 0;
    uint64_t nis = 0;
  };

  bool LiveBusy() const;
  // Routes router `t` and clears its live bit if that leaves it empty.
  void RouteTile(uint32_t t, Cycle now);

  MeshConfig config_;
  // Declared before every packet holder (routers, NIs, express_), so it is
  // destroyed after them, when no packet is live.
  PacketPool pool_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  NocFaultModel* fault_model_ = nullptr;
  // The express lane reads router/NI/fault state through the friendship in
  // express.h.
  friend class ExpressLane;
  ExpressLane express_;
  std::vector<LiveWord> live_;
};

}  // namespace apiary

#endif  // SRC_NOC_MESH_H_
