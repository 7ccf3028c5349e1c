// Fault-model hook the NoC substrate consults while moving flits.
//
// The NoC stays ignorant of *why* faults happen (campaigns, seeds, rates all
// live in src/fault); routers only ask this narrow interface whether the
// current traversal is affected. A null model means a perfect network.
#ifndef SRC_NOC_FAULT_HOOKS_H_
#define SRC_NOC_FAULT_HOOKS_H_

#include "src/noc/packet.h"
#include "src/sim/types.h"

namespace apiary {

class NocFaultModel {
 public:
  virtual ~NocFaultModel() = default;

  // Consulted once per packet (on its head flit) each time it crosses an
  // inter-router link out of `router_tile`. The model may corrupt the wire
  // image in place, only via NocPacket::CorruptWireBit, which marks the packet
  // for the receiving NI to re-hash. Returns true to drop it on this link.
  virtual bool OnLinkTraverse(TileId router_tile, const Flit& flit, Cycle now) = 0;

  // True while the router at `router_tile` is stalled (forwards nothing).
  virtual bool RouterStalled(TileId router_tile, Cycle now) = 0;

  // Quiescence hook for the mesh: the earliest cycle at which this model
  // still has per-cycle NoC work even on an empty mesh (router stall
  // windows accrue `router.fault_stalled_cycles` every cycle they are
  // open). Return `now` while any stall window is open, kNoActivity
  // (~Cycle{0}) otherwise. The default keeps models that never stall
  // conservative-but-correct: an always-active mesh.
  [[nodiscard]] virtual Cycle NextMeshActivity(Cycle now) const { return now; }

  // Express-corridor precondition: true only if NO drop/corrupt/stall window
  // is open at `now`, i.e. skipping the per-traversal OnLinkTraverse calls
  // for a fast-forwarded packet is observably exact (closed windows draw no
  // randomness and mutate nothing). Models that cannot promise this keep the
  // conservative default and simply disable corridor launches.
  [[nodiscard]] virtual bool NocQuiet(Cycle now) const {
    (void)now;
    return false;
  }
};

}  // namespace apiary

#endif  // SRC_NOC_FAULT_HOOKS_H_
