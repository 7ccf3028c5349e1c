// Per-tile network interface: packetizes outbound messages into flits,
// injects them into the local router port, and reassembles inbound packets.
//
// The NI is mechanical plumbing; all policy (naming, capabilities, rate
// limits) is applied by the Apiary monitor before a packet reaches Inject().
#ifndef SRC_NOC_NETWORK_INTERFACE_H_
#define SRC_NOC_NETWORK_INTERFACE_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/noc/packet.h"
#include "src/noc/router.h"
#include "src/sim/clocked.h"
#include "src/sim/ring_buffer.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

class ExpressLane;
class PacketPool;

class NetworkInterface {
 public:
  // `pool` is the packet pool senders on this tile draw from (the mesh's
  // domain pool); the NI itself never allocates, it only hands the pool to
  // the monitor above it. `express` is the mesh's express lane: InjectCycle
  // first offers a queue with a packet head at its front to the lane (a
  // launched corridor replaces real injection), Inject materializes any
  // corridor still draining a queue here before new flits enqueue, and
  // CanInject counts the corridor's virtual queue occupancy so the monitor's
  // pre-check matches the real run byte-for-byte. A disabled lane launches
  // nothing, so all three are no-ops then.
  NetworkInterface(TileId tile, Router* router, uint32_t inject_queue_flits, bool force_single_vc,
                   PacketPool* pool, ExpressLane* express);

  // Queues a packet for injection. Returns false when the packet's VC
  // injection queue cannot hold its flits (backpressure to the monitor).
  bool Inject(PacketRef packet, Cycle now);

  // True if a packet of `flits` flits would fit in the given VC's queue.
  bool CanInject(uint32_t flits, Vc vc = Vc::kRequest) const;

  // The VC a packet tagged `vc` will actually travel on (the single-VC
  // ablation folds everything onto VC0). Lets the monitor pre-check
  // CanInject before consuming a message into a packet.
  Vc EffectiveVc(Vc vc) const { return force_single_vc_ ? Vc::kRequest : vc; }

  // Called by the Mesh each cycle: moves up to one flit from the injection
  // queue into the router's local input port (a move: the queue's
  // reference passes to the router).
  void InjectCycle(Cycle now);

  // Called by the local router when a flit is ejected to this tile.
  void EjectFlit(const Flit& flit, Cycle now);

  // Pops the next fully reassembled inbound packet, if any.
  PacketRef Retrieve();

  bool HasDeliverable() const { return !delivered_.empty(); }

  // True while any VC injection queue holds flits waiting for InjectCycle —
  // the mesh's quiescence check for the injection side.
  bool HasPendingInject() const {
    for (const auto& q : inject_queues_) {
      if (!q.empty()) {
        return true;
      }
    }
    return false;
  }

  TileId tile() const { return tile_; }

  // The domain pool packets injected here should come from. Never null on
  // the Board path (the mesh always wires one in).
  PacketPool* pool() const { return pool_; }

  // Live-set publication (Mesh active sweep): every queued packet ORs this
  // tile's bit (tile % 64) into `word`, the mesh's busy-NI bitset word
  // covering this tile, so the mesh sweeps only NIs with pending injections,
  // and fires `mesh_wake`, so a parked mesh resumes the cycle reference tick
  // order dictates. Idempotent; the mesh clears the bit when the queues drain.
  void SetLiveWord(uint64_t* word, WakeHint mesh_wake) {
    live_word_ = word;
    live_bit_ = uint64_t{1} << (tile_ % 64);
    mesh_wake_ = mesh_wake;
  }

  // Wake channel for the consumer of delivered packets (the tile above this
  // NI): fired whenever a packet lands in the delivery queue, ending the
  // tile's parked quiescence the cycle reference tick order dictates.
  void SetSinkWake(WakeHint hint) { sink_wake_ = hint; }

  // Largest packet (in flits) that can ever be injected; senders must
  // segment above this.
  uint32_t max_packet_flits() const { return inject_queue_flits_; }

  // Counter snapshot under the stable dotted names ("ni.flits_ejected",
  // ...); only nonzero counters appear.
  CounterSet counters() const;
  const Histogram& latency_histogram() const { return latency_; }

  static uint32_t LogicCellCost();

 private:
  // The lane drains/refills the injection queues at corridor launch and
  // materialization, and replays the round-robin pointer (express.h).
  friend class ExpressLane;

  // True when some injection queue's front flit is a packet head: the only
  // state in which the express lane can launch, so the only one in which
  // InjectCycle offers it the queue.
  bool HeadAtFront() const {
    for (const auto& q : inject_queues_) {
      if (!q.empty() && q.front().is_head()) {
        return true;
      }
    }
    return false;
  }

  // Marks this NI busy in the mesh's live bits and wakes the mesh.
  void PublishLive() {
    if (live_word_ != nullptr) {
      *live_word_ |= live_bit_;
    }
    mesh_wake_.Wake();
  }

  TileId tile_;
  Router* router_;
  uint32_t inject_queue_flits_;
  bool force_single_vc_;
  PacketPool* pool_;
  ExpressLane* express_;
  // Per-VC injection queues so response traffic never queues behind a
  // request backlog (mirrors the router's VC separation). Fixed-capacity
  // rings: the bound is inject_queue_flits by construction, so the queue
  // never touches the heap after wiring.
  std::array<RingBuffer<Flit>, kNumVcs> inject_queues_;
  int inject_rr_ = 0;
  // This tile's word and bit in the owning mesh's busy-NI bitset, the
  // injection-side wake handle (the mesh) and the delivery-side one (the
  // tile).
  uint64_t* live_word_ = nullptr;
  uint64_t live_bit_ = 0;
  WakeHint mesh_wake_;
  WakeHint sink_wake_;
  std::deque<PacketRef> delivered_;
  // Typed counters behind counters().
  uint64_t inject_backpressure_ = 0;
  uint64_t packets_injected_ = 0;
  uint64_t flits_injected_ = 0;
  uint64_t flits_ejected_ = 0;
  uint64_t packets_dropped_fault_ = 0;
  uint64_t checksum_drops_ = 0;
  uint64_t packets_delivered_ = 0;
  Histogram latency_;  // Injection-to-tail-ejection latency, in cycles.
};

}  // namespace apiary

#endif  // SRC_NOC_NETWORK_INTERFACE_H_
