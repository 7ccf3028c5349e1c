// Input-buffered 5-port mesh router with wormhole switching, two virtual
// channels, XY dimension-order routing, and round-robin arbitration.
//
// The Mesh routes every busy router once per cycle. A flit that enters a
// buffer in cycle N leaves no earlier than cycle N+1, which gives every
// router a consistent view of downstream buffer occupancy without explicit
// credit wires.
//
// Each input VC is one FIFO stamped with the cycle its newest flit arrived.
// At most one flit enters a buffer per cycle, so arbitration may see the
// head iff the buffer holds more than one flit or its last arrival is
// before `now`; FreeSlots counts every resident flit. A hop moves the
// flit from this FIFO into the neighbour's (no copy, no reference-count
// traffic).
//
// Arbitration work is proportional to queued flits: each head flit's XY
// route is read from a per-destination table built at construction and
// published as a bit in a per-(output, VC) request mask when the head
// appears, and the arbiters walk only the set bits in the same rotated
// round-robin order a full (out, VC, in) scan would visit them.
#ifndef SRC_NOC_ROUTER_H_
#define SRC_NOC_ROUTER_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/noc/fault_hooks.h"
#include "src/noc/packet.h"
#include "src/sim/ring_buffer.h"
#include "src/stats/summary.h"

namespace apiary {

class NetworkInterface;

enum RouterPort : int {
  kPortNorth = 0,
  kPortSouth = 1,
  kPortEast = 2,
  kPortWest = 3,
  kPortLocal = 4,
};
inline constexpr int kNumPorts = 5;
// The port a flit leaving through mesh output `out` arrives on downstream.
inline constexpr RouterPort kOppositePort[4] = {kPortSouth, kPortNorth, kPortWest, kPortEast};

class Router {
 public:
  Router(uint32_t x, uint32_t y, uint32_t mesh_width, uint32_t mesh_height,
         uint32_t buffer_depth);

  // Wiring (done once by the Mesh).
  void SetNeighbor(RouterPort port, Router* neighbor) { neighbors_[port] = neighbor; }
  void SetLocalInterface(NetworkInterface* ni) { ni_ = ni; }
  void SetFaultModel(NocFaultModel* model) { fault_model_ = model; }

  // Weighted bandwidth arbitration: assigns a deficit weight to an
  // arbitration class. While any weight is configured and two or more
  // classes compete for the same free output VC, a deficit arbiter picks
  // the winner: each contested attempt banks `weight` of deficit for every
  // competing class, the largest deficit wins, and the winner pays its
  // packet's flit count back out of its deficit — so long-run contended
  // grants converge to the weight ratio. A class with no queued traffic is
  // reset to zero deficit (idle classes cannot bank bursts, and debts are
  // forgiven once contention ends). The scheme is work-conserving — a sole
  // competitor passes immediately and free of charge, because weights
  // divide *contended* bandwidth and are not absolute caps. With no weights
  // configured the arbitration path is untouched. Weight 0 restores a class
  // to the default weight (1).
  void SetClassWeight(uint8_t cls, uint32_t weight);

  // Forwards up to one flit per output port, from heads that arrived
  // before `now`.
  void RouteCycle(Cycle now);

  // Returns true and moves the flit into input buffer (port, vc), stamped as
  // arriving at cycle `arrival`, if the buffer has space; on false `flit` is
  // left untouched. The flit is invisible to arbitration until a later
  // cycle.
  bool AcceptFlit(RouterPort in_port, Flit&& flit, Cycle arrival);

  // Free slots in input buffer (port, vc), counting flits that arrived this
  // cycle.
  uint32_t FreeSlots(RouterPort in_port, Vc vc) const;

  uint32_t x() const { return x_; }
  uint32_t y() const { return y_; }
  TileId tile() const { return y_ * mesh_width_ + x_; }

  // Counter snapshot under the stable dotted names ("router.stalls", ...);
  // only nonzero counters appear, as with the string-keyed set it replaces.
  CounterSet counters() const;
  uint64_t flits_routed() const { return flits_routed_; }
  // Arbitration probes: TryForward calls, i.e. (output, VC, input) triples
  // the arbiters examined. Deterministic work counter for the hot-path bench.
  uint64_t arb_probes() const { return arb_probes_; }

  // True while any input buffer holds a flit — the mesh's quiescence check.
  // O(1): tracked as a running occupancy count.
  bool HasBufferedFlits() const { return occupancy_ != 0; }

  // Live-set publication (Mesh active sweep): every accepted flit ORs this
  // tile's bit (tile % 64) into `word`, the mesh's busy-router bitset word
  // covering this tile. Idempotent, so no membership mark is needed; the
  // mesh's route walk clears the bit when this router drains.
  void SetLiveWord(uint64_t* word) {
    live_word_ = word;
    live_bit_ = uint64_t{1} << (tile() % 64);
  }

  // Estimated logic-cell cost of this router instance (for the FPGA resource
  // model; see src/fpga/resource_model.h for calibration notes).
  static uint32_t LogicCellCost(uint32_t buffer_depth);

 private:
  // The express lane reads wormhole owners, input buffers and resident-head
  // counts when it reserves a link, wires the push hook below, and replays
  // batched traversal effects through ExpressCatchUp (src/noc/express.h
  // documents why the batch is byte-exact).
  friend class ExpressLane;

  // Applies the externally observable effects of `departed` corridor flits
  // having been forwarded from input `in` through (out, vc) on consecutive
  // cycles: flit and probe counts, VC/input round-robin pointers, the
  // sole-pass deficit reset, and the wormhole owner (held while mid-packet,
  // released by the tail). No-op when nothing departed yet.
  void ExpressCatchUp(RouterPort out, RouterPort in, int vc, uint32_t departed,
                      uint32_t flits);

  // One fixed-capacity ring per input VC (buffer_depth, sized once at
  // construction): the buffer models a hardware FIFO, so its bound is
  // architectural and per-flit queue churn must not touch the heap.
  // `last_arrival` is the cycle its newest flit was accepted.
  struct InputBuffer {
    RingBuffer<Flit> flits;
    Cycle last_arrival = 0;
  };
  // A nonempty buffer's head arrived before `now`: either a flit is queued
  // behind it (only the newest can have arrived this cycle), or the newest
  // flit is the head and arrived earlier.
  static bool HeadVisible(const InputBuffer& buf, Cycle now) {
    return buf.flits.size() > 1 || buf.last_arrival < now;
  }
  struct OutputVcState {
    // Wormhole ownership: the (input port, vc) whose packet currently holds
    // this output vc; -1 when free.
    int owner_port = -1;
  };

  // XY dimension-order route for a destination tile: a table lookup for
  // on-mesh destinations, arithmetic otherwise.
  RouterPort RoutePort(TileId dst) const {
    return dst < route_.size() ? static_cast<RouterPort>(route_[dst]) : ComputeRoute(dst);
  }
  RouterPort ComputeRoute(TileId dst) const;

  // Rotates a kNumPorts-bit input mask so that bit 0 is input `first`:
  // walking the result's set bits lowest first (count trailing zeros) visits
  // requesting inputs in round-robin order starting at `first`.
  static uint32_t RotateInputs(uint32_t mask, int first);
  // The input a rotated mask's lowest set bit stands for.
  static int RotatedInput(uint32_t rotated, int first);
  // The lowest output >= `from` with a requesting input, or kNumPorts.
  int NextRequestedOutput(int from) const;

  // Routes buffer (in, vc)'s head flit, if any, and sets its request bit.
  // Called whenever a new head appears: an accept into an empty buffer, or a
  // pop (which first clears the old head's bit).
  void PublishHead(int in, int vc);

  // Attempts to forward the head-of-line flit from inputs_[in][vc] through
  // `out`. Returns true on success. Only called with `in` owning (out, vc)
  // or with (out, vc) free. A head that arrived this cycle fails before any
  // counter, pointer or deficit moves.
  bool TryForward(RouterPort out, int in, int vc, Cycle now);

  // Weighted acquisition of a free output vc: scans this vc's requesting
  // head flits (`requests`) that arrived before `now`, and when two or more
  // arbitration classes compete, lets the class with the largest deficit
  // win (deficits accrue by weight per contested attempt and the winner pays
  // its packet's flit count, so long-run grants converge to the weight
  // ratio). A sole candidate class passes immediately and free of charge.
  bool AcquireWeighted(RouterPort out, int vc, uint32_t requests, Cycle now);

  bool DownstreamHasSpace(RouterPort out, Vc vc) const;
  // Hands `flit` to the next hop: moved into a neighbour's AcceptFlit, read
  // in place by local ejection.
  void SendDownstream(RouterPort out, Flit& flit, Cycle now);

  uint32_t x_;
  uint32_t y_;
  uint32_t mesh_width_;
  uint32_t mesh_height_;
  uint32_t buffer_depth_;
  // Output port per destination tile, computed once at construction.
  std::vector<uint8_t> route_;

  std::array<Router*, 4> neighbors_{};
  NetworkInterface* ni_ = nullptr;
  NocFaultModel* fault_model_ = nullptr;

  InputBuffer inputs_[kNumPorts][kNumVcs];
  OutputVcState outputs_[kNumPorts][kNumVcs];
  // Occupancy-driven arbitration state, exact after every AcceptFlit and
  // TryForward (DESIGN.md §4): requests_ packs one kNumPorts-bit input mask
  // per (out, vc), at bit RequestShift(out, vc): bit `in` of that mask is
  // set iff buffer (in, vc) is nonempty and its head flit's XY route is
  // `out`, whether or not it arrived this cycle (the arbiters test
  // HeadVisible). The head's route is thus cached as its one request bit,
  // computed once per head. One word, so "no request at this or any later
  // output" is a single shift-and-test.
  static constexpr uint32_t kAllInputs = (1u << kNumPorts) - 1;
  static constexpr int RequestShift(int out, int vc) { return (out * kNumVcs + vc) * kNumPorts; }
  static_assert(kNumPorts * kNumVcs * kNumPorts < 64, "request masks must pack in one word");
  uint32_t Requests(int out, int vc) const {
    return static_cast<uint32_t>(requests_ >> RequestShift(out, vc)) & kAllInputs;
  }
  uint64_t requests_ = 0;
  // Round-robin pointers: per output port, the next input port to consider.
  std::array<int, kNumPorts> rr_input_{};
  // Per output port, the next vc to consider (VC-level interleaving).
  std::array<int, kNumPorts> rr_vc_{};

  // Weighted-arbitration state. `weighted_` gates the whole mechanism so
  // boards that never configure weights keep the original arbitration
  // byte-for-byte. Deficits are per (output port, class) and only move while
  // that class is actually contending at that output: an idle class is reset
  // to zero (no banked bursts, no lingering debt once contention ends).
  bool weighted_ = false;
  std::array<uint32_t, kNumArbClasses> class_weights_{};
  std::array<std::array<int64_t, kNumArbClasses>, kNumPorts> class_deficit_{};

  uint64_t flits_routed_ = 0;
  uint64_t arb_probes_ = 0;
  // Typed counters behind counters(): router.stalls counts every probe of a
  // requesting input whose downstream (out, vc) had no space.
  uint64_t stalls_ = 0;
  uint64_t weighted_grants_ = 0;
  uint64_t fault_dropped_packets_ = 0;
  uint64_t fault_stalled_cycles_ = 0;
  // Total flits resident across all input buffers.
  uint64_t occupancy_ = 0;
  // Head flits resident anywhere in the input buffers (front or queued
  // behind another packet's tail), counted by the output their XY route
  // takes. A queued head can reach the front and leave in the same cycle, so
  // the express lane reads this count, not the front-only request bits,
  // when it asks whether any real packet may contend for an output.
  std::array<uint32_t, kNumPorts> heads_{};
  // The express lane's push hook (src/noc/express.h): this router's row of
  // the lane's link table (holder corridor + 1 per output, 0 = free) and the
  // lane's suspect mask. Counting a head routed to a held link marks its
  // holder suspect. A router no lane wired sees every link free.
  static constexpr uint16_t kNoLinkHolders[kNumPorts] = {};
  const uint16_t* link_holders_ = kNoLinkHolders;
  uint32_t* express_suspect_ = nullptr;
  // This tile's word and bit in the owning mesh's busy-router bitset.
  uint64_t* live_word_ = nullptr;
  uint64_t live_bit_ = 0;
};

}  // namespace apiary

#endif  // SRC_NOC_ROUTER_H_
