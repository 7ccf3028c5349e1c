// Express corridors: timing-equivalent packet fast-forwarding through
// routers nothing else is using (B5).
//
// A whole packet that sits alone in an NI injection queue, with its local
// router input empty on its VC, can travel its XY route as a closed-form
// pipeline: flit i arrives in path router R_k at cycle D+i+k, is forwarded
// at D+i+k+1, and is ejected at D+i+H+1. The lane records that schedule
// instead of ticking the routers, and replays its externally observable
// effects (per-router flit counts, arbitration pointers, NI ejection
// counters/latency/delivery) at the precise cycles the cycle-accurate engine
// would have produced them.
//
// Per-link reservations, taken hop by hop. The head leaves R_k through
// out_k at cycle D+k+1 and the tail leaves it at D+F+k, so a corridor needs
// the link (R_k, out_k) for exactly the cycles [D+k+1, D+F+k] and nothing
// else. At the top of each executed cycle N (Mesh::Tick, before the route
// walk) the lane runs, in this order:
//   1. Release: every hop the tail has left (N-1 >= D+F+k) gets its batched
//      router effects (ExpressCatchUp) and its link back.
//   2. Check, repeated until nothing materializes. Each active corridor
//      materializes when
//      * any real head resident in a router it holds a link of is routed to
//        that link (the head could win the link, or its VC, this cycle);
//      * the link its head leaves through this cycle is held by another
//        corridor, owned by a real packet on either VC, or wanted by a
//        resident head (otherwise the corridor reserves it); or
//      * the input buffer its head enters this cycle holds a real flit on
//        the corridor's VC.
//      A materialization turns virtual flits into real ones (heads among
//      them), which can fail another corridor's check, hence the fixpoint.
//   3. Completions: corridors whose tail ejects this cycle deliver. A real
//      head queued for the destination's Local output must have had its
//      chance to materialize the corridor first, so this runs after 2.
// Why this is exact: a real flit can only disturb a corridor flit at a
// router output it also wants, and it must be resident (a head, counted in
// Router::heads_) or owned (a wormhole body, excluded at reservation) one
// cycle before it can compete. The only buffers corridor flits occupy are
// fed by links the corridor holds, so no real flit queues among them once
// the entry check passed. A closed fault window draws no RNG and charges no
// counter, so the lane launches only while the fault model reports NocQuiet,
// and FaultInjector::Fire materializes everything before a window opens.
//
// Launch: the packet is alone and whole in its source NI and R_0's local
// input is empty on its VC (correctness: flit i then enters R_0 at D+i). As
// policy only, the lane also wants hop 0's output free by D+1 and hop 1's
// input empty; without that lookahead a saturated mesh launches corridors
// that all materialize at the first check.
//
// Materialization invariant: at any state time E >= D (the last cycle whose
// mesh phases have run), the corridor can be converted back into ordinary
// buffered flits: flit i sits in R_(E-D-i), stamped as arriving at E,
// exactly where the real run would have left it; routers that forwarded n
// flits get their counters/round-robin/deficit/owner state caught up;
// ejected flits replay their NI counters; unlaunched flits requeue into the
// (empty) source injection queue. Cycle-accurate routing resumes from that
// state bit for bit.
//
// Observation: observers between ticks see end-of-state-time counts.
// Mesh::TotalFlitsRouted, TotalArbProbes and AggregateCounters add each
// in-flight corridor's progress (flits forwarded per unreleased hop, flits
// ejected), which the routers and NIs only receive at release, completion
// or materialization.
//
// Scheduling contract: while any corridor is active the mesh declares
// NextActivity == now, so it ticks on every executed cycle — the same cycles
// the real run would execute with flits in flight. Skip/executed-cycle
// counters therefore stay byte-identical; the win is that each such tick
// costs O(held links), not O(busy routers x flits).
//
// Allocation discipline: launch, the per-cycle checks and materialization
// run on the per-cycle hot path. All lane storage (corridor slots, paths,
// link and source maps) is sized once in Configure; nothing else touches the
// heap (enforced by the apiary-hot-path lint).
#ifndef SRC_NOC_EXPRESS_H_
#define SRC_NOC_EXPRESS_H_

#include <cstdint>
#include <vector>

#include "src/noc/packet.h"
#include "src/sim/types.h"

namespace apiary {

class Mesh;
class NetworkInterface;
class Router;
enum RouterPort : int;

// Aggregated lane statistics (reported in BENCH_b1/b5 JSON).
struct ExpressStats {
  uint64_t launches = 0;          // Corridors installed.
  uint64_t delivered = 0;         // Corridors that completed analytically.
  uint64_t materializations = 0;  // Corridors converted back to real flits.
  uint64_t hops_sum = 0;          // Sum of H over delivered corridors.
  uint64_t flits_delivered = 0;   // Flits delivered via completed corridors.
};

// The mesh's express lane: every corridor in flight on it.
class ExpressLane {
 public:
  // Sized-once wiring (cold path; the only place this class allocates).
  void Configure(Mesh* mesh, uint32_t num_tiles);
  // A disabled lane launches nothing (Mesh::SetExpressEnabled materializes
  // every corridor first).
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  // Called by the source NI from InjectCycle when a queue front is a packet
  // head. Returns true when a corridor was installed (the queue was drained
  // into it; the NI must not also inject this cycle — the corridor's
  // schedule already covers it).
  bool TryLaunch(NetworkInterface& ni, Cycle now);

  // The top of the mesh tick for cycle `now`: release, the check fixpoint
  // and completions (see the file comment), then the state time advances to
  // `now`.
  void TickTop(Cycle now);

  // External interference hooks.
  void MaterializeAll();                // Weight/fault reconfig.
  void MaterializeSource(TileId tile);  // New Inject on a corridor's source.

  // Virtual injection-queue occupancy of the corridor sourced at `tile` on
  // `vc_index`, as of state_time: what the real run's (draining) queue would
  // still hold. Keeps the monitor's CanInject pre-check byte-exact.
  uint32_t VirtualPending(TileId tile, int vc_index) const;

  // In-flight progress as of state_time that the routers and NIs have not
  // been charged yet: flits forwarded on unreleased hops, and flits ejected.
  uint64_t InFlightRouted() const;
  uint64_t InFlightEjected() const;

  [[nodiscard]] bool AnyActive() const { return active_count_ != 0; }

  const ExpressStats& stats() const { return stats_; }

 private:
  // One hop of a corridor's XY path: R_k, the port its flits enter on and
  // the output they leave through, and that link's index in link_owner_.
  struct Hop {
    Router* router = nullptr;
    uint32_t link = 0;
    RouterPort out{};
    RouterPort in{};
  };
  struct Corridor {
    PacketRef packet;
    Cycle launch = 0;       // D: cycle the first flit was (virtually) injected.
    Cycle due = 0;          // Completion cycle (delivery): D+F+H.
    uint32_t flits = 0;     // F (cached packet->flit_count).
    uint32_t hops = 0;      // H: full XY path is R_0..R_H.
    uint32_t released = 0;  // Hops [0, released) are caught up and freed.
    uint32_t reserved = 0;  // Hops [released, reserved) hold their links.
    int vc = 0;
    TileId source = 0;
    bool active = false;
  };

  Hop* Path(uint32_t index) { return &paths_[index * max_path_]; }
  const Hop* Path(uint32_t index) const { return &paths_[index * max_path_]; }
  // Fills hop `k` of a path from router tile `tile` towards `dst`.
  void SetHop(Hop* hop, TileId tile, TileId dst, RouterPort in) const;
  // True when no real packet owns `hop`'s output on either VC and no
  // resident head is routed to it.
  static bool OutputIdle(const Hop& hop);
  // Step 2 for one corridor: reserves the link its head leaves through at
  // `now` (once) and re-checks every held link and the head's entry buffer.
  bool Clear(uint32_t index, Cycle now);
  void Materialize(uint32_t index);
  void Deliver(uint32_t index);
  // Frees the slot, its held links and its source entry.
  void Remove(uint32_t index);

  Mesh* mesh_ = nullptr;
  uint32_t num_tiles_ = 0;
  bool enabled_ = false;
  // State boundary: mesh phases through this cycle are reflected (really or
  // analytically) in observable NoC state. Always the materialization E.
  Cycle state_time_ = 0;
  uint32_t active_count_ = 0;

  static constexpr uint32_t kMaxCorridors = 16;
  std::vector<Corridor> corridors_;  // Sized once; slots recycled in place.
  // Each slot's path, max_path_ hops per slot (the longest XY route).
  uint32_t max_path_ = 0;
  std::vector<Hop> paths_;
  // Per-link (tile * kNumPorts + output) holder: corridor index + 1; 0 = free.
  std::vector<uint16_t> link_owner_;
  // Source-tile index: the corridor launched last from tile t, which is the
  // only one that can still have unlaunched flits there.
  std::vector<uint16_t> source_owner_;  // Corridor index + 1; 0 = none.

  ExpressStats stats_;
};

}  // namespace apiary

#endif  // SRC_NOC_EXPRESS_H_
