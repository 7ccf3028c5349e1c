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
//   2. Check, repeated until nothing materializes. A corridor materializes
//      when
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
//
// Check, per event. Only two kinds of corridor are checked: those whose
// head is still travelling (N <= D+1+H: the reserve and the entry buffer
// are read every such cycle), and suspects. The first rule is pushed, not
// polled: each router holds its row of the link table and the lane's
// suspect mask, and Router::AcceptFlit, when it counts a head into
// heads_[out] for a held link, marks the holder suspect. A reserved link
// starts with no resident head routed to it (the reserve requires it), so a
// corridor with no mark has no such head on any held link and its check
// would pass. A suspect's held links are re-read once (the link may have
// been released since the mark); a clean one drops its mark. The fixpoint
// walks (travelling | suspect) corridors in ascending slot order, re-reading
// the suspect mask above the cursor after each step, and repeats the walk
// while a pass materialized something: the same checks the full ascending
// passes would fail, in the same order, since every skipped check passes
// and has no side effect. A router that buffers no flit (the mesh's live
// set) holds no resident head and has empty buffers, so the reserve and
// entry reads skip it.
//
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
// policy only, the lane also wants a clear route, checked hop by hop as the
// XY route is laid down from coordinates. The head leaves R_k at D+k+1, so
//   * hop 0's output has no wormhole owner and no resident head routed to
//     it;
//   * at a later hop whose router buffers a flit, the real flits routed to
//     its output (those at the buffer fronts, with the rest of their
//     packets) number fewer than k, so they are gone a cycle before the head
//     arrives, and no head waits behind another packet; hop 1's input is
//     empty;
//   * a corridor holding hop k's link releases it by D+k.
// Without that lookahead a contended mesh launches corridors that
// materialize within a few cycles. Only the routers the policy reads are
// touched; the mesh's live set says which routers buffer nothing.
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
// counters therefore stay byte-identical. A tick's lane work follows
// corridor events, not held links: one walk over the live-slot mask
// releases the hops tails have left (each corridor keeps its next release
// cycle, D+F+released) and picks the travelling and completing corridors;
// the check runs on those and on suspects. A corridor in mid-flight with
// no mark costs one comparison per tick, and every held link is read at
// its reserve, its release and (when marked) once per mark.
//
// Allocation discipline: launch, the per-cycle checks and materialization
// run on the per-cycle hot path. All lane storage (corridor slots, paths,
// the link table each router points into, the source map) is sized once in
// Configure; nothing else touches the heap (enforced by the apiary-hot-path
// lint). Slots are a fixed array of kMaxCorridors tracked by a bitmask: the
// lowest free slot is reused first, and every walk visits live slots in
// ascending order.
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
  uint64_t checks = 0;            // Corridor checks run by TickTop.
};

// The mesh's express lane: every corridor in flight on it.
class ExpressLane {
 public:
  // Sized-once wiring (cold path; the only place this class allocates).
  // Points every router at its row of the link table and at the suspect
  // mask.
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
  // `now`, so every observer until the next tick sees end-of-`now` state,
  // really or analytically — the uniform materialization boundary.
  void TickTop(Cycle now) {
    if (active_ != 0) {
      TickCorridors(now);
    }
    state_time_ = now;
  }

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

  [[nodiscard]] bool AnyActive() const { return active_ != 0; }
  // The live-slot mask: bit i is set while slot i holds a corridor.
  uint32_t live_slots() const { return active_; }

  const ExpressStats& stats() const { return stats_; }

 private:
  // One hop of a corridor's XY path: R_k, the port its flits enter on and
  // the output they leave through, and that link's index in link_owner_
  // (tile * kNumPorts + out).
  struct Hop {
    Router* router = nullptr;
    uint32_t link = 0;
    RouterPort out{};
    RouterPort in{};
  };
  struct Corridor {
    PacketRef packet;
    Cycle launch = 0;        // D: cycle the first flit was (virtually) injected.
    Cycle due = 0;           // Completion cycle (delivery): D+F+H.
    Cycle next_release = 0;  // D+F+released: the tail leaves hop `released`.
    uint32_t flits = 0;      // F (cached packet->flit_count).
    uint32_t hops = 0;       // H: full XY path is R_0..R_H.
    uint32_t released = 0;   // Hops [0, released) are caught up and freed.
    uint32_t reserved = 0;   // Hops [released, reserved) hold their links.
    int vc = 0;
    TileId source = 0;
  };

  static constexpr uint32_t kMaxCorridors = 16;
  static constexpr uint32_t kAllSlots = (1u << kMaxCorridors) - 1;

  Hop* Path(uint32_t index) { return &paths_[index * max_path_]; }
  const Hop* Path(uint32_t index) const { return &paths_[index * max_path_]; }
  // True when the mesh's live set says router `tile` buffers a flit (a
  // router that does not has no resident head and empty input buffers).
  bool RouterBusy(TileId tile) const;
  // True when no real packet owns `hop`'s output on either VC and no
  // resident head is routed to it.
  bool OutputIdle(const Hop& hop) const;
  // Launch policy (see the file comment) for hop `k` of a route launched at
  // `now`, whose head leaves through the hop's output at now + k + 1.
  // True when the real flits routed to `hop`'s output leave it before
  // now + k: the flits at the front of its router's buffers, with
  // the rest of their packets, pass one per cycle from now + 1 at best, and
  // no head is queued behind another packet (it would wait an unknown
  // time).
  bool BacklogDrains(const Hop& hop, uint32_t k) const;
  // True when corridor `holder`, holding `link`, releases it by now + k.
  bool HolderReleases(uint32_t holder, uint32_t link, uint32_t k, Cycle now) const;
  // True when a resident real head is routed to one of the corridor's held
  // links (read only for a suspect).
  bool HeldLinkWanted(uint32_t index) const;
  // TickTop's work while any corridor is live.
  void TickCorridors(Cycle now);
  // Step 2 for one corridor: reserves the link its head leaves through at
  // `now` (once), re-checks the held links if it is suspect, and checks the
  // head's entry buffer.
  bool Clear(uint32_t index, Cycle now);
  void Materialize(uint32_t index);
  void Deliver(uint32_t index);
  // Frees the slot, its held links, its suspect mark and its source entry.
  void Remove(uint32_t index);

  Mesh* mesh_ = nullptr;
  uint32_t num_tiles_ = 0;
  bool enabled_ = false;
  // State boundary: mesh phases through this cycle are reflected (really or
  // analytically) in observable NoC state. Always the materialization E.
  Cycle state_time_ = 0;
  // Live slots (bit i: corridors_[i] is in flight).
  uint32_t active_ = 0;
  // Slots whose held links may have a resident head routed to them: set by
  // Router::AcceptFlit through the pointer Configure hands every router,
  // cleared when the slot is checked clean or removed.
  uint32_t suspect_ = 0;

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
