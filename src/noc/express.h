// Express corridors: timing-equivalent packet fast-forwarding through idle
// routers (ISSUE 10, B5).
//
// When a whole packet sits alone in an NI injection queue and every remaining
// hop of its XY route is verifiably non-interfering — each path router idle
// and free on the needed (output port, VC), and no open fault window — the
// traversal is a closed-form pipeline: flit i arrives in path router R_k at
// cycle D+i+k, is forwarded at D+i+k+1, and is ejected at D+i+H+1.
// The lane records that schedule instead of ticking the routers, and replays
// its externally observable effects (per-router flit counts, arbitration
// pointers, NI ejection counters/latency/delivery) at the precise cycles the
// cycle-accurate engine would have produced them.
//
// Non-interference precondition (checked at launch, re-checked every executed
// cycle by the mesh's conflict scan):
//   * every path router has no buffered flits and a free wormhole owner on
//     (out_k, vc);
//   * no router in the corridor ZONE (path tiles plus their 4-neighbors) is
//     busy — any foreign flit must cross the zone boundary one cycle before
//     it can reach a path router, so scanning the mesh's live sets at the top
//     of each executed cycle always materializes the corridor first;
//   * the fault model reports NocQuiet (no open drop/corrupt/stall window:
//     closed windows draw no RNG and charge no counters, so skipping the
//     per-link hook calls is byte-exact);
//   * corridors of one lane keep their paths out of each other's zones (and
//     zones off each other's paths), so materializing one never invalidates
//     another.
//
// Materialization invariant: at any boundary cycle E >= D (E is always the
// lane's state_time: the last cycle whose mesh phases have run), the corridor
// can be converted back into ordinary buffered flits — flit i sits in
// R_(E-D-i), stamped as arriving at E, exactly where the real run would have
// left it, routers that forwarded n flits get their counters/round-robin/
// deficit/owner state caught up, ejected flits replay their NI counters, and
// unlaunched flits requeue into the (empty) source injection queue.
// Cycle-accurate routing resumes from that state bit-for-bit.
//
// Scheduling contract: while any corridor is active the mesh declares
// NextActivity == now, so it ticks on every executed cycle — the same cycles
// the real run would execute with flits in flight. Skip/executed-cycle
// counters therefore stay byte-identical; the win is that each such tick
// costs O(active corridors), not O(busy routers x flits).
//
// Allocation discipline: launch and materialize run on the per-cycle hot
// path. All lane storage (corridor slots, per-tile zone/path maps) is sized
// once in Configure; TryLaunch/Materialize/RunCompletions never touch the
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
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Called by the source NI at the top of InjectCycle. Returns true when a
  // corridor was installed (the queue was drained into it; the NI must not
  // also inject this cycle — the corridor's schedule already covers it).
  bool TryLaunch(NetworkInterface& ni, Cycle now);

  // Completion sweep: corridors due this cycle deliver. Runs at the top of
  // the mesh tick, before the conflict scan and the route walk.
  void RunCompletions(Cycle now);

  // Conflict scan entry points: a busy router anywhere in a corridor's zone,
  // or a busy NI on a corridor's path, materializes that corridor at the
  // current state boundary.
  void MaterializeTouchingRouter(TileId tile);
  void MaterializeTouchingNi(TileId tile);

  // External interference hooks.
  void MaterializeAll();                // Weight/fault reconfig.
  void MaterializeSource(TileId tile);  // New Inject on a corridor's source.

  // Virtual injection-queue occupancy of the corridor sourced at `tile` on
  // `vc_index`, as of state_time: what the real run's (draining) queue would
  // still hold. Keeps the monitor's CanInject pre-check byte-exact.
  uint32_t VirtualPending(TileId tile, int vc_index) const;

  [[nodiscard]] bool AnyActive() const { return active_count_ != 0; }
  // Advance the state boundary: every mesh phase of `now` has run (or been
  // analytically covered), so observers until the next tick see end-of-`now`
  // state.
  void SetStateTime(Cycle now) { state_time_ = now; }

  const ExpressStats& stats() const { return stats_; }

 private:
  struct Corridor {
    PacketRef packet;
    Cycle launch = 0;    // D: cycle the first flit was (virtually) injected.
    Cycle due = 0;       // Completion cycle (delivery).
    uint32_t flits = 0;  // F (cached packet->flit_count).
    uint32_t hops = 0;   // H: full XY path is R_0..R_H.
    int vc = 0;
    bool active = false;
    // Path geometry (X-run then Y-run); tiles derived, never stored.
    int32_t sx = 0, sy = 0, dx = 0, dy = 0;
  };

  TileId PathTile(const Corridor& c, uint32_t k) const;
  RouterPort PathOut(const Corridor& c, uint32_t k) const;
  RouterPort PathIn(const Corridor& c, uint32_t k) const;
  bool ZoneContains(const Corridor& c, TileId tile) const;
  // Adds/removes corridor `index`'s tiles from the per-tile occupancy maps.
  void InstallMaps(uint32_t index, int delta);
  void Materialize(uint32_t index);
  void Deliver(uint32_t index);
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
  // Per-tile occupancy maps, sized once. Paths are mutually disjoint, so one
  // owner id suffices; zones may overlap, so those are counted.
  std::vector<uint16_t> path_owner_;  // Corridor index + 1; 0 = free.
  std::vector<uint8_t> zone_count_;
  // Source-tile index: corridor launched from tile t (one per NI at most).
  std::vector<uint16_t> source_owner_;  // Corridor index + 1; 0 = none.

  ExpressStats stats_;
};

}  // namespace apiary

#endif  // SRC_NOC_EXPRESS_H_
