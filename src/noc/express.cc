#include "src/noc/express.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "src/noc/mesh.h"
#include "src/noc/network_interface.h"
#include "src/noc/router.h"

namespace apiary {

namespace {
// The port a flit leaving through `out` arrives on downstream.
constexpr RouterPort kOpposite[4] = {kPortSouth, kPortNorth, kPortWest, kPortEast};
// Tile itself plus its 4-neighborhood (the corridor zone stencil).
constexpr int32_t kZoneDx[5] = {0, 0, 0, 1, -1};
constexpr int32_t kZoneDy[5] = {0, -1, 1, 0, 0};

inline int32_t Sign(int32_t v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }
}  // namespace

void ExpressLane::Configure(Mesh* mesh, uint32_t num_tiles) {
  assert(active_count_ == 0 && "reconfiguring a lane with corridors in flight");
  mesh_ = mesh;
  num_tiles_ = num_tiles;
  corridors_.assign(kMaxCorridors, Corridor{});
  path_owner_.assign(num_tiles, 0);
  zone_count_.assign(num_tiles, 0);
  source_owner_.assign(num_tiles, 0);
  active_count_ = 0;
}

TileId ExpressLane::PathTile(const Corridor& c, uint32_t k) const {
  const int32_t nx = std::abs(c.dx - c.sx);
  const int32_t kk = static_cast<int32_t>(k);
  const int32_t width = static_cast<int32_t>(mesh_->width());
  if (kk <= nx) {
    return static_cast<TileId>(c.sy * width + c.sx + Sign(c.dx - c.sx) * kk);
  }
  return static_cast<TileId>((c.sy + Sign(c.dy - c.sy) * (kk - nx)) * width + c.dx);
}

RouterPort ExpressLane::PathOut(const Corridor& c, uint32_t k) const {
  const int32_t nx = std::abs(c.dx - c.sx);
  const int32_t ny = std::abs(c.dy - c.sy);
  const int32_t kk = static_cast<int32_t>(k);
  if (kk < nx) {
    return c.dx > c.sx ? kPortEast : kPortWest;
  }
  if (kk < nx + ny) {
    return c.dy > c.sy ? kPortSouth : kPortNorth;
  }
  return kPortLocal;
}

RouterPort ExpressLane::PathIn(const Corridor& c, uint32_t k) const {
  if (k == 0) {
    return kPortLocal;
  }
  return kOpposite[PathOut(c, k - 1)];
}

bool ExpressLane::ZoneContains(const Corridor& c, TileId tile) const {
  const int32_t width = static_cast<int32_t>(mesh_->width());
  const int32_t x = static_cast<int32_t>(tile) % width;
  const int32_t y = static_cast<int32_t>(tile) / width;
  for (uint32_t k = 0; k <= c.hops; ++k) {
    const TileId p = PathTile(c, k);
    const int32_t px = static_cast<int32_t>(p) % width;
    const int32_t py = static_cast<int32_t>(p) / width;
    if (std::abs(x - px) + std::abs(y - py) <= 1) {
      return true;
    }
  }
  return false;
}

void ExpressLane::InstallMaps(uint32_t index, int delta) {
  const Corridor& c = corridors_[index];
  const int32_t width = static_cast<int32_t>(mesh_->width());
  const int32_t height = static_cast<int32_t>(mesh_->height());
  source_owner_[PathTile(c, 0)] = delta > 0 ? static_cast<uint16_t>(index + 1) : 0;
  for (uint32_t k = 0; k <= c.hops; ++k) {
    const TileId t = PathTile(c, k);
    path_owner_[t] = delta > 0 ? static_cast<uint16_t>(index + 1) : 0;
    const int32_t x = static_cast<int32_t>(t) % width;
    const int32_t y = static_cast<int32_t>(t) / width;
    for (int n = 0; n < 5; ++n) {
      const int32_t zx = x + kZoneDx[n];
      const int32_t zy = y + kZoneDy[n];
      if (zx < 0 || zy < 0 || zx >= width || zy >= height) {
        continue;
      }
      // Adjacent path tiles share zone cells, so cells are counted with
      // multiplicity — install and remove stay symmetric.
      zone_count_[zy * width + zx] =
          static_cast<uint8_t>(zone_count_[zy * width + zx] + delta);
    }
  }
}

bool ExpressLane::TryLaunch(NetworkInterface& ni, Cycle now) {
  if (!enabled_ || active_count_ >= kMaxCorridors) {
    return false;
  }
  // A closed fault window draws no RNG and charges no counter, so skipping
  // the per-link hook calls is byte-exact only while the model is quiet
  // (FaultInjector::Fire materializes before any window opens).
  if (mesh_->fault_model_ != nullptr && !mesh_->fault_model_->NocQuiet(now)) {
    return false;
  }
  // Queue precondition: exactly one packet, whole, alone on its VC — the
  // closed-form schedule assumes one flit injected per cycle from one queue.
  int q = -1;
  for (int v = 0; v < kNumVcs; ++v) {
    if (!ni.inject_queues_[v].empty()) {
      if (q != -1) {
        return false;
      }
      q = v;
    }
  }
  if (q == -1) {
    return false;
  }
  auto& queue = ni.inject_queues_[q];
  const Flit& head = queue.front();
  if (head.index != 0) {
    return false;  // Mid-packet: earlier flits already injected for real.
  }
  const uint32_t flits = head.packet->flit_count;
  if (queue.size() != flits) {
    return false;
  }
  const TileId src = ni.tile();
  const TileId dst = head.dst();
  if (dst >= num_tiles_) {
    return false;
  }
  uint32_t slot = kMaxCorridors;
  for (uint32_t i = 0; i < kMaxCorridors; ++i) {
    if (!corridors_[i].active) {
      slot = i;
      break;
    }
  }
  if (slot == kMaxCorridors) {
    return false;
  }
  Corridor& c = corridors_[slot];
  const int32_t width = static_cast<int32_t>(mesh_->width());
  const int32_t height = static_cast<int32_t>(mesh_->height());
  c.sx = static_cast<int32_t>(src) % width;
  c.sy = static_cast<int32_t>(src) / width;
  c.dx = static_cast<int32_t>(dst) % width;
  c.dy = static_cast<int32_t>(dst) / width;
  const uint32_t hops =
      static_cast<uint32_t>(std::abs(c.dx - c.sx) + std::abs(c.dy - c.sy));
  c.hops = hops;
  // A corridor flit can transiently share an input buffer with its successor
  // (the walk reaches the upstream router, which forwards the successor,
  // before the downstream one forwards the flit), so multi-hop corridors
  // need two slots per buffer.
  if (hops >= 1 && mesh_->config_.router_buffer_depth < 2) {
    return false;
  }
  // Non-interference walk over the path and its zone.
  for (uint32_t k = 0; k <= hops; ++k) {
    const TileId t = PathTile(c, k);
    const int32_t x = static_cast<int32_t>(t) % width;
    const int32_t y = static_cast<int32_t>(t) / width;
    const Router& r = *mesh_->routers_[t];
    if (r.HasBufferedFlits()) {
      return false;
    }
    if (r.outputs_[PathOut(c, k)][q].owner_port != -1) {
      return false;  // Wormhole bubble: a packet still owns this output VC.
    }
    // Stay out of every existing corridor's zone (and keep them out of our
    // zone below): materializing one corridor must never invalidate another.
    if (zone_count_[t] != 0 || path_owner_[t] != 0) {
      return false;
    }
    if (k != 0 && mesh_->nis_[t]->HasPendingInject()) {
      return false;  // A mid-path NI is about to feed this router.
    }
    for (int n = 1; n < 5; ++n) {
      const int32_t zx = x + kZoneDx[n];
      const int32_t zy = y + kZoneDy[n];
      if (zx < 0 || zy < 0 || zx >= width || zy >= height) {
        continue;
      }
      const TileId z = static_cast<TileId>(zy * width + zx);
      if (path_owner_[z] != 0) {
        return false;  // Our zone may not cover another corridor's path.
      }
      if (mesh_->routers_[z]->HasBufferedFlits()) {
        return false;  // Busy zone: the first scan would materialize us.
      }
    }
  }
  // Install: the queue drains into the corridor (one ref pins the packet),
  // and inject_rr_ takes the value any number of real injection cycles from
  // a sole-VC queue leaves behind.
  c.packet = queue.front().packet;
  while (!queue.empty()) {
    queue.pop_front();
  }
  ni.inject_rr_ = (q + 1) % kNumVcs;
  c.launch = now;
  c.flits = flits;
  c.vc = q;
  // The corridor delivers when the tail ejects (D+F+H).
  c.due = now + flits + hops;
  c.active = true;
  ++active_count_;
  InstallMaps(slot, +1);
  ++stats_.launches;
  return true;
}

void ExpressLane::RunCompletions(Cycle now) {
  if (active_count_ == 0) {
    return;
  }
  for (uint32_t i = 0; i < kMaxCorridors; ++i) {
    Corridor& c = corridors_[i];
    if (!c.active) {
      continue;
    }
    // The mesh ticks every executed cycle while a corridor is active
    // (NextActivity == now), so a due cycle is never skipped past.
    assert(c.due >= now && "corridor completion missed its cycle");
    if (c.due != now) {
      continue;
    }
    Deliver(i);
  }
}

void ExpressLane::Deliver(uint32_t index) {
  Corridor& c = corridors_[index];
  // Each path router forwarded all F flits: catch up its counters and
  // arbitration state in one batch (nothing reads them mid-corridor — the
  // zone invariant keeps every observer away until materialization).
  for (uint32_t k = 0; k <= c.hops; ++k) {
    mesh_->routers_[PathTile(c, k)]->ExpressCatchUp(PathOut(c, k), PathIn(c, k), c.vc,
                                                    c.flits, c.flits);
  }
  // Replay the ejections at their exact scheduled cycles; the tail carries
  // the delivery logic (latency record, delivery queue, sink wake).
  NetworkInterface& dst_ni = *mesh_->nis_[PathTile(c, c.hops)];
  for (uint32_t i = 0; i < c.flits; ++i) {
    dst_ni.EjectFlit(Flit{c.packet, i}, c.launch + i + c.hops + 1);
  }
  ++stats_.delivered;
  stats_.hops_sum += c.hops;
  stats_.flits_delivered += c.flits;
  Remove(index);
}

void ExpressLane::Materialize(uint32_t index) {
  Corridor& c = corridors_[index];
  const Cycle e = state_time_;
  assert(e >= c.launch);
  const uint32_t elapsed = static_cast<uint32_t>(e - c.launch);
  const uint32_t launched = std::min(c.flits, elapsed + 1);
  NetworkInterface& src_ni = *mesh_->nis_[PathTile(c, 0)];
  NetworkInterface& dst_ni = *mesh_->nis_[PathTile(c, c.hops)];
  // Reconstruct end-of-cycle-E state: flit i arrived in R_(E-D-i) at E, or
  // has already ejected when that index passes the last router.
  for (uint32_t i = 0; i < launched; ++i) {
    const uint32_t k = elapsed - i;
    if (k > c.hops) {
      // Ejected at its scheduled cycle (never the tail — a corridor whose
      // tail ejected completed via Deliver instead).
      assert(i + 1 < c.flits);
      dst_ni.EjectFlit(Flit{c.packet, i}, c.launch + i + c.hops + 1);
    } else {
      const bool ok =
          mesh_->routers_[PathTile(c, k)]->AcceptFlit(PathIn(c, k), Flit{c.packet, i}, e);
      assert(ok && "corridor router out of buffer space");
      (void)ok;
    }
  }
  // R_k forwarded clamp(E-D-k, 0, F) flits by the end of cycle E; routers
  // the lead flit has not left keep untouched arbitration state.
  for (uint32_t k = 0; k <= c.hops; ++k) {
    const uint32_t departed = elapsed > k ? std::min(c.flits, elapsed - k) : 0;
    mesh_->routers_[PathTile(c, k)]->ExpressCatchUp(PathOut(c, k), PathIn(c, k), c.vc,
                                                    departed, c.flits);
  }
  // Unlaunched flits return to the source queue in order (it is empty by the
  // source-inject hook: new traffic materializes this corridor first).
  if (launched < c.flits) {
    auto& queue = src_ni.inject_queues_[c.vc];
    assert(queue.empty());
    for (uint32_t i = launched; i < c.flits; ++i) {
      queue.push_back(Flit{c.packet, i});
    }
    src_ni.PublishLive();
  }
  ++stats_.materializations;
  Remove(index);
}

void ExpressLane::Remove(uint32_t index) {
  InstallMaps(index, -1);
  Corridor& c = corridors_[index];
  c.packet = PacketRef();
  c.active = false;
  --active_count_;
}

void ExpressLane::MaterializeTouchingRouter(TileId tile) {
  if (tile >= zone_count_.size() || zone_count_[tile] == 0) {
    return;
  }
  // Zones may overlap, so a busy tile can force out several corridors.
  for (uint32_t i = 0; i < kMaxCorridors && zone_count_[tile] != 0; ++i) {
    if (corridors_[i].active && ZoneContains(corridors_[i], tile)) {
      Materialize(i);
    }
  }
}

void ExpressLane::MaterializeTouchingNi(TileId tile) {
  if (tile < path_owner_.size() && path_owner_[tile] != 0) {
    Materialize(path_owner_[tile] - 1);
  }
}

void ExpressLane::MaterializeSource(TileId tile) {
  if (tile < source_owner_.size() && source_owner_[tile] != 0) {
    Materialize(source_owner_[tile] - 1);
  }
}

void ExpressLane::MaterializeAll() {
  for (uint32_t i = 0; i < kMaxCorridors && active_count_ != 0; ++i) {
    if (corridors_[i].active) {
      Materialize(i);
    }
  }
}

uint32_t ExpressLane::VirtualPending(TileId tile, int vc_index) const {
  if (active_count_ == 0 || tile >= source_owner_.size() || source_owner_[tile] == 0) {
    return 0;
  }
  const Corridor& c = corridors_[source_owner_[tile] - 1];
  if (c.vc != vc_index) {
    return 0;
  }
  // What the real run's draining queue would still hold as of state_time:
  // one flit left per mesh tick since launch.
  const uint64_t drained = state_time_ - c.launch + 1;
  return c.flits > drained ? static_cast<uint32_t>(c.flits - drained) : 0;
}

}  // namespace apiary
