#include "src/noc/express.h"

#include <algorithm>
#include <cassert>

#include "src/noc/mesh.h"
#include "src/noc/network_interface.h"
#include "src/noc/router.h"

namespace apiary {

void ExpressLane::Configure(Mesh* mesh, uint32_t num_tiles) {
  assert(active_count_ == 0 && "reconfiguring a lane with corridors in flight");
  mesh_ = mesh;
  num_tiles_ = num_tiles;
  max_path_ = mesh->width() + mesh->height() - 1;
  corridors_.assign(kMaxCorridors, Corridor{});
  paths_.assign(static_cast<size_t>(kMaxCorridors) * max_path_, Hop{});
  link_owner_.assign(static_cast<size_t>(num_tiles) * kNumPorts, 0);
  source_owner_.assign(num_tiles, 0);
  active_count_ = 0;
}

void ExpressLane::SetHop(Hop* hop, TileId tile, TileId dst, RouterPort in) const {
  hop->router = mesh_->routers_[tile].get();
  hop->out = hop->router->RoutePort(dst);
  hop->in = in;
  hop->link = tile * kNumPorts + static_cast<uint32_t>(hop->out);
}

bool ExpressLane::OutputIdle(const Hop& hop) {
  const Router& r = *hop.router;
  for (int v = 0; v < kNumVcs; ++v) {
    if (r.outputs_[hop.out][v].owner_port != -1) {
      return false;
    }
  }
  return r.heads_[hop.out] == 0;
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
  // Flit i must enter R_0 at D+i: nothing real may queue ahead of it.
  if (!mesh_->routers_[src]->inputs_[kPortLocal][q].flits.empty()) {
    return false;
  }
  uint32_t slot = 0;
  while (corridors_[slot].active) {
    ++slot;  // active_count_ < kMaxCorridors: a free slot exists.
  }
  Hop* path = Path(slot);
  SetHop(&path[0], src, dst, kPortLocal);
  // Launch policy: hop 0's output must be free when the head reaches it at
  // D+1 — idle in the routers, and either unheld or held by a corridor whose
  // tail left it by `now` (released at the top of D+1).
  if (!OutputIdle(path[0])) {
    return false;
  }
  if (const uint16_t holder = link_owner_[path[0].link]; holder != 0) {
    const Corridor& h = corridors_[holder - 1];
    const Hop* hp = Path(holder - 1);
    uint32_t k = h.released;
    while (hp[k].link != path[0].link) {
      ++k;
    }
    if (h.launch + h.flits + k > now) {
      return false;
    }
  }
  uint32_t hops = 0;
  while (path[hops].out != kPortLocal) {
    // A corridor flit can transiently share an input buffer with its
    // successor (the walk reaches the upstream router, which forwards the
    // successor, before the downstream one forwards the flit), so
    // multi-hop corridors need two slots per buffer.
    if (mesh_->config_.router_buffer_depth < 2) {
      return false;
    }
    const Hop& prev = path[hops];
    ++hops;
    SetHop(&path[hops], prev.router->neighbors_[prev.out]->tile(), dst, kOppositePort[prev.out]);
    // Launch policy: the buffer the head enters at D+1 is empty.
    if (hops == 1 && !path[1].router->inputs_[path[1].in][q].flits.empty()) {
      return false;
    }
  }
  // Install: the queue drains into the corridor (one ref pins the packet),
  // and inject_rr_ takes the value any number of real injection cycles from
  // a sole-VC queue leaves behind.
  Corridor& c = corridors_[slot];
  c.packet = queue.front().packet;
  while (!queue.empty()) {
    queue.pop_front();
  }
  ni.inject_rr_ = (q + 1) % kNumVcs;
  c.launch = now;
  c.flits = flits;
  c.hops = hops;
  c.released = 0;
  c.reserved = 0;
  c.vc = q;
  c.source = src;
  // The corridor delivers when the tail ejects (D+F+H).
  c.due = now + flits + hops;
  c.active = true;
  ++active_count_;
  source_owner_[src] = static_cast<uint16_t>(slot + 1);
  ++stats_.launches;
  return true;
}

bool ExpressLane::Clear(uint32_t index, Cycle now) {
  Corridor& c = corridors_[index];
  const Hop* path = Path(index);
  // The head leaves R_j through out_j this cycle (j > H: it has ejected).
  const Cycle j = now - c.launch - 1;
  if (j == c.reserved && j <= c.hops) {
    const Hop& hop = path[j];
    if (link_owner_[hop.link] != 0 || !OutputIdle(hop)) {
      return false;
    }
    link_owner_[hop.link] = static_cast<uint16_t>(index + 1);
    ++c.reserved;
  }
  for (uint32_t k = c.released; k < c.reserved; ++k) {
    if (path[k].router->heads_[path[k].out] != 0) {
      return false;
    }
  }
  if (j < c.hops) {
    const Hop& next = path[j + 1];
    if (!next.router->inputs_[next.in][c.vc].flits.empty()) {
      return false;
    }
  }
  return true;
}

void ExpressLane::TickTop(Cycle now) {
  if (active_count_ != 0) {
    // The mesh ticks every executed cycle while a corridor is active
    // (NextActivity == now), so the state time is the previous cycle.
    assert(state_time_ + 1 == now && "corridor missed a mesh tick");
    // 1. Release the hops every tail has left.
    for (uint32_t i = 0; i < kMaxCorridors; ++i) {
      Corridor& c = corridors_[i];
      if (!c.active) {
        continue;
      }
      const Hop* path = Path(i);
      while (c.released < c.reserved && state_time_ >= c.launch + c.flits + c.released) {
        const Hop& hop = path[c.released];
        hop.router->ExpressCatchUp(hop.out, hop.in, c.vc, c.flits, c.flits);
        link_owner_[hop.link] = 0;
        ++c.released;
      }
    }
    // 2. Check until nothing materializes: a materialized corridor's flits
    // are real from here on, and may fail another corridor's check.
    for (bool changed = true; changed;) {
      changed = false;
      for (uint32_t i = 0; i < kMaxCorridors; ++i) {
        if (corridors_[i].active && !Clear(i, now)) {
          Materialize(i);
          changed = true;
        }
      }
    }
    // 3. Completions: corridors whose tail ejects this cycle deliver.
    for (uint32_t i = 0; i < kMaxCorridors; ++i) {
      if (corridors_[i].active && corridors_[i].due == now) {
        Deliver(i);
      }
    }
  }
  // Every observer until the next tick sees end-of-`now` state, really or
  // analytically — the uniform materialization boundary.
  state_time_ = now;
}

void ExpressLane::Deliver(uint32_t index) {
  Corridor& c = corridors_[index];
  const Hop* path = Path(index);
  // Only the last hop is still held: every earlier one was released as the
  // tail left it.
  assert(c.released == c.hops && c.reserved == c.hops + 1);
  const Hop& last = path[c.hops];
  last.router->ExpressCatchUp(last.out, last.in, c.vc, c.flits, c.flits);
  // Replay the ejections at their exact scheduled cycles; the tail carries
  // the delivery logic (latency record, delivery queue, sink wake).
  NetworkInterface& dst_ni = *last.router->ni_;
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
  const Hop* path = Path(index);
  const Cycle e = state_time_;
  assert(e >= c.launch);
  const uint32_t elapsed = static_cast<uint32_t>(e - c.launch);
  const uint32_t launched = std::min(c.flits, elapsed + 1);
  // Reconstruct end-of-cycle-E state: flit i arrived in R_(E-D-i) at E, or
  // has already ejected when that index passes the last router.
  for (uint32_t i = 0; i < launched; ++i) {
    const uint32_t k = elapsed - i;
    if (k > c.hops) {
      // Ejected at its scheduled cycle (never the tail — a corridor whose
      // tail ejected completed via Deliver instead).
      assert(i + 1 < c.flits);
      path[c.hops].router->ni_->EjectFlit(Flit{c.packet, i}, c.launch + i + c.hops + 1);
    } else {
      const bool ok = path[k].router->AcceptFlit(path[k].in, Flit{c.packet, i}, e);
      assert(ok && "corridor router out of buffer space");
      (void)ok;
    }
  }
  // R_k forwarded clamp(E-D-k, 0, F) flits by the end of cycle E; released
  // hops are already caught up, and hops the head has not left keep
  // untouched arbitration state.
  for (uint32_t k = c.released; k < c.reserved; ++k) {
    const uint32_t departed = elapsed > k ? std::min(c.flits, elapsed - k) : 0;
    path[k].router->ExpressCatchUp(path[k].out, path[k].in, c.vc, departed, c.flits);
  }
  // Unlaunched flits return to the source queue in order (it is empty by the
  // source-inject hook: new traffic materializes this corridor first).
  if (launched < c.flits) {
    NetworkInterface& src_ni = *mesh_->nis_[c.source];
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
  Corridor& c = corridors_[index];
  const Hop* path = Path(index);
  for (uint32_t k = c.released; k < c.reserved; ++k) {
    link_owner_[path[k].link] = 0;
  }
  if (source_owner_[c.source] == index + 1) {
    source_owner_[c.source] = 0;
  }
  c.packet = PacketRef();
  c.active = false;
  --active_count_;
}

void ExpressLane::MaterializeSource(TileId tile) {
  if (active_count_ == 0 || source_owner_[tile] == 0) {
    return;
  }
  // Only a corridor with flits still (virtually) queued holds the source; a
  // later packet there queues behind nothing.
  const uint32_t index = source_owner_[tile] - 1;
  if (VirtualPending(tile, corridors_[index].vc) != 0) {
    Materialize(index);
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

uint64_t ExpressLane::InFlightRouted() const {
  uint64_t routed = 0;
  for (uint32_t i = 0; i < kMaxCorridors && active_count_ != 0; ++i) {
    const Corridor& c = corridors_[i];
    if (!c.active) {
      continue;
    }
    const uint64_t elapsed = state_time_ - c.launch;
    for (uint64_t k = c.released; k < c.reserved; ++k) {
      routed += elapsed > k ? std::min<uint64_t>(c.flits, elapsed - k) : 0;
    }
  }
  return routed;
}

uint64_t ExpressLane::InFlightEjected() const {
  uint64_t ejected = 0;
  for (uint32_t i = 0; i < kMaxCorridors && active_count_ != 0; ++i) {
    const Corridor& c = corridors_[i];
    if (c.active && state_time_ - c.launch > c.hops) {
      ejected += std::min<uint64_t>(c.flits, state_time_ - c.launch - c.hops);
    }
  }
  return ejected;
}

}  // namespace apiary
