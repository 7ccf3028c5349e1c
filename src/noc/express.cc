#include "src/noc/express.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "src/noc/mesh.h"
#include "src/noc/network_interface.h"
#include "src/noc/router.h"

namespace apiary {

void ExpressLane::Configure(Mesh* mesh, uint32_t num_tiles) {
  assert(active_ == 0 && "reconfiguring a lane with corridors in flight");
  mesh_ = mesh;
  num_tiles_ = num_tiles;
  max_path_ = mesh->width() + mesh->height() - 1;
  corridors_.assign(kMaxCorridors, Corridor{});
  paths_.assign(static_cast<size_t>(kMaxCorridors) * max_path_, Hop{});
  link_owner_.assign(static_cast<size_t>(num_tiles) * kNumPorts, 0);
  source_owner_.assign(num_tiles, 0);
  suspect_ = 0;
  for (uint32_t t = 0; t < num_tiles; ++t) {
    Router& r = *mesh->routers_[t];
    r.link_holders_ = &link_owner_[static_cast<size_t>(t) * kNumPorts];
    r.express_suspect_ = &suspect_;
  }
}

bool ExpressLane::RouterBusy(TileId tile) const {
  return ((mesh_->live_[tile / 64].routers >> (tile % 64)) & 1) != 0;
}

bool ExpressLane::OutputIdle(const Hop& hop) const {
  const Router& r = *hop.router;
  for (int v = 0; v < kNumVcs; ++v) {
    if (r.outputs_[hop.out][v].owner_port != -1) {
      return false;
    }
  }
  // A router that buffers no flit holds no resident head.
  return !RouterBusy(hop.link / kNumPorts) || r.heads_[hop.out] == 0;
}

bool ExpressLane::BacklogDrains(const Hop& hop, uint32_t k) const {
  const Router& r = *hop.router;
  uint32_t backlog = 0;
  uint32_t front_heads = 0;
  for (int v = 0; v < kNumVcs; ++v) {
    for (uint32_t req = r.Requests(hop.out, v); req != 0; req &= req - 1) {
      const Flit& f = r.inputs_[std::countr_zero(req)][v].flits.front();
      backlog += f.packet->flit_count - f.index;
      front_heads += f.is_head() ? 1 : 0;
    }
  }
  return backlog < k && r.heads_[hop.out] == front_heads;
}

bool ExpressLane::HolderReleases(uint32_t holder, uint32_t link, uint32_t k, Cycle now) const {
  // The holder's tail leaves this router at its launch + F + its hop index
  // here, which on an XY route is the distance from its source; the link is
  // released at the top of the next cycle.
  const Corridor& h = corridors_[holder];
  return h.launch + h.flits + mesh_->Hops(h.source, link / kNumPorts) <= now + k;
}

bool ExpressLane::TryLaunch(NetworkInterface& ni, Cycle now) {
  if (!enabled_ || active_ == kAllSlots) {
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
  // Walk the XY route from coordinates (x first, then y), checking each hop
  // as it is laid down: launch policy only (see the file comment). Hop k's
  // output carries the head at now + k + 1.
  const uint32_t width = mesh_->width();
  const uint32_t dx = dst % width;
  const uint32_t dy = dst / width;
  uint32_t x = src % width;
  uint32_t y = src / width;
  const uint32_t hops = (dx > x ? dx - x : x - dx) + (dy > y ? dy - y : y - dy);
  // A corridor flit can transiently share an input buffer with its
  // successor (the walk reaches the upstream router, which forwards the
  // successor, before the downstream one forwards the flit), so multi-hop
  // corridors need two slots per buffer.
  if (hops != 0 && mesh_->config_.router_buffer_depth < 2) {
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(std::countr_zero(~active_));
  Hop* path = Path(slot);
  TileId tile = src;
  RouterPort in = kPortLocal;
  for (uint32_t k = 0; k <= hops; ++k) {
    const RouterPort out = dx > x   ? kPortEast
                           : dx < x ? kPortWest
                           : dy > y ? kPortSouth
                           : dy < y ? kPortNorth
                                    : kPortLocal;
    Hop& hop = path[k];
    hop.router = mesh_->routers_[tile].get();
    hop.link = tile * kNumPorts + static_cast<uint32_t>(out);
    hop.out = out;
    hop.in = in;
    // Hop 0's output is idle; a later hop's backlog drains in time, and the
    // buffer the head enters at D+1 is empty. A router that buffers no flit
    // passes both.
    if (k == 0) {
      if (!OutputIdle(hop)) {
        return false;
      }
    } else if (RouterBusy(tile) &&
               (!BacklogDrains(hop, k) ||
                (k == 1 && !hop.router->inputs_[in][q].flits.empty()))) {
      return false;
    }
    if (const uint16_t holder = link_owner_[hop.link];
        holder != 0 && !HolderReleases(holder - 1, hop.link, k, now)) {
      return false;
    }
    if (out == kPortLocal) {
      break;
    }
    x += out == kPortEast ? 1 : out == kPortWest ? -1 : 0;
    y += out == kPortSouth ? 1 : out == kPortNorth ? -1 : 0;
    tile = y * width + x;
    in = kOppositePort[out];
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
  c.next_release = now + flits;
  c.vc = q;
  c.source = src;
  // The corridor delivers when the tail ejects (D+F+H).
  c.due = now + flits + hops;
  active_ |= 1u << slot;
  source_owner_[src] = static_cast<uint16_t>(slot + 1);
  ++stats_.launches;
  return true;
}

bool ExpressLane::HeldLinkWanted(uint32_t index) const {
  const Corridor& c = corridors_[index];
  const Hop* path = Path(index);
  for (uint32_t k = c.released; k < c.reserved; ++k) {
    if (path[k].router->heads_[path[k].out] != 0) {
      return true;
    }
  }
  return false;
}

bool ExpressLane::Clear(uint32_t index, Cycle now) {
  ++stats_.checks;
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
  // Only a marked corridor can have a resident head routed to a held link.
  const uint32_t bit = 1u << index;
  if ((suspect_ & bit) != 0) {
    if (HeldLinkWanted(index)) {
      return false;
    }
    suspect_ &= ~bit;  // The marked link was released since.
  }
  if (j < c.hops) {
    const Hop& next = path[j + 1];
    if (RouterBusy(next.link / kNumPorts) && !next.router->inputs_[next.in][c.vc].flits.empty()) {
      return false;
    }
  }
  return true;
}

void ExpressLane::TickCorridors(Cycle now) {
  // The mesh ticks every executed cycle while a corridor is active
  // (NextActivity == now), so the state time is the previous cycle.
  assert(state_time_ + 1 == now && "corridor missed a mesh tick");
  // 1. One walk over the live slots: release the hops every tail has
  // left, and pick the corridors whose head is still travelling (checked
  // every cycle) and whose tail ejects this cycle.
  uint32_t travelling = 0;
  uint32_t completing = 0;
  for (uint32_t live = active_; live != 0; live &= live - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(live));
    Corridor& c = corridors_[i];
    for (; c.released < c.reserved && state_time_ >= c.next_release; ++c.released) {
      const Hop& hop = Path(i)[c.released];
      hop.router->ExpressCatchUp(hop.out, hop.in, c.vc, c.flits, c.flits);
      link_owner_[hop.link] = 0;
      ++c.next_release;
    }
    if (now <= c.launch + 1 + c.hops) {
      travelling |= 1u << i;
    }
    if (c.due == now) {
      completing |= 1u << i;
    }
  }
  // 2. Check until nothing materializes: a materialized corridor's flits
  // are real from here on, and may fail another corridor's check (marking
  // it suspect, or filling its entry buffer). Each pass re-reads the marks
  // above its cursor, so it checks what a full ascending pass would fail.
  for (bool changed = true; changed;) {
    changed = false;
    for (uint32_t pending = (travelling | suspect_) & active_; pending != 0;) {
      const uint32_t i = static_cast<uint32_t>(std::countr_zero(pending));
      if (!Clear(i, now)) {
        Materialize(i);
        changed = true;
      }
      pending = (travelling | suspect_) & active_ & ~((2u << i) - 1);
    }
  }
  // 3. Completions: corridors whose tail ejects this cycle deliver.
  for (uint32_t done = completing & active_; done != 0; done &= done - 1) {
    Deliver(static_cast<uint32_t>(std::countr_zero(done)));
  }
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
  active_ &= ~(1u << index);
  suspect_ &= ~(1u << index);
}

void ExpressLane::MaterializeSource(TileId tile) {
  if (active_ == 0 || source_owner_[tile] == 0) {
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
  while (active_ != 0) {
    Materialize(static_cast<uint32_t>(std::countr_zero(active_)));
  }
}

uint32_t ExpressLane::VirtualPending(TileId tile, int vc_index) const {
  if (active_ == 0 || tile >= source_owner_.size() || source_owner_[tile] == 0) {
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
  for (uint32_t live = active_; live != 0; live &= live - 1) {
    const Corridor& c = corridors_[std::countr_zero(live)];
    const uint64_t elapsed = state_time_ - c.launch;
    for (uint64_t k = c.released; k < c.reserved; ++k) {
      routed += elapsed > k ? std::min<uint64_t>(c.flits, elapsed - k) : 0;
    }
  }
  return routed;
}

uint64_t ExpressLane::InFlightEjected() const {
  uint64_t ejected = 0;
  for (uint32_t live = active_; live != 0; live &= live - 1) {
    const Corridor& c = corridors_[std::countr_zero(live)];
    if (state_time_ - c.launch > c.hops) {
      ejected += std::min<uint64_t>(c.flits, state_time_ - c.launch - c.hops);
    }
  }
  return ejected;
}

}  // namespace apiary
