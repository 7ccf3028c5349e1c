#include "src/noc/router.h"

#include <bit>
#include <cassert>

#include "src/noc/network_interface.h"

namespace apiary {

Router::Router(uint32_t x, uint32_t y, uint32_t mesh_width, uint32_t mesh_height,
               uint32_t buffer_depth)
    : x_(x), y_(y), mesh_width_(mesh_width), mesh_height_(mesh_height),
      buffer_depth_(buffer_depth) {
  // One FIFO per input VC holds every resident flit, so its capacity is
  // exactly the architectural buffer depth.
  for (auto& port_bufs : inputs_) {
    for (auto& buf : port_bufs) {
      buf.flits.Init(buffer_depth_);
    }
  }
  route_.resize(static_cast<size_t>(mesh_width_) * mesh_height_);
  for (TileId dst = 0; dst < route_.size(); ++dst) {
    route_[dst] = ComputeRoute(dst);
  }
}

CounterSet Router::counters() const {
  CounterSet set;
  set.AddNonzero("router.stalls", stalls_);
  set.AddNonzero("router.weighted_grants", weighted_grants_);
  set.AddNonzero("router.fault_dropped_packets", fault_dropped_packets_);
  set.AddNonzero("router.fault_stalled_cycles", fault_stalled_cycles_);
  return set;
}

uint32_t Router::LogicCellCost(uint32_t buffer_depth) {
  // Calibrated against published soft-NoC routers (e.g. CONNECT-style 5-port,
  // 2-VC, 32B links land around 4-8k LUTs depending on buffering). Base
  // crossbar+allocators plus per-flit-slot buffer cost.
  return 4500 + 150 * buffer_depth * kNumVcs;
}

void Router::SetClassWeight(uint8_t cls, uint32_t weight) {
  if (cls >= kNumArbClasses) {
    return;
  }
  class_weights_[cls] = weight;
  weighted_ = false;
  for (const uint32_t w : class_weights_) {
    if (w != 0) {
      weighted_ = true;
    }
  }
  // (Re)configuring weights starts a fresh contest: no stale debt, no
  // banked bursts.
  for (auto& per_out : class_deficit_) {
    per_out.fill(0);
  }
}

void Router::ExpressCatchUp(RouterPort out, RouterPort in, int vc, uint32_t departed,
                            uint32_t flits) {
  if (departed == 0) {
    return;  // The lead flit never left this router: nothing was observable.
  }
  // Each departure was one successful TryForward: one probe, one flit. A
  // corridor flit never stalls, and probes of other inputs on this output
  // found only heads that had just arrived, which charge nothing.
  flits_routed_ += departed;
  arb_probes_ += departed;
  // Each departure cycle sent exactly one flit through `out`, advancing the
  // VC pointer once; the head's acquisition (sole candidate — the corridor
  // invariant) moved the input pointer past `in` and reset this output's
  // deficits, and body flits rode the wormhole owner without touching either.
  rr_vc_[out] = static_cast<int>((static_cast<uint32_t>(rr_vc_[out]) + departed) % kNumVcs);
  rr_input_[out] = (static_cast<int>(in) + 1) % kNumPorts;
  if (weighted_) {
    class_deficit_[out].fill(0);
  }
  outputs_[out][vc].owner_port =
      departed < flits ? static_cast<int>(in) : -1;
}

RouterPort Router::ComputeRoute(TileId dst) const {
  const uint32_t dx = dst % mesh_width_;
  const uint32_t dy = dst / mesh_width_;
  if (dx > x_) {
    return kPortEast;
  }
  if (dx < x_) {
    return kPortWest;
  }
  if (dy > y_) {
    return kPortSouth;
  }
  if (dy < y_) {
    return kPortNorth;
  }
  return kPortLocal;
}

uint32_t Router::FreeSlots(RouterPort in_port, Vc vc) const {
  const uint32_t used = inputs_[in_port][static_cast<int>(vc)].flits.size();
  return used >= buffer_depth_ ? 0 : buffer_depth_ - used;
}

bool Router::AcceptFlit(RouterPort in_port, Flit&& flit, Cycle arrival) {
  const int vc = static_cast<int>(flit.vc());
  InputBuffer& buf = inputs_[in_port][vc];
  if (buf.flits.size() >= buffer_depth_) {
    return false;
  }
  // HeadVisible relies on one arrival per buffer per cycle.
  assert(buf.flits.empty() || buf.last_arrival < arrival);
  if (flit.is_head()) {
    const RouterPort out = RoutePort(flit.dst());
    ++heads_[out];
    if (const uint16_t holder = link_holders_[out]; holder != 0) {
      *express_suspect_ |= 1u << (holder - 1);
    }
  }
  buf.flits.push_back(std::move(flit));
  buf.last_arrival = arrival;
  ++occupancy_;
  if (buf.flits.size() == 1) {
    PublishHead(in_port, vc);
  }
  // Publish this router into the mesh's busy live bits (idempotent).
  if (live_word_ != nullptr) {
    *live_word_ |= live_bit_;
  }
  return true;
}

uint32_t Router::RotateInputs(uint32_t mask, int first) {
  return ((mask >> first) | (mask << (kNumPorts - first))) & kAllInputs;
}

int Router::RotatedInput(uint32_t rotated, int first) {
  const int in = first + std::countr_zero(rotated);
  return in >= kNumPorts ? in - kNumPorts : in;
}

int Router::NextRequestedOutput(int from) const {
  // Shifting out every mask below `from` leaves zero exactly when no later
  // output has a requester (RequestShift(kNumPorts, 0) clears the word).
  const uint64_t pending = requests_ >> RequestShift(from, 0);
  return pending == 0 ? kNumPorts : from + std::countr_zero(pending) / RequestShift(1, 0);
}

void Router::PublishHead(int in, int vc) {
  const InputBuffer& buf = inputs_[in][vc];
  if (!buf.flits.empty()) {
    const RouterPort out = RoutePort(buf.flits.front().dst());
    requests_ |= uint64_t{1} << (RequestShift(out, vc) + in);
  }
}

bool Router::DownstreamHasSpace(RouterPort out, Vc vc) const {
  if (out == kPortLocal) {
    // Ejection is always accepted: the NI reassembly buffer is sized for the
    // maximum packet and delivery queues are modeled at the monitor level.
    return true;
  }
  Router* next = neighbors_[out];
  if (next == nullptr) {
    return false;
  }
  return next->FreeSlots(kOppositePort[out], vc) > 0;
}

void Router::SendDownstream(RouterPort out, Flit& flit, Cycle now) {
  if (out == kPortLocal) {
    if (ni_ != nullptr) {
      ni_->EjectFlit(flit, now);
    }
    return;
  }
  neighbors_[out]->AcceptFlit(kOppositePort[out], std::move(flit), now);
}

bool Router::TryForward(RouterPort out, int in, int vc, Cycle now) {
  InputBuffer& buf = inputs_[in][vc];
  if (((Requests(out, vc) >> in) & 1u) == 0 || !HeadVisible(buf, now)) {
    return false;  // Empty buffer, a head routed elsewhere, or one that just arrived.
  }
  ++arb_probes_;
  Flit& flit = buf.flits.front();
  if (!DownstreamHasSpace(out, flit.vc())) {
    ++stalls_;
    return false;
  }
  OutputVcState& state = outputs_[out][vc];
  // Callers probe only the owner of a held output vc, so a packet blocked
  // behind another's wormhole waits on its request bit and is never probed.
  assert(state.owner_port == -1 || state.owner_port == in);
  if (state.owner_port == -1) {
    if (!flit.is_head()) {
      // Body flit whose ownership was released by an earlier tail: cannot
      // happen within one packet, but guard against interleaving bugs.
      return false;
    }
    state.owner_port = in;
  }
  // Link fault injection: consulted once per packet per link (on the head
  // flit). The remaining flits keep flowing so wormhole state stays sane;
  // the ejecting NI discards packets marked dropped.
  if (fault_model_ != nullptr && out != kPortLocal && flit.is_head() &&
      fault_model_->OnLinkTraverse(tile(), flit, now)) {
    flit.packet->dropped = true;
    ++fault_dropped_packets_;
  }
  if (flit.is_head()) {
    --heads_[out];
  }
  if (flit.is_tail()) {
    state.owner_port = -1;
  }
  // Moves the flit into a neighbour's buffer (ejection reads it in place);
  // the pop then releases whatever reference is left.
  SendDownstream(out, flit, now);
  buf.flits.pop_front();
  --occupancy_;
  ++flits_routed_;
  requests_ &= ~(uint64_t{1} << (RequestShift(out, vc) + in));
  PublishHead(in, vc);
  return true;
}

bool Router::AcquireWeighted(RouterPort out, int vc, uint32_t requests, Cycle now) {
  // Scan the candidate head flits for this free (out, vc): per class, the
  // first candidate in input round-robin priority order.
  struct Candidate {
    int in = -1;
    uint32_t flits = 0;
  };
  std::array<Candidate, kNumArbClasses> cand;
  int num_classes = 0;
  bool stalled = false;
  const int first = rr_input_[out];
  for (uint32_t rot = RotateInputs(requests, first); rot != 0; rot &= rot - 1) {
    const int in = RotatedInput(rot, first);
    const InputBuffer& buf = inputs_[in][vc];
    if (!HeadVisible(buf, now)) {
      continue;  // Arrived this cycle: not a candidate yet.
    }
    const Flit& flit = buf.flits.front();
    if (!flit.is_head()) {
      continue;
    }
    if (!DownstreamHasSpace(out, flit.vc())) {
      stalled = true;  // Applies to every candidate: space is per (out, vc).
      break;
    }
    const int cls = flit.packet->arb_class % kNumArbClasses;
    if (cand[cls].in == -1) {
      cand[cls].in = in;
      cand[cls].flits = flit.packet->flit_count;
      ++num_classes;
    }
  }
  if (stalled) {
    ++stalls_;
    return false;
  }
  if (num_classes == 0) {
    return false;
  }
  if (num_classes == 1) {
    // No contention: pass free of charge, and restart the contest — weights
    // divide contended bandwidth only.
    class_deficit_[out].fill(0);
    for (int cls = 0; cls < kNumArbClasses; ++cls) {
      if (cand[cls].in != -1) {
        if (TryForward(out, cand[cls].in, vc, now)) {
          rr_input_[out] = (cand[cls].in + 1) % kNumPorts;
          return true;
        }
        return false;
      }
    }
    return false;
  }
  // Contested: every competing class banks its weight, idle classes reset,
  // and the largest deficit wins (ties to the lowest class id — fixed and
  // deterministic). The winner pays its packet's flit count, so over time
  // each class's grant share converges to weight / sum(weights).
  int winner = -1;
  for (int cls = 0; cls < kNumArbClasses; ++cls) {
    if (cand[cls].in == -1) {
      class_deficit_[out][cls] = 0;
      continue;
    }
    const int64_t weight = class_weights_[cls] == 0 ? 1 : class_weights_[cls];
    class_deficit_[out][cls] += weight;
    if (winner == -1 || class_deficit_[out][cls] > class_deficit_[out][winner]) {
      winner = cls;
    }
  }
  if (TryForward(out, cand[winner].in, vc, now)) {
    class_deficit_[out][winner] -= static_cast<int64_t>(cand[winner].flits);
    rr_input_[out] = (cand[winner].in + 1) % kNumPorts;
    ++weighted_grants_;
    return true;
  }
  return false;
}

void Router::RouteCycle(Cycle now) {
  if (fault_model_ != nullptr && fault_model_->RouterStalled(tile(), now)) {
    ++fault_stalled_cycles_;
    return;  // Wedged crossbar: buffers fill, upstream backpressure builds.
  }
  // One flit per output port per cycle (the physical link constraint).
  // VC-level round robin, then input-port round robin within a vc. When
  // weights are configured, acquisition of a free output vc goes through the
  // deficit arbiter instead of plain input round robin. Only requesting
  // inputs are probed: a probe of any other input, or of a head that arrived
  // this cycle, fails before touching a counter, a pointer or a deficit, so
  // skipping it keeps the order exact.
  // The next requested output is re-read after every output: a pop publishes
  // its buffer's next head, which later outputs of this same cycle must see.
  for (int out = NextRequestedOutput(0); out < kNumPorts; out = NextRequestedOutput(out + 1)) {
    bool sent = false;
    for (int vci = 0; vci < kNumVcs && !sent; ++vci) {
      const int vc = (rr_vc_[out] + vci) % kNumVcs;
      const uint32_t requests = Requests(out, vc);
      if (requests == 0) {
        continue;
      }
      const int owner = outputs_[out][vc].owner_port;
      if (owner != -1) {
        // Continue the packet that owns this output vc; other requesters
        // wait behind its wormhole.
        if ((requests >> owner) & 1u) {
          sent = TryForward(static_cast<RouterPort>(out), owner, vc, now);
        }
        continue;
      }
      if (weighted_) {
        sent = AcquireWeighted(static_cast<RouterPort>(out), vc, requests, now);
        continue;
      }
      const int first = rr_input_[out];
      for (uint32_t rot = RotateInputs(requests, first); rot != 0; rot &= rot - 1) {
        const int in = RotatedInput(rot, first);
        if (TryForward(static_cast<RouterPort>(out), in, vc, now)) {
          rr_input_[out] = (in + 1) % kNumPorts;
          sent = true;
          break;
        }
      }
    }
    if (sent) {
      rr_vc_[out] = (rr_vc_[out] + 1) % kNumVcs;
    }
  }
}

}  // namespace apiary
