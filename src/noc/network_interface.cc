#include "src/noc/network_interface.h"

#include "src/noc/express.h"

namespace apiary {

NetworkInterface::NetworkInterface(TileId tile, Router* router, uint32_t inject_queue_flits,
                                   bool force_single_vc, PacketPool* pool, ExpressLane* express)
    : tile_(tile),
      router_(router),
      inject_queue_flits_(inject_queue_flits),
      force_single_vc_(force_single_vc),
      pool_(pool),
      express_(express) {
  for (auto& queue : inject_queues_) {
    queue.Init(inject_queue_flits_);
  }
}

CounterSet NetworkInterface::counters() const {
  CounterSet set;
  set.AddNonzero("ni.inject_backpressure", inject_backpressure_);
  set.AddNonzero("ni.packets_injected", packets_injected_);
  set.AddNonzero("ni.flits_injected", flits_injected_);
  set.AddNonzero("ni.flits_ejected", flits_ejected_);
  set.AddNonzero("ni.packets_dropped_fault", packets_dropped_fault_);
  set.AddNonzero("ni.checksum_drops", checksum_drops_);
  set.AddNonzero("ni.packets_delivered", packets_delivered_);
  return set;
}

uint32_t NetworkInterface::LogicCellCost() {
  // Packetization, reassembly and queue logic; roughly half a router.
  return 2000;
}

bool NetworkInterface::CanInject(uint32_t flits, Vc vc) const {
  // A corridor sourced here drained this queue at launch; count what the
  // real run's queue would still hold so backpressure decisions (and their
  // counters) stay byte-identical.
  uint32_t pending = static_cast<uint32_t>(inject_queues_[static_cast<int>(vc)].size());
  pending += express_->VirtualPending(tile_, static_cast<int>(vc));
  return pending + flits <= inject_queue_flits_;
}

bool NetworkInterface::Inject(PacketRef packet, Cycle now) {
  // New traffic from this tile ends any corridor launched here: its
  // unlaunched flits must requeue ahead of this packet, in order.
  express_->MaterializeSource(tile_);
  if (force_single_vc_) {
    packet->vc = Vc::kRequest;  // Single-VC ablation: everything shares VC0.
  }
  // Flit count is computed once here and cached; every subsequent
  // is_tail() on the wire is a compare, not a division.
  const uint32_t flits = ComputeFlitCount(*packet);
  packet->flit_count = flits;
  if (!CanInject(flits, packet->vc)) {
    ++inject_backpressure_;
    return false;
  }
  packet->inject_cycle = now;
#ifndef NDEBUG
  // Eager stamp, checked by CorruptWireBit and at ejection.
  packet->checksum = PacketWireChecksum(*packet);
#endif
  auto& queue = inject_queues_[static_cast<int>(packet->vc)];
  for (uint32_t i = 0; i + 1 < flits; ++i) {
    queue.push_back(Flit{packet, i});
  }
  queue.push_back(Flit{std::move(packet), flits - 1});
  ++packets_injected_;
  flits_injected_ += flits;
  PublishLive();
  return true;
}

void NetworkInterface::InjectCycle(Cycle now) {
  if (HeadAtFront() && express_->TryLaunch(*this, now)) {
    // The corridor's closed-form schedule covers this cycle's injection (and
    // every later one) — the queue has been drained into it.
    return;
  }
  // One flit per cycle onto the local port, round-robin across VCs.
  for (int i = 0; i < kNumVcs; ++i) {
    auto& queue = inject_queues_[(inject_rr_ + i) % kNumVcs];
    if (queue.empty()) {
      continue;
    }
    // AcceptFlit moves the flit only on success; the pop then clears an
    // empty slot.
    if (router_->AcceptFlit(kPortLocal, std::move(queue.front()), now)) {
      queue.pop_front();
      inject_rr_ = (inject_rr_ + i + 1) % kNumVcs;
      return;
    }
  }
}

void NetworkInterface::EjectFlit(const Flit& flit, Cycle now) {
  ++flits_ejected_;
  if (!flit.is_tail()) {
    return;
  }
  // The cached flit count must still describe the wire image; a mismatch
  // means something resized the payload mid-flight.
  assert(flit.packet->flit_count == ComputeFlitCount(*flit.packet));
  if (flit.packet->dropped) {
    // A link fault swallowed part of this packet in flight.
    ++packets_dropped_fault_;
    return;
  }
  if (flit.packet->wire_touched &&
      flit.packet->checksum != PacketWireChecksum(*flit.packet)) {
    // Corruption is detected here, never silently consumed: the packet is
    // discarded and the loss surfaces as a counter (and, one layer up, as a
    // request timeout rather than a garbled message).
    ++checksum_drops_;
    return;
  }
  // Only a fault writes a wire image in flight, and it marks the packet.
  assert(flit.packet->wire_touched || flit.packet->checksum == PacketWireChecksum(*flit.packet));
  latency_.Record(now - flit.packet->inject_cycle);
  ++packets_delivered_;
  delivered_.push_back(flit.packet);
  // New deliverable input for the tile above: end its parked quiescence.
  sink_wake_.Wake();
}

PacketRef NetworkInterface::Retrieve() {
  if (delivered_.empty()) {
    return PacketRef();
  }
  PacketRef packet = std::move(delivered_.front());
  delivered_.pop_front();
  return packet;
}

}  // namespace apiary
