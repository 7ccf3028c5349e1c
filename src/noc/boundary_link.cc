#include "src/noc/boundary_link.h"

#include <cassert>

#include "src/noc/packet_pool.h"
#include "src/noc/router.h"

namespace apiary {

BoundaryLink::BoundaryLink(uint32_t buffer_depth) {
  credits_.fill(buffer_depth);
}

void BoundaryLink::Send(const Flit& flit, Cycle now) {
  (void)now;
  const int vc = static_cast<int>(flit.vc());
  assert(credits_[vc] > 0 && "BoundaryLink::Send without credit");
  --credits_[vc];
  if (flit.is_head()) {
    // Pin the packet until the next commit phase: the receiver reads the
    // pointed-to packet during its transfer phase THIS cycle, and the
    // sender-side flit refs may all drop at the pop below this Send. Without
    // the anchor, a single-flit packet could return to the pool (and be
    // scrubbed for reuse) while the receiver is still copying it.
    assert(anchor_next_[vc] == nullptr && "two heads on one (link, vc) in one cycle");
    anchor_next_[vc] = flit.packet;
  }
  BoundaryFlitRecord record;
  record.packet = flit.packet.get();
  record.index = flit.index;
  record.vc = static_cast<uint8_t>(vc);
  const bool pushed = flits_.Push(record);
  assert(pushed && "boundary flit ring overflow");
  (void)pushed;
  ++flits_handed_off_;
}

void BoundaryLink::ReleaseAnchors() {
  for (int vc = 0; vc < kNumVcs; ++vc) {
    // Last cycle's anchor drops (the receiver's clone window for it closed
    // at the previous barrier); this cycle's Send()s refill anchor_next_.
    anchor_[vc] = std::move(anchor_next_[vc]);
  }
}

void BoundaryLink::HarvestCredits() {
  BoundaryCreditRecord record;
  while (credits_ring_.Pop(&record)) {
    credits_[record.vc] += record.pops;
  }
}

void BoundaryLink::FlushCredits() {
  for (int vc = 0; vc < kNumVcs; ++vc) {
    if (pending_pops_[vc] == 0) {
      continue;
    }
    BoundaryCreditRecord record;
    record.vc = static_cast<uint8_t>(vc);
    record.pops = static_cast<uint8_t>(pending_pops_[vc]);
    pending_pops_[vc] = 0;
    const bool pushed = credits_ring_.Push(record);
    assert(pushed && "boundary credit ring overflow");
    (void)pushed;
  }
}

void BoundaryLink::DeliverInto(Router& router, RouterPort in_port, Cycle now,
                               PacketPool& pool) {
  (void)now;
  BoundaryFlitRecord record;
  while (flits_.Pop(&record)) {
    const int vc = record.vc;
    if (record.index == 0) {
      // Head: clone the packet into this shard's pool + installed arena.
      // Every simulation-visible field crosses; the clone is what the local
      // routers and the ejecting NI see, so checksums, fault-drop marks and
      // flit counts behave exactly as if the original had kept flowing.
      assert(clone_[vc] == nullptr && "head while a clone is still in flight");
      const NocPacket& src = *record.packet;
      PacketRef clone = pool.Acquire();
      clone->src = src.src;
      clone->dst = src.dst;
      clone->vc = src.vc;
      clone->arb_class = src.arb_class;
      clone->packet_id = src.packet_id;
      clone->inject_cycle = src.inject_cycle;
      clone->head_len = src.head_len;
      clone->head = src.head;
      clone->payload.assign(src.payload.data(), src.payload.size());
      clone->checksum = src.checksum;
      clone->flit_count = src.flit_count;
      clone->dropped = src.dropped;
      clone_[vc] = std::move(clone);
      ++packets_cloned_;
    }
    assert(clone_[vc] != nullptr && "body flit with no in-flight clone");
    Flit flit;
    flit.packet = clone_[vc];
    flit.index = record.index;
    const bool tail = flit.is_tail();
    const bool accepted = router.AcceptFlit(in_port, std::move(flit));
    assert(accepted && "credit invariant violated: receiver buffer full");
    (void)accepted;
    if (tail) {
      clone_[vc].Reset();
    }
  }
}

}  // namespace apiary
