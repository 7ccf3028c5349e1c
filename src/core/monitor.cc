#include "src/core/monitor.h"

#include "src/fpga/resource_model.h"
#include "src/noc/packet_pool.h"

namespace apiary {

Monitor::Monitor(const Simulator* sim, TileId tile, NetworkInterface* ni)
    : sim_(sim),
      tile_(tile),
      ni_(ni),
      cap_table_(kMonitorCapEntries),
      trace_(kMonitorTraceCapacity) {}

CounterSet Monitor::counters() const {
  CounterSet set = counters_;
  set.AddNonzero("monitor.sends", sends_);
  set.AddNonzero("monitor.flits_sent", flits_sent_);
  set.AddNonzero("monitor.delivered", delivered_);
  return set;
}

uint64_t Monitor::MonitorLogicCells() const {
  return MonitorCellCost(ResourceCosts{}, kMonitorCapEntries);
}

CapRef Monitor::InstallCap(const Capability& cap) { return cap_table_.Install(cap); }

bool Monitor::RevokeCap(CapRef ref) { return cap_table_.Revoke(ref); }

void Monitor::RevokeAllCaps() { cap_table_.RevokeAll(); }

void Monitor::SetRateLimit(uint64_t flits_per_1k_cycles, uint64_t burst_flits) {
  limiter_ = TokenBucket(flits_per_1k_cycles, burst_flits);
}

void Monitor::SetIdentity(AppId app, ServiceId service) {
  app_ = app;
  service_ = service;
}

void Monitor::FailStop(const std::string& reason) {
  if (fault_state_ == TileFaultState::kStopped) {
    return;  // Idempotent: a second fail-stop (watchdog + kernel) is a no-op.
  }
  fault_state_ = TileFaultState::kStopped;
  fault_reason_ = reason;
  // Drain: work queued by the dead accelerator is discarded; queued inbound
  // requests are bounced with kDestFailed so clients fail fast instead of
  // timing out. Peers that keep talking to us get bounced in BeginCycle.
  counters_.Add("monitor.drained_inbox", inbox_.size());
  counters_.Add("monitor.drained_outbox", outbox_.size());
  outbox_.clear();
  for (const Message& msg : inbox_) {
    BounceWithError(msg, MsgStatus::kDestFailed);
  }
  inbox_.clear();
  Trace(TraceEvent::kFault, kInvalidTile, service_, 0, MsgStatus::kDestFailed);
  counters_.Add("monitor.fail_stops");
  // The drain may have queued bounces that only the tile's tick can flush
  // onto the NoC — and external callers (kernel, watchdog) reach a parked
  // tile with no wake of their own.
  owner_wake_.Wake();
  watcher_.Wake();
}

void Monitor::Restart() {
  fault_state_ = TileFaultState::kHealthy;
  fault_reason_.clear();
  accelerator_faulted_ = false;
  inbox_.clear();
  outbox_.clear();
  reply_rights_.clear();
  pending_responses_.clear();
  counters_.Add("monitor.restarts");
  watcher_.Wake();
}

void Monitor::RaiseFault(const std::string& reason) {
  accelerator_faulted_ = true;
  counters_.Add("monitor.accel_faults");
  // The owning Tile decides between fail-stop and preemption based on the
  // accelerator's capabilities; record the reason for it.
  fault_reason_ = reason;
  // Fault injectors raise this on parked tiles; the fail-stop decision runs
  // at the tile's next tick.
  owner_wake_.Wake();
}

void Monitor::Trace(TraceEvent event, TileId peer, ServiceId service, uint16_t opcode,
                    MsgStatus status) {
  trace_.Record(TraceRecord{sim_->now(), event, tile_, peer, service, opcode, status});
}

CapRef Monitor::LookupService(ServiceId service) {
  return cap_table_.FindEndpointForService(service);
}

bool Monitor::EnqueuePacket(Message&& msg, TileId dst_tile) {
  if (outbox_.size() >= kMonitorOutboxMessages) {
    return false;
  }
  outbox_.push_back(Outbound{sim_->now() + kMonitorSendPipelineCycles, dst_tile, std::move(msg)});
  return true;
}

SendResult Monitor::Send(Message msg, CapRef endpoint, CapRef mem, CapRef mem2) {
  if (fault_state_ != TileFaultState::kHealthy) {
    counters_.Add("monitor.send_tile_stopped");
    return SendResult{MsgStatus::kTileStopped};
  }
  const Capability* cap = cap_table_.Lookup(endpoint);
  if (cap == nullptr || cap->kind != CapKind::kEndpoint || !cap->HasRights(kRightSend)) {
    counters_.Add("monitor.send_no_cap");
    Trace(TraceEvent::kDenySend, kInvalidTile, msg.dst_service, msg.opcode,
          MsgStatus::kNoCapability);
    return SendResult{MsgStatus::kNoCapability};
  }
  // The capability *is* the authority: destination naming comes from the
  // monitor-held capability, not from untrusted accelerator fields.
  msg.dst_service = cap->dst_service;
  msg.kind = MsgKind::kRequest;
  return SendInternal(std::move(msg), cap->dst_tile, mem, mem2);
}

SendResult Monitor::Reply(const Message& request, Message response, CapRef mem) {
  if (fault_state_ != TileFaultState::kHealthy) {
    counters_.Add("monitor.send_tile_stopped");
    return SendResult{MsgStatus::kTileStopped};
  }
  auto it = reply_rights_.find(request.src_tile);
  if (it == reply_rights_.end() || it->second == 0) {
    counters_.Add("monitor.reply_no_right");
    Trace(TraceEvent::kDenySend, request.src_tile, request.src_service, response.opcode,
          MsgStatus::kNoCapability);
    return SendResult{MsgStatus::kNoCapability};
  }
  response.kind = MsgKind::kResponse;
  response.dst_service = request.src_service;
  response.dst_process = request.dst_process;
  if (response.request_id == 0) {
    response.request_id = request.request_id;
  }
  SendResult result = SendInternal(std::move(response), request.src_tile, mem, kInvalidCapRef);
  if (result.ok()) {
    --it->second;
  }
  return result;
}

bool Monitor::FillGrant(CapRef mem, SegmentGrant* out) {
  const Capability* mem_cap = cap_table_.Lookup(mem);
  if (mem_cap == nullptr || mem_cap->kind != CapKind::kMemory) {
    return false;
  }
  out->segment = mem_cap->segment;
  out->can_read = mem_cap->HasRights(kRightRead);
  out->can_write = mem_cap->HasRights(kRightWrite);
  out->can_grant = mem_cap->HasRights(kRightGrant);
  out->valid = true;
  return true;
}

SendResult Monitor::SendInternal(Message msg, TileId dst_tile, CapRef mem, CapRef mem2) {
  // Attach segment grants iff the accelerator presented memory capabilities;
  // otherwise scrub whatever the untrusted logic wrote there.
  msg.grant = SegmentGrant{};
  msg.grant2 = SegmentGrant{};
  if (mem != kInvalidCapRef && !FillGrant(mem, &msg.grant)) {
    counters_.Add("monitor.send_bad_mem_cap");
    return SendResult{MsgStatus::kNoCapability};
  }
  if (mem2 != kInvalidCapRef && !FillGrant(mem2, &msg.grant2)) {
    counters_.Add("monitor.send_bad_mem_cap");
    return SendResult{MsgStatus::kNoCapability};
  }
  // Stamp the trusted identity fields.
  msg.src_tile = tile_;
  msg.src_service = service_;
  msg.src_app = app_;
  if (msg.request_id == 0) {
    msg.request_id = (static_cast<uint64_t>(tile_) << 48) | next_auto_request_id_++;
  }

  const uint32_t flits =
      1 + static_cast<uint32_t>((msg.WireBytes() + kFlitBytes - 1) / kFlitBytes);
  if (flits > ni_->max_packet_flits()) {
    // Larger than the NI could ever inject: fail fast rather than wedge.
    counters_.Add("monitor.send_too_large");
    return SendResult{MsgStatus::kBadRequest};
  }
  // Check both budgets before consuming either, so a denial never leaves a
  // partial charge against the per-tile or tenant-shared bucket.
  const Cycle now = sim_->now();
  const bool shared_ok = shared_limiter_ == nullptr || shared_limiter_->WouldAllow(now, flits);
  if (!limiter_.WouldAllow(now, flits) || !shared_ok) {
    counters_.Add("monitor.send_rate_limited");
    Trace(TraceEvent::kDenySend, dst_tile, msg.dst_service, msg.opcode,
          MsgStatus::kRateLimited);
    return SendResult{MsgStatus::kRateLimited};
  }
  limiter_.TryConsume(now, flits);
  if (shared_limiter_ != nullptr) {
    shared_limiter_->TryConsume(now, flits);
  }
  // Read before the move: the outbox takes the message.
  const MsgKind kind = msg.kind;
  const ServiceId dst_service = msg.dst_service;
  const uint16_t opcode = msg.opcode;
  if (!EnqueuePacket(std::move(msg), dst_tile)) {
    counters_.Add("monitor.send_backpressure");
    return SendResult{MsgStatus::kBackpressure};
  }
  if (kind == MsgKind::kRequest) {
    ++pending_responses_[dst_tile];
  }
  ++sends_;
  Trace(TraceEvent::kSend, dst_tile, dst_service, opcode, MsgStatus::kOk);
  return SendResult{MsgStatus::kOk};
}

void Monitor::FlushOutbox() {
  const Cycle now = sim_->now();
  while (!outbox_.empty() && outbox_.front().ready_at <= now) {
    Outbound& out = outbox_.front();
    const Vc vc = out.msg.kind == MsgKind::kResponse ? Vc::kResponse : Vc::kRequest;
    // Pre-check injection space: serialization consumes the message (the
    // payload moves into the packet), so backpressure must be detected
    // before the message is touched for the retry next cycle to resend it.
    const uint32_t flits =
        1 + static_cast<uint32_t>((out.msg.WireBytes() + kFlitBytes - 1) / kFlitBytes);
    if (!ni_->CanInject(flits, ni_->EffectiveVc(vc))) {
      // NoC backpressure: retry next cycle, preserving order.
      break;
    }
    PacketRef packet = ni_->pool()->Acquire();
    packet->src = tile_;
    packet->dst = out.dst_tile;
    packet->vc = vc;
    packet->arb_class = arb_class_;
    SerializeMessageInto(std::move(out.msg), *packet);
    (void)ni_->Inject(std::move(packet), now);  // Cannot fail: space checked above.
    flits_sent_ += flits;
    outbox_.pop_front();
  }
}

void Monitor::BounceWithError(const Message& request, MsgStatus status) {
  if (request.kind != MsgKind::kRequest) {
    return;  // Never bounce a response: avoids error loops.
  }
  Message err;
  err.kind = MsgKind::kResponse;
  err.dst_service = request.src_service;
  err.opcode = request.opcode;
  err.status = status;
  err.request_id = request.request_id;
  err.src_tile = tile_;
  err.src_service = service_;
  err.src_app = app_;
  counters_.Add("monitor.error_bounces");
  // Bypasses the rate limiter (the error path is monitor-owned) but still
  // respects the outbox bound so a flood cannot amplify unboundedly.
  EnqueuePacket(std::move(err), request.src_tile);
}

void Monitor::DeliverIncoming(Message msg) {
  if (inbox_.size() >= kMonitorInboxMessages) {
    counters_.Add("monitor.inbox_overflow");
    BounceWithError(msg, MsgStatus::kBackpressure);
    return;
  }
  if (msg.kind == MsgKind::kRequest) {
    ++reply_rights_[msg.src_tile];
  }
  ++delivered_;
  Trace(TraceEvent::kDeliver, msg.src_tile, msg.src_service, msg.opcode, msg.status);
  inbox_.push_back(std::move(msg));
}

void Monitor::BeginCycle() {
  while (true) {
    PacketRef packet = ni_->Retrieve();
    if (packet == nullptr) {
      break;
    }
    auto msg = DeserializeMessage(*packet);
    if (!msg.has_value()) {
      counters_.Add("monitor.malformed");
      continue;
    }
    // Defense in depth: the wire src must match the NoC-level source the
    // trusted routers carried.
    if (msg->src_tile != packet->src) {
      counters_.Add("monitor.spoofed_src");
      continue;
    }
    if (fault_state_ != TileFaultState::kHealthy) {
      counters_.Add("monitor.recv_while_stopped");
      Trace(TraceEvent::kDenyReceive, msg->src_tile, msg->src_service, msg->opcode,
            MsgStatus::kDestFailed);
      BounceWithError(*msg, MsgStatus::kDestFailed);
      continue;
    }
    if (msg->kind == MsgKind::kResponse) {
      auto it = pending_responses_.find(msg->src_tile);
      if (it == pending_responses_.end() || it->second == 0) {
        counters_.Add("monitor.recv_unsolicited_response");
        Trace(TraceEvent::kDenyReceive, msg->src_tile, msg->src_service, msg->opcode,
              MsgStatus::kDenied);
        continue;
      }
      --it->second;
      DeliverIncoming(std::move(*msg));
      continue;
    }
    // Requests require the sender to be on the kernel-installed accept list.
    if (allowed_senders_.find(msg->src_tile) == allowed_senders_.end()) {
      counters_.Add("monitor.recv_denied");
      Trace(TraceEvent::kDenyReceive, msg->src_tile, msg->src_service, msg->opcode,
            MsgStatus::kDenied);
      BounceWithError(*msg, MsgStatus::kDenied);
      continue;
    }
    DeliverIncoming(std::move(*msg));
  }
}

std::optional<Message> Monitor::Receive() {
  if (fault_state_ != TileFaultState::kHealthy || inbox_.empty()) {
    return std::nullopt;
  }
  Message msg = std::move(inbox_.front());
  inbox_.pop_front();
  return msg;
}

}  // namespace apiary
