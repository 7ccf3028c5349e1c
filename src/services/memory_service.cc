#include "src/services/memory_service.h"

namespace apiary {

void MemoryService::ReplyError(const Message& msg, TileApi& api, MsgStatus status) {
  counters_.Add("memsvc.errors");
  api.ReplyStatus(msg, status);
}

void MemoryService::HandleAlloc(const Message& msg, TileApi& api) {
  if (msg.payload.size() < 12) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  const uint64_t bytes = GetU64(msg.payload, 0);
  const uint32_t rights =
      GetU32(msg.payload, 8) & (kRightRead | kRightWrite | kRightGrant);
  auto ref = os_->GrantMemory(msg.src_tile, bytes, rights);
  if (!ref.has_value()) {
    counters_.Add("memsvc.alloc_failures");
    ReplyError(msg, api, MsgStatus::kNoMemory);
    return;
  }
  counters_.Add("memsvc.allocs");
  Message ok;
  ok.opcode = kOpMemAlloc;
  PutU32(ok.payload, *ref);
  PutU64(ok.payload, bytes);
  api.Reply(msg, std::move(ok));
}

void MemoryService::HandleFree(const Message& msg, TileApi& api) {
  if (msg.payload.size() < 4) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  const CapRef ref = GetU32(msg.payload, 0);
  if (!os_->Revoke(msg.src_tile, ref)) {
    ReplyError(msg, api, MsgStatus::kRevoked);
    return;
  }
  counters_.Add("memsvc.frees");
  api.ReplyStatus(msg, MsgStatus::kOk);
}

void MemoryService::HandleShare(const Message& msg, TileApi& api) {
  // Delegation (Section 4.6 / Dennis & Van Horn): a holder with the grant
  // right may mint an *attenuated* capability over a *sub-range* of its
  // segment for another tile. The monitor attached the presented capability
  // as msg.grant; forging is impossible because monitors scrub that field.
  if (!msg.grant.valid || !msg.grant.can_grant) {
    counters_.Add("memsvc.share_no_grant_right");
    ReplyError(msg, api, MsgStatus::kNoCapability);
    return;
  }
  if (msg.payload.size() < 24) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  const uint64_t offset = GetU64(msg.payload, 0);
  const uint64_t len = GetU64(msg.payload, 8);
  const ServiceId target = GetU32(msg.payload, 16);
  uint32_t rights = GetU32(msg.payload, 20);
  // Attenuation only: the delegate cannot exceed the delegator's rights,
  // and the grant right itself is never re-delegated through this path.
  uint32_t max_rights = (msg.grant.can_read ? static_cast<uint32_t>(kRightRead) : 0u) |
                        (msg.grant.can_write ? static_cast<uint32_t>(kRightWrite) : 0u);
  rights &= max_rights;
  if (len == 0 || offset >= msg.grant.segment.length ||
      len > msg.grant.segment.length - offset) {
    counters_.Add("memsvc.share_out_of_range");
    ReplyError(msg, api, MsgStatus::kSegFault);
    return;
  }
  const TileId target_tile = os_->LookupServiceTile(target);
  if (target_tile == kInvalidTile) {
    ReplyError(msg, api, MsgStatus::kNoSuchService);
    return;
  }
  const Segment sub{msg.grant.segment.base + offset, len};
  const CapRef ref = os_->GrantExistingSegment(target_tile, sub, rights);
  if (ref == kInvalidCapRef) {
    ReplyError(msg, api, MsgStatus::kNoMemory);
    return;
  }
  counters_.Add("memsvc.shares");
  Message ok;
  ok.opcode = kOpMemShare;
  PutU32(ok.payload, ref);
  api.Reply(msg, std::move(ok));
}

void MemoryService::HandleAccess(const Message& msg, TileApi& api, bool is_write) {
  // Capability presentation: the sending monitor attached the grant; an
  // accelerator that never presented a memory capability has grant.valid
  // false and is refused outright.
  if (!msg.grant.valid || (is_write ? !msg.grant.can_write : !msg.grant.can_read)) {
    counters_.Add("memsvc.access_no_grant");
    ReplyError(msg, api, MsgStatus::kNoCapability);
    return;
  }
  const size_t header = is_write ? 8 : 12;
  if (msg.payload.size() < header) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  const uint64_t offset = GetU64(msg.payload, 0);
  const uint64_t len =
      is_write ? msg.payload.size() - 8 : static_cast<uint64_t>(GetU32(msg.payload, 8));
  if (len == 0 || !msg.grant.segment.Contains(msg.grant.segment.base + offset, len) ||
      offset >= msg.grant.segment.length || len > msg.grant.segment.length - offset) {
    // Out-of-segment access: the isolation property in action (4.6).
    counters_.Add("memsvc.seg_faults");
    ReplyError(msg, api, MsgStatus::kSegFault);
    return;
  }
  ++app_ops_[msg.src_app];
  auto op = std::make_shared<PendingAccess>();
  op->request = msg;
  op->is_write = is_write;
  op->addr = msg.grant.segment.base + offset;
  if (is_write) {
    op->buffer.assign(msg.payload.begin() + 8, msg.payload.end());
  } else {
    op->buffer.resize(len);
  }
  pending_.push_back(op);
  counters_.Add(is_write ? "memsvc.writes" : "memsvc.reads");
}

uint64_t MemoryService::AppOps(AppId app) const {
  auto it = app_ops_.find(app);
  return it == app_ops_.end() ? 0 : it->second;
}

// APIARY-WAKE(tile): requests arrive through the owning Tile (NI sink
// wake).
Cycle MemoryService::NextActivity(Cycle now) const {
  return pending_.empty() ? kNoActivity : now;
}

void MemoryService::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;  // This service sends no requests of its own.
  }
  switch (msg.opcode) {
    case kOpMemAlloc:
      HandleAlloc(msg, api);
      break;
    case kOpMemFree:
      HandleFree(msg, api);
      break;
    case kOpMemShare:
      HandleShare(msg, api);
      break;
    case kOpMemRead:
      HandleAccess(msg, api, /*is_write=*/false);
      break;
    case kOpMemWrite:
      HandleAccess(msg, api, /*is_write=*/true);
      break;
    default:
      ReplyError(msg, api, MsgStatus::kBadRequest);
      break;
  }
}

void MemoryService::Tick(TileApi& api) {
  // Submit queued DRAM operations (retrying on bank backpressure) and reply
  // for completed ones. Completion order may differ from submission order
  // across banks; replies go out as operations finish.
  for (auto& op : pending_) {
    if (op->submitted) {
      continue;
    }
    auto on_done = [op](Cycle) { op->complete = true; };
    const bool accepted =
        op->is_write
            ? memory_->SubmitWrite(op->addr, op->buffer, on_done)
            : memory_->SubmitRead(op->addr, std::span<uint8_t>(op->buffer), on_done);
    if (accepted) {
      op->submitted = true;
    } else {
      break;  // Preserve submission order per service.
    }
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto& op = *it;
    if (!op->complete) {
      ++it;
      continue;
    }
    Message reply;
    reply.opcode = op->request.opcode;
    if (op->is_write) {
      PutU32(reply.payload, static_cast<uint32_t>(op->buffer.size()));
    } else {
      reply.payload = op->buffer;
    }
    if (!api.Reply(op->request, std::move(reply)).ok()) {
      counters_.Add("memsvc.reply_failures");
    }
    it = pending_.erase(it);
  }
}

}  // namespace apiary
