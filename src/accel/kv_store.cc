#include "src/accel/kv_store.h"

#include "src/core/service_ids.h"

namespace apiary {

void KvStoreAccelerator::OnBoot(TileApi& api) {
  memsvc_cap_ = api.LookupService(kMemoryService);
  if (memsvc_cap_ != kInvalidCapRef && !alloc_requested_ && mem_cap_ == kInvalidCapRef) {
    Message alloc;
    alloc.opcode = kOpMemAlloc;
    PutU64(alloc.payload, value_log_bytes_);
    PutU32(alloc.payload, kRightRead | kRightWrite);
    alloc.request_id = next_mem_request_++;
    if (api.Send(std::move(alloc), memsvc_cap_).ok()) {
      alloc_requested_ = true;
    }
  }
}

bool KvStoreAccelerator::ParseKey(const Message& msg, std::string* key,
                                  size_t* value_offset) const {
  if (msg.payload.size() < 4) {
    return false;
  }
  const uint32_t klen = GetU32(msg.payload, 0);
  if (klen == 0 || msg.payload.size() < 4 + klen) {
    return false;
  }
  key->assign(msg.payload.begin() + 4, msg.payload.begin() + 4 + klen);
  if (value_offset != nullptr) {
    *value_offset = 4 + klen;
  }
  return true;
}

void KvStoreAccelerator::HandleGet(const Message& msg, TileApi& api) {
  std::string key;
  if (!ParseKey(msg, &key, nullptr)) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    counters_.Add("kv.get_miss");
    api.ReplyStatus(msg, MsgStatus::kNotFound);
    return;
  }
  // Fetch the value from the DRAM log through the memory service,
  // presenting our segment capability.
  Message read;
  read.opcode = kOpMemRead;
  PutU64(read.payload, it->second.offset);
  PutU32(read.payload, it->second.length);
  read.request_id = next_mem_request_++;
  const uint64_t rid = read.request_id;
  if (!api.Send(std::move(read), memsvc_cap_, mem_cap_).ok()) {
    counters_.Add("kv.mem_send_fail");
    api.ReplyStatus(msg, MsgStatus::kBackpressure);
    return;
  }
  counters_.Add("kv.get");
  in_flight_[rid] = PendingOp{msg, std::move(key), it->second};
}

void KvStoreAccelerator::HandlePut(const Message& msg, TileApi& api) {
  std::string key;
  size_t voff = 0;
  if (!ParseKey(msg, &key, &voff)) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  const uint64_t vlen = msg.payload.size() - voff;
  if (index_.size() >= kKvMaxIndexEntries && index_.find(key) == index_.end()) {
    counters_.Add("kv.index_full");
    api.ReplyStatus(msg, MsgStatus::kNoMemory);
    return;
  }
  if (log_head_ + vlen > value_log_bytes_) {
    counters_.Add("kv.log_full");
    api.ReplyStatus(msg, MsgStatus::kNoMemory);
    return;
  }
  const ValueLoc loc{log_head_, static_cast<uint32_t>(vlen)};
  log_head_ += vlen;
  Message write;
  write.opcode = kOpMemWrite;
  PutU64(write.payload, loc.offset);
  write.payload.insert(write.payload.end(), msg.payload.begin() + static_cast<ptrdiff_t>(voff),
                       msg.payload.end());
  write.request_id = next_mem_request_++;
  const uint64_t rid = write.request_id;
  if (!api.Send(std::move(write), memsvc_cap_, mem_cap_).ok()) {
    counters_.Add("kv.mem_send_fail");
    api.ReplyStatus(msg, MsgStatus::kBackpressure);
    return;
  }
  counters_.Add("kv.put");
  in_flight_[rid] = PendingOp{msg, std::move(key), loc};
}

void KvStoreAccelerator::HandleDelete(const Message& msg, TileApi& api) {
  std::string key;
  if (!ParseKey(msg, &key, nullptr)) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  const bool erased = index_.erase(key) > 0;
  counters_.Add(erased ? "kv.delete" : "kv.delete_miss");
  api.ReplyStatus(msg, erased ? MsgStatus::kOk : MsgStatus::kNotFound);
}

void KvStoreAccelerator::HandleMemReply(const Message& msg, TileApi& api) {
  if (msg.opcode == kOpMemAlloc) {
    if (msg.status == MsgStatus::kOk && msg.payload.size() >= 4) {
      mem_cap_ = GetU32(msg.payload, 0);
      counters_.Add("kv.log_provisioned");
    } else {
      counters_.Add("kv.alloc_failed");
      alloc_requested_ = false;  // Retry from Tick.
    }
    return;
  }
  auto it = in_flight_.find(msg.request_id);
  if (it == in_flight_.end()) {
    counters_.Add("kv.orphan_mem_reply");
    return;
  }
  PendingOp op = std::move(it->second);
  in_flight_.erase(it);
  if (msg.status != MsgStatus::kOk) {
    counters_.Add("kv.mem_error");
    api.ReplyStatus(op.client_request, msg.status);
    return;
  }
  if (op.client_request.opcode == kOpKvGet) {
    Message reply;
    reply.opcode = kOpKvGet;
    reply.payload = msg.payload;
    api.Reply(op.client_request, std::move(reply));
    counters_.Add("kv.get_ok");
  } else {
    // Write acknowledged: commit the index entry, then ack the client.
    index_[op.key] = op.loc;
    api.ReplyStatus(op.client_request, MsgStatus::kOk);
    counters_.Add("kv.put_ok");
  }
}

void KvStoreAccelerator::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind == MsgKind::kResponse) {
    HandleMemReply(msg, api);
    return;
  }
  if (!ready()) {
    // Value log not provisioned yet: queue a little, else shed load.
    if (boot_backlog_.size() < 64) {
      boot_backlog_.push_back(msg);
    } else {
      api.ReplyStatus(msg, MsgStatus::kBackpressure);
    }
    return;
  }
  switch (msg.opcode) {
    case kOpKvGet:
      HandleGet(msg, api);
      break;
    case kOpKvPut:
      HandlePut(msg, api);
      break;
    case kOpKvDelete:
      HandleDelete(msg, api);
      break;
    default:
      api.ReplyStatus(msg, MsgStatus::kBadRequest);
      break;
  }
}

void KvStoreAccelerator::Tick(TileApi& api) {
  if (mem_cap_ == kInvalidCapRef) {
    if (!alloc_requested_) {
      OnBoot(api);  // Retry provisioning.
    }
    return;
  }
  while (!boot_backlog_.empty()) {
    Message msg = std::move(boot_backlog_.front());
    boot_backlog_.pop_front();
    OnMessage(msg, api);
  }
}

std::vector<uint8_t> KvStoreAccelerator::SaveState() {
  // Externalized architectural state (Section 4.4): enough to resume on this
  // or an equivalent tile. In-flight memory operations are abandoned; their
  // clients see errors/timeouts, exactly as a preempted NIC would behave.
  std::vector<uint8_t> out;
  PutU64(out, log_head_);
  PutU32(out, memsvc_cap_);
  PutU32(out, mem_cap_);
  PutU32(out, static_cast<uint32_t>(index_.size()));
  for (const auto& [key, loc] : index_) {
    PutU32(out, static_cast<uint32_t>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    PutU64(out, loc.offset);
    PutU32(out, loc.length);
  }
  return out;
}

void KvStoreAccelerator::RestoreState(std::span<const uint8_t> state) {
  if (state.size() < 20) {
    return;
  }
  std::vector<uint8_t> buf(state.begin(), state.end());
  log_head_ = GetU64(buf, 0);
  memsvc_cap_ = GetU32(buf, 8);
  mem_cap_ = GetU32(buf, 12);
  alloc_requested_ = mem_cap_ != kInvalidCapRef;
  const uint32_t count = GetU32(buf, 16);
  size_t off = 20;
  index_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    if (off + 4 > buf.size()) {
      return;
    }
    const uint32_t klen = GetU32(buf, off);
    off += 4;
    if (off + klen + 12 > buf.size()) {
      return;
    }
    std::string key(buf.begin() + static_cast<ptrdiff_t>(off),
                    buf.begin() + static_cast<ptrdiff_t>(off + klen));
    off += klen;
    ValueLoc loc;
    loc.offset = GetU64(buf, off);
    off += 8;
    loc.length = GetU32(buf, off);
    off += 4;
    index_[std::move(key)] = loc;
  }
}

}  // namespace apiary
