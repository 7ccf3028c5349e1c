#include "src/accel/multi_context.h"

#include "src/core/message.h"

namespace apiary {

ProcessId MultiContextHost::AddContext(std::unique_ptr<ContextLogic> logic) {
  contexts_.push_back(Slot{std::move(logic), true, 0});
  return static_cast<ProcessId>(contexts_.size() - 1);
}

bool MultiContextHost::context_alive(ProcessId pid) const {
  return pid < contexts_.size() && contexts_[pid].alive;
}

void MultiContextHost::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  const ProcessId pid = msg.dst_process;
  if (pid >= contexts_.size()) {
    counters_.Add("mch.no_such_context");
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  Slot& slot = contexts_[pid];
  if (!slot.alive) {
    // The context was individually fail-stopped; its siblings still serve.
    counters_.Add("mch.dead_context_request");
    api.ReplyStatus(msg, MsgStatus::kDestFailed);
    return;
  }
  ContextResult result = slot.logic->OnRequest(msg.opcode, msg.payload);
  if (result.fault) {
    counters_.Add("mch.context_faults");
    if (per_context_isolation_) {
      // Preemptible model: swap just this context out (Section 4.4).
      slot.alive = false;
      api.ReplyStatus(msg, MsgStatus::kDestFailed);
    } else {
      // Concurrent-only model: the whole tile must fail-stop.
      api.RaiseFault("context " + slot.logic->name() + " faulted");
    }
    return;
  }
  ++slot.served;
  counters_.Add("mch.served");
  Message reply;
  reply.opcode = msg.opcode;
  reply.status = result.status;
  reply.payload = std::move(result.payload);
  api.Reply(msg, std::move(reply));
}

std::vector<uint8_t> MultiContextHost::SaveState() {
  // u32 count, then per context: u8 alive, u64 served, u32 len, state blob.
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(contexts_.size()));
  for (auto& slot : contexts_) {
    out.push_back(slot.alive ? 1 : 0);
    PutU64(out, slot.served);
    const std::vector<uint8_t> blob = slot.logic->SaveState();
    PutU32(out, static_cast<uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

void MultiContextHost::RestoreState(std::span<const uint8_t> state) {
  if (state.size() < 4) {
    return;
  }
  std::vector<uint8_t> buf(state.begin(), state.end());
  const uint32_t count = GetU32(buf, 0);
  size_t off = 4;
  for (uint32_t i = 0; i < count && i < contexts_.size(); ++i) {
    if (off + 13 > buf.size()) {
      return;
    }
    contexts_[i].alive = buf[off] != 0;
    off += 1;
    contexts_[i].served = GetU64(buf, off);
    off += 8;
    const uint32_t len = GetU32(buf, off);
    off += 4;
    if (off + len > buf.size()) {
      return;
    }
    contexts_[i].logic->RestoreState(
        std::span<const uint8_t>(buf.data() + off, len));
    off += len;
  }
}

ContextResult CounterContext::OnRequest(uint16_t opcode,
                                        const PayloadBuf& payload) {
  (void)opcode;
  if (payload.size() < 8) {
    return ContextResult{MsgStatus::kBadRequest, {}, false};
  }
  total_ += GetU64(payload, 0);
  ContextResult result;
  PutU64(result.payload, total_);
  return result;
}

std::vector<uint8_t> CounterContext::SaveState() {
  std::vector<uint8_t> out;
  PutU64(out, total_);
  return out;
}

void CounterContext::RestoreState(std::span<const uint8_t> state) {
  if (state.size() >= 8) {
    std::vector<uint8_t> buf(state.begin(), state.end());
    total_ = GetU64(buf, 0);
  }
}

ContextResult FaultyContext::OnRequest(uint16_t opcode,
                                       const PayloadBuf& payload) {
  (void)opcode;
  if (served_ >= healthy_) {
    ContextResult result;
    result.fault = true;
    return result;
  }
  ++served_;
  return ContextResult{MsgStatus::kOk, payload, false};
}

}  // namespace apiary
