#include "src/accel/serial_engine.h"

#include <algorithm>

namespace apiary {

void SerialEngine::Submit(Cycle now, Cycle cycles, const Message& request, uint16_t opcode,
                          PayloadBuf payload, CapRef forward_to) {
  free_at_ = std::max(free_at_, now) + cycles;
  Result& r = results_.emplace_back();
  r.request.dst_service = request.dst_service;
  r.request.kind = request.kind;
  r.request.opcode = request.opcode;
  r.request.status = request.status;
  r.request.request_id = request.request_id;
  r.request.dst_process = request.dst_process;
  r.request.src_tile = request.src_tile;
  r.request.src_service = request.src_service;
  r.request.src_app = request.src_app;
  r.request.grant = request.grant;
  r.request.grant2 = request.grant2;
  r.request.payload = std::move(payload);
  r.opcode = opcode;
  r.forward_to = forward_to;
  r.done_at = free_at_;
  ++submitted_;
}

void SerialEngine::Drain(TileApi& api) {
  while (!results_.empty() && results_.front().done_at <= api.now()) {
    const Result& head = results_.front();
    // A refused send consumes its message, so every attempt sends a copy.
    Message out;
    out.opcode = head.opcode;
    out.payload = head.request.payload;
    const SendResult sent = head.forward_to != kInvalidCapRef
                                ? api.Send(std::move(out), head.forward_to)
                                : api.Reply(head.request, std::move(out));
    if (sent.status == MsgStatus::kBackpressure || sent.status == MsgStatus::kRateLimited) {
      return;
    }
    if (!sent.ok()) {
      ++dropped_;
    }
    ++done_;
    results_.pop_front();
  }
}

// APIARY-WAKE(tile): results are queued only from the owning accelerator's
// OnMessage, and the Tile's NI sink wake ends the park on that delivery.
Cycle SerialEngine::NextActivity(Cycle now) const {
  if (results_.empty()) {
    return kNoActivity;
  }
  return std::max(results_.front().done_at, now);
}

}  // namespace apiary
