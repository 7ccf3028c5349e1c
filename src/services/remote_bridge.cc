#include "src/services/remote_bridge.h"

#include "src/core/service_ids.h"

namespace apiary {

void RemoteBridge::OnBoot(TileApi& api) {
  my_service_ = api.service();
  netsvc_ = api.LookupService(kNetworkService);
  if (netsvc_ != kInvalidCapRef && !registered_) {
    Message reg;
    reg.opcode = kOpNetRegister;
    if (api.Send(std::move(reg), netsvc_).ok()) {
      registered_ = true;
    }
  }
}

void RemoteBridge::ReplyError(const Message& request, TileApi& api, MsgStatus status) {
  counters_.Add("bridge.errors");
  api.ReplyStatus(request, status);
}

void RemoteBridge::SendFrame(uint32_t peer_board, uint32_t peer_service,
                             const std::vector<uint8_t>& body, TileApi& api) {
  Message out;
  out.opcode = kOpNetSend;
  PutU32(out.payload, peer_board);
  PutU32(out.payload, peer_service);  // Routing word on the peer board.
  out.payload.insert(out.payload.end(), body.begin(), body.end());
  if (!api.Send(std::move(out), netsvc_).ok()) {
    counters_.Add("bridge.net_send_fail");
  }
}

void RemoteBridge::HandleLocalCall(const Message& msg, TileApi& api) {
  if (msg.payload.size() < 14) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  const uint32_t peer_board = GetU32(msg.payload, 0);
  const uint32_t peer_bridge = GetU32(msg.payload, 4);
  const uint32_t target = GetU32(msg.payload, 8);
  const uint16_t opcode = static_cast<uint16_t>(msg.payload[12]) |
                          (static_cast<uint16_t>(msg.payload[13]) << 8);
  const uint64_t tunnel = next_tunnel_++;
  outbound_[tunnel] = OutboundCall{msg};

  std::vector<uint8_t> body;
  body.push_back(kCall);
  PutU64(body, tunnel);
  PutU32(body, my_service_);  // Where the peer should send the response.
  PutU32(body, target);
  body.push_back(static_cast<uint8_t>(opcode));
  body.push_back(static_cast<uint8_t>(opcode >> 8));
  body.insert(body.end(), msg.payload.begin() + 14, msg.payload.end());
  SendFrame(peer_board, peer_bridge, body, api);
  counters_.Add("bridge.calls_out");
}

void RemoteBridge::HandleFrame(const Message& msg, TileApi& api) {
  // kOpNetDeliver payload: u32 src_endpoint, then our wire body.
  if (msg.payload.size() < 13) {
    counters_.Add("bridge.malformed_frame");
    return;
  }
  const uint32_t peer_board = GetU32(msg.payload, 0);
  const uint8_t type = msg.payload[4];
  const uint64_t tunnel = GetU64(msg.payload, 5);
  if (type == kCall) {
    if (msg.payload.size() < 23) {
      counters_.Add("bridge.malformed_frame");
      return;
    }
    const uint32_t reply_service = GetU32(msg.payload, 13);
    const uint32_t target = GetU32(msg.payload, 17);
    const uint16_t opcode = static_cast<uint16_t>(msg.payload[21]) |
                            (static_cast<uint16_t>(msg.payload[22]) << 8);
    auto it = exposed_.find(target);
    if (it == exposed_.end()) {
      // Service not exposed to remote callers: answer with a denial.
      std::vector<uint8_t> body;
      body.push_back(kResponse);
      PutU64(body, tunnel);
      body.push_back(static_cast<uint8_t>(MsgStatus::kDenied));
      SendFrame(peer_board, reply_service, body, api);
      counters_.Add("bridge.calls_denied");
      return;
    }
    Message fwd;
    fwd.opcode = opcode;
    fwd.payload.assign(msg.payload.begin() + 23, msg.payload.end());
    fwd.request_id = next_local_++;
    const uint64_t local_id = fwd.request_id;
    if (!api.Send(std::move(fwd), it->second).ok()) {
      std::vector<uint8_t> body;
      body.push_back(kResponse);
      PutU64(body, tunnel);
      body.push_back(static_cast<uint8_t>(MsgStatus::kBackpressure));
      SendFrame(peer_board, reply_service, body, api);
      counters_.Add("bridge.forward_fail");
      return;
    }
    inbound_[local_id] = InboundCall{peer_board, reply_service, tunnel};
    counters_.Add("bridge.calls_in");
    return;
  }
  if (type == kResponse) {
    auto it = outbound_.find(tunnel);
    if (it == outbound_.end()) {
      counters_.Add("bridge.orphan_response");
      return;
    }
    Message reply;
    reply.opcode = kOpRemoteCall;
    reply.status = msg.payload.size() >= 14 ? static_cast<MsgStatus>(msg.payload[13])
                                            : MsgStatus::kBadRequest;
    if (msg.payload.size() > 14) {
      reply.payload.assign(msg.payload.begin() + 14, msg.payload.end());
    }
    api.Reply(it->second.local_request, std::move(reply));
    outbound_.erase(it);
    counters_.Add("bridge.responses_in");
    return;
  }
  counters_.Add("bridge.unknown_frame_type");
}

void RemoteBridge::HandleServiceResponse(const Message& msg, TileApi& api) {
  auto it = inbound_.find(msg.request_id);
  if (it == inbound_.end()) {
    if (msg.opcode == kOpNetRegister) {
      counters_.Add(msg.status == MsgStatus::kOk ? "bridge.registered"
                                                 : "bridge.register_failed");
      return;
    }
    counters_.Add("bridge.orphan_service_response");
    return;
  }
  std::vector<uint8_t> body;
  body.push_back(kResponse);
  PutU64(body, it->second.tunnel_id);
  body.push_back(static_cast<uint8_t>(msg.status));
  body.insert(body.end(), msg.payload.begin(), msg.payload.end());
  SendFrame(it->second.peer_board, it->second.reply_bridge_service, body, api);
  inbound_.erase(it);
  counters_.Add("bridge.responses_out");
}

void RemoteBridge::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind == MsgKind::kResponse) {
    HandleServiceResponse(msg, api);
    return;
  }
  switch (msg.opcode) {
    case kOpRemoteCall:
      HandleLocalCall(msg, api);
      break;
    case kOpNetDeliver:
      HandleFrame(msg, api);
      break;
    default:
      ReplyError(msg, api, MsgStatus::kBadRequest);
      break;
  }
}

}  // namespace apiary
