#include "src/services/gateway.h"

#include "src/core/service_ids.h"

namespace apiary {

void NetGateway::OnBoot(TileApi& api) {
  netsvc_ = api.LookupService(kNetworkService);
  if (netsvc_ != kInvalidCapRef && !registered_) {
    Message reg;
    reg.opcode = kOpNetRegister;
    if (api.Send(std::move(reg), netsvc_).ok()) {
      registered_ = true;
    }
  }
}

void NetGateway::SendToClient(uint32_t endpoint, uint64_t client_id, MsgStatus status,
                              const PayloadBuf& data, TileApi& api) {
  Message out;
  out.opcode = kOpNetSend;
  PutU32(out.payload, endpoint);
  PutU64(out.payload, client_id);
  out.payload.push_back(static_cast<uint8_t>(status));
  out.payload.insert(out.payload.end(), data.begin(), data.end());
  if (!api.Send(std::move(out), netsvc_).ok()) {
    counters_.Add("gateway.net_send_fail");
  }
}

void NetGateway::HandleInbound(const Message& msg, TileApi& api) {
  // Layout after kOpNetDeliver's u32 src_endpoint: u64 client_id, u16 op.
  if (msg.payload.size() < 14) {
    counters_.Add("gateway.malformed");
    return;
  }
  const uint32_t client_endpoint = GetU32(msg.payload, 0);
  const uint64_t client_id = GetU64(msg.payload, 4);
  const uint16_t opcode = static_cast<uint16_t>(msg.payload[12]) |
                          (static_cast<uint16_t>(msg.payload[13]) << 8);
  if (backend_ == kInvalidCapRef) {
    SendToClient(client_endpoint, client_id, MsgStatus::kNoSuchService, {}, api);
    return;
  }
  Message fwd;
  fwd.opcode = opcode;
  fwd.payload.assign(msg.payload.begin() + 14, msg.payload.end());
  fwd.request_id = next_forward_id_++;
  const uint64_t fwd_id = fwd.request_id;
  const SendResult r = api.Send(std::move(fwd), backend_);
  if (!r.ok()) {
    counters_.Add("gateway.backend_reject");
    SendToClient(client_endpoint, client_id, r.status, {}, api);
    return;
  }
  in_flight_[fwd_id] = InFlight{client_endpoint, client_id};
  counters_.Add("gateway.forwarded");
}

void NetGateway::HandleBackendResponse(const Message& msg, TileApi& api) {
  auto it = in_flight_.find(msg.request_id);
  if (it == in_flight_.end()) {
    counters_.Add("gateway.orphan_response");
    return;
  }
  SendToClient(it->second.client_endpoint, it->second.client_id, msg.status, msg.payload, api);
  in_flight_.erase(it);
  counters_.Add("gateway.completed");
}

void NetGateway::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind == MsgKind::kResponse) {
    if (msg.opcode == kOpNetRegister) {
      counters_.Add(msg.status == MsgStatus::kOk ? "gateway.registered"
                                                 : "gateway.register_failed");
      return;
    }
    HandleBackendResponse(msg, api);
    return;
  }
  if (msg.opcode == kOpNetDeliver) {
    HandleInbound(msg, api);
    return;
  }
  api.ReplyStatus(msg, MsgStatus::kBadRequest);
}

}  // namespace apiary
