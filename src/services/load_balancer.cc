#include "src/services/load_balancer.h"

#include <utility>

#include "src/services/opcodes.h"

namespace apiary {

size_t LoadBalancer::PickBackend() {
  // Least-outstanding with round-robin tie breaking: spreads load evenly and
  // adapts when one replica slows down.
  size_t best = rr_next_ % backends_.size();
  for (size_t i = 0; i < backends_.size(); ++i) {
    const size_t idx = (rr_next_ + i) % backends_.size();
    if (backends_[idx].outstanding < backends_[best].outstanding) {
      best = idx;
    }
  }
  rr_next_ = (best + 1) % backends_.size();
  return best;
}

void LoadBalancer::ReplaceBackends(const std::vector<CapRef>& endpoints) {
  std::vector<Backend> next;
  next.reserve(endpoints.size());
  for (CapRef ep : endpoints) {
    uint64_t outstanding = 0;
    // A surviving backend keeps its in-flight accounting; a new one starts
    // cold and PickBackend naturally favors it.
    for (const Backend& b : backends_) {
      if (b.endpoint == ep) {
        outstanding = b.outstanding;
        break;
      }
    }
    next.push_back(Backend{ep, outstanding});
  }
  backends_ = std::move(next);
  rr_next_ = 0;
  counters_.Add("lb.configs");
}

uint64_t LoadBalancer::InFlightOn(CapRef endpoint) const {
  uint64_t n = 0;
  for (const auto& [id, rec] : in_flight_) {
    if (rec.endpoint == endpoint) {
      ++n;
    }
  }
  return n;
}

Histogram LoadBalancer::TakeWindowLatency() {
  Histogram out = window_latency_;
  window_latency_.Reset();
  return out;
}

void LoadBalancer::OnMessage(const Message& msg, TileApi& api) {
  // Credit the integral through this cycle at the pre-message in-flight
  // count before any branch below changes membership.
  AccrueIntegral(api.now());
  if (msg.kind == MsgKind::kResponse) {
    auto it = in_flight_.find(msg.request_id);
    if (it == in_flight_.end()) {
      counters_.Add("lb.orphan_responses");
      return;
    }
    InFlight rec = std::move(it->second);
    in_flight_.erase(it);
    // Match by endpoint, not index: a kOpLbConfig may have reordered or
    // replaced the backend set while this request was in flight.
    for (Backend& b : backends_) {
      if (b.endpoint == rec.endpoint && b.outstanding > 0) {
        --b.outstanding;
        break;
      }
    }
    const Cycle rtt = api.now() - rec.sent_at;
    latency_.Record(rtt);
    window_latency_.Record(rtt);
    Message reply;
    reply.opcode = msg.opcode;
    reply.status = msg.status;
    reply.payload = msg.payload;
    if (!api.Reply(rec.original, std::move(reply)).ok()) {
      counters_.Add("lb.reply_failures");
    }
    counters_.Add("lb.responses");
    return;
  }

  if (msg.opcode == kOpLbConfig) {
    // Control plane: replace the backend set with the CapRefs packed into
    // the payload (the kernel minted them into this tile's table before
    // sending the config). In-flight responses still reach their original
    // requesters and drain accounting follows the endpoint, not the index.
    if (msg.payload.size() % 4 != 0) {
      api.ReplyStatus(msg, MsgStatus::kBadRequest);
      return;
    }
    std::vector<CapRef> endpoints;
    for (size_t off = 0; off < msg.payload.size(); off += 4) {
      endpoints.push_back(GetU32(msg.payload, off));
    }
    ReplaceBackends(endpoints);
    Message reply;
    reply.opcode = msg.opcode;
    PutU32(reply.payload, static_cast<uint32_t>(backends_.size()));
    api.Reply(msg, std::move(reply));
    return;
  }

  if (msg.opcode == kOpOrchStats) {
    // Metric export for the orchestration layer (and operators): queue and
    // latency state in one round trip.
    Message reply;
    reply.opcode = msg.opcode;
    PutU32(reply.payload, static_cast<uint32_t>(backends_.size()));
    PutU64(reply.payload, in_flight_.size());
    PutU64(reply.payload, counters_.Get("lb.responses"));
    PutU64(reply.payload, latency_.P50());
    PutU64(reply.payload, latency_.P99());
    api.Reply(msg, std::move(reply));
    return;
  }

  if (backends_.empty()) {
    api.ReplyStatus(msg, MsgStatus::kNoSuchService);
    return;
  }
  const size_t idx = PickBackend();
  Message fwd;
  fwd.opcode = msg.opcode;
  fwd.payload = msg.payload;
  fwd.dst_process = msg.dst_process;
  fwd.request_id = next_forward_id_++;
  const uint64_t fwd_id = fwd.request_id;
  const CapRef endpoint = backends_[idx].endpoint;
  const SendResult r = api.Send(std::move(fwd), endpoint);
  if (!r.ok()) {
    counters_.Add("lb.forward_failures");
    api.ReplyStatus(msg, r.status);
    return;
  }
  ++backends_[idx].outstanding;
  in_flight_.emplace(fwd_id, InFlight{msg, endpoint, api.now()});
  counters_.Add("lb.forwards");
}

}  // namespace apiary
