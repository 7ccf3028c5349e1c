#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>

#include "src/services/opcodes.h"

namespace perfbench {

uint64_t SpanStack::covered_ns() const {
  uint64_t sum = 0;
  for (uint64_t ns : self_ns_) {
    sum += ns;
  }
  return sum;
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Tracer::StartWindow(Cycle start) {
  window_start_ = start;
  spans_.Reset();
  messages_ = {};
  send_calls_ = 0;
  to_service_.clear();
  service_.clear();
  to_client_.clear();
  sampled_.clear();
  completed_ = 0;
}

void Tracer::ClientSend(uint64_t id, uint32_t client, Cycle cycle) {
  RequestSpan& span = open_[id];
  span.id = id;
  span.client = client;
  span.client_send = cycle;
}

void Tracer::ServiceRecv(uint64_t raw_id, Cycle cycle) {
  auto it = open_.find(Resolve(raw_id));
  if (it != open_.end()) {
    it->second.service_recv = cycle;
  }
}

void Tracer::ServiceReply(uint64_t raw_id, Cycle cycle) {
  const uint64_t id = Resolve(raw_id);
  auto it = open_.find(id);
  if (it != open_.end()) {
    it->second.service_reply = cycle;
  }
  forwarded_.erase(raw_id);
}

void Tracer::ClientRecv(uint64_t id, Cycle cycle) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  RequestSpan span = it->second;
  open_.erase(it);
  span.client_recv = cycle;
  // A span is complete only when the service saw both ends; requests sent
  // before the window are dropped here, not clipped.
  if (span.client_send < window_start_ || span.service_reply < span.service_recv ||
      span.service_recv < span.client_send || span.client_recv < span.service_reply ||
      span.service_recv == 0) {
    return;
  }
  to_service_.push_back(span.service_recv - span.client_send);
  service_.push_back(span.service_reply - span.service_recv);
  to_client_.push_back(span.client_recv - span.service_reply);
  if (completed_++ % kSampleEvery == 0 && sampled_.size() < kMaxSampled) {
    sampled_.push_back(span);
  }
}

bool Tracer::WriteChromeTrace(const std::string& path, const std::string& process_name,
                              double cycles_per_us) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
               "\"args\": {\"name\": \"%s (simulated time)\"}}",
               process_name.c_str());
  auto us = [&](Cycle c) { return static_cast<double>(c) / cycles_per_us; };
  auto event = [&](const char* name, uint64_t id, const char* parent, uint32_t tid, Cycle begin,
                   Cycle end) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": \"%llx\", "
                 "\"parent\": %s%s%s, \"cycles\": %llu}}",
                 name, tid, us(begin), us(end) - us(begin), static_cast<unsigned long long>(id),
                 parent == nullptr ? "" : "\"", parent == nullptr ? "null" : parent,
                 parent == nullptr ? "" : "\"", static_cast<unsigned long long>(end - begin));
  };
  for (const RequestSpan& s : sampled_) {
    event("request", s.id, nullptr, s.client, s.client_send, s.client_recv);
    event("to_service", s.id, "request", s.client, s.client_send, s.service_recv);
    event("service", s.id, "request", s.client, s.service_recv, s.service_reply);
    event("to_client", s.id, "request", s.client, s.service_reply, s.client_recv);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

apiary::SendResult TracedApi::Send(apiary::Message msg, apiary::CapRef endpoint,
                                   apiary::CapRef mem, apiary::CapRef mem2) {
  tracer_->CountSendCall();
  if (role_ == SpanRole::kGateway && forward_source_ != 0) {
    tracer_->MapForward(msg.request_id, forward_source_);
  }
  tracer_->spans().Begin(Layer::kApi, Tracer::NowNs());
  const apiary::SendResult r = inner_->Send(std::move(msg), endpoint, mem, mem2);
  tracer_->spans().End(Tracer::NowNs());
  return r;
}

apiary::SendResult TracedApi::Reply(const apiary::Message& request, apiary::Message response,
                                    apiary::CapRef mem) {
  tracer_->CountSendCall();
  tracer_->spans().Begin(Layer::kApi, Tracer::NowNs());
  const apiary::SendResult r = inner_->Reply(request, std::move(response), mem);
  tracer_->spans().End(Tracer::NowNs());
  if (role_ == SpanRole::kService && r.ok()) {
    tracer_->ServiceReply(request.request_id, inner_->now());
  }
  return r;
}

apiary::CapRef TracedApi::LookupService(apiary::ServiceId service) {
  tracer_->spans().Begin(Layer::kApi, Tracer::NowNs());
  const apiary::CapRef ref = inner_->LookupService(service);
  tracer_->spans().End(Tracer::NowNs());
  return ref;
}

void TracedAccelerator::OnBoot(apiary::TileApi& api) {
  api_.Bind(&api);
  tracer_->spans().Begin(layer_, Tracer::NowNs());
  inner_->OnBoot(api_);
  tracer_->spans().End(Tracer::NowNs());
}

void TracedAccelerator::OnMessage(const apiary::Message& msg, apiary::TileApi& api) {
  api_.Bind(&api);
  tracer_->CountMessage(layer_);
  const bool request = msg.kind == apiary::MsgKind::kRequest;
  if (role_ == SpanRole::kService && request) {
    tracer_->ServiceRecv(msg.request_id, api.now());
  }
  if (role_ == SpanRole::kGateway) {
    // kOpNetDeliver payload: u32 src_endpoint | u64 client_id | ...
    const bool inbound =
        request && msg.opcode == apiary::kOpNetDeliver && msg.payload.size() >= 12;
    api_.SetForwardSource(inbound ? apiary::GetU64(msg.payload, 4) : 0);
  }
  tracer_->spans().Begin(layer_, Tracer::NowNs());
  inner_->OnMessage(msg, api_);
  tracer_->spans().End(Tracer::NowNs());
  api_.SetForwardSource(0);
}

void TracedAccelerator::Tick(apiary::TileApi& api) {
  api_.Bind(&api);
  tracer_->spans().Begin(layer_, Tracer::NowNs());
  inner_->Tick(api_);
  tracer_->spans().End(Tracer::NowNs());
}

std::unique_ptr<apiary::Accelerator> MaybeTrace(std::unique_ptr<apiary::Accelerator> inner,
                                                Layer layer, SpanRole role, Tracer* tracer) {
  if (tracer == nullptr) {
    return inner;
  }
  return std::make_unique<TracedAccelerator>(std::move(inner), layer, role, tracer);
}

}  // namespace perfbench
