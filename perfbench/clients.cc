#include "perfbench/clients.h"

#include <cmath>
#include <cstring>

#include "src/accel/accel_opcodes.h"
#include "src/core/message.h"
#include "src/workload/kv_workload.h"

namespace perfbench {

using apiary::Message;
using apiary::MsgKind;
using apiary::MsgStatus;
using apiary::TileApi;

void Ledger::Completed(Cycle issued, Cycle received, bool ok, bool contents_ok) {
  if (!contents_ok) {
    ++check_failures;
  }
  if (ok && InWindow(received)) {
    ++ok_in_window;
  }
  if (!InWindow(issued)) {
    return;
  }
  if (ok) {
    latencies.push_back(received - issued);
  } else {
    ++errors;
  }
}

KvTable::KvTable(uint64_t n, uint32_t bytes) : value_bytes(bytes) {
  keys.reserve(n);
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back(apiary::KvKeyForIndex(i));
    values.push_back(apiary::KvValueForIndex(i, bytes));
  }
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta), alpha_(1.0 / (1.0 - theta)) {
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + std::pow(2.0, -theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

uint64_t Zipf::Next(apiary::Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const auto k = static_cast<uint64_t>(static_cast<double>(n_) *
                                       std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k < n_ ? k : n_ - 1;
}

uint32_t Fnv32(const uint8_t* data, size_t size) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

namespace {

// Deterministic per-request payload bytes.
uint8_t PatternByte(uint64_t id, size_t i) {
  return static_cast<uint8_t>((id * 0x9E3779B97F4A7C15ull >> 56) + i * 31);
}

void FillPattern(uint64_t id, uint32_t bytes, apiary::PayloadBuf* out) {
  out->resize(bytes);
  for (uint32_t i = 0; i < bytes; ++i) {
    (*out)[i] = PatternByte(id, i);
  }
}

uint32_t PatternFnv(uint64_t id, uint32_t bytes) {
  uint32_t h = 2166136261u;
  for (uint32_t i = 0; i < bytes; ++i) {
    h ^= PatternByte(id, i);
    h *= 16777619u;
  }
  return h;
}

uint64_t RequestId(uint32_t client, uint64_t seq) {
  return (static_cast<uint64_t>(client + 1) << 40) | seq;
}

constexpr uint64_t kPutBit = 1ull << 63;

void BuildKvPayload(const KvTable& table, uint64_t arg, apiary::PayloadBuf* out) {
  const uint64_t key = arg & ~kPutBit;
  const std::string& k = table.keys[key];
  apiary::PutU32(*out, static_cast<uint32_t>(k.size()));
  out->append(reinterpret_cast<const uint8_t*>(k.data()), k.size());
  if ((arg & kPutBit) != 0) {
    out->append(table.values[key].data(), table.values[key].size());
  }
}

bool CheckKvReply(const KvTable& table, uint64_t arg, const uint8_t* data, size_t size) {
  if ((arg & kPutBit) != 0) {
    return size == 0;
  }
  const std::vector<uint8_t>& want = table.values[arg];
  return size == want.size() && std::memcmp(data, want.data(), size) == 0;
}

}  // namespace

BoardClient::BoardClient(apiary::ServiceId target, uint32_t window, uint32_t index,
                         uint64_t seed, Tracer* tracer)
    : target_(target), index_(index), tracer_(tracer), rng_(seed), slots_(window) {}

void BoardClient::OnBoot(TileApi& api) { cap_ = api.LookupService(target_); }

void BoardClient::Tick(TileApi& api) {
  const Cycle now = api.now();
  while (busy_ < slots_.size() && now < ledger.window_stop) {
    if (!pending_.busy) {
      pending_ = Slot{RequestId(index_, ++seq_), NextArg(rng_), now, true};
    }
    Message msg;
    Build(pending_.id, pending_.arg, &msg);
    msg.request_id = pending_.id;
    const apiary::SendResult r = api.Send(std::move(msg), cap_);
    if (!r.ok()) {
      if (ledger.InWindow(now)) {
        ++ledger.local_refusals;
      }
      if (r.status != MsgStatus::kBackpressure && r.status != MsgStatus::kRateLimited) {
        ++ledger.errors;  // Not a retryable refusal: the request is lost.
        pending_.busy = false;
      }
      return;
    }
    ledger.Accepted(pending_.issued);
    if (tracer_ != nullptr) {
      tracer_->ClientSend(pending_.id, index_, pending_.issued);
    }
    for (Slot& slot : slots_) {
      if (!slot.busy) {
        slot = pending_;
        break;
      }
    }
    ++busy_;
    pending_.busy = false;
  }
}

void BoardClient::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kResponse) {
    return;
  }
  for (Slot& slot : slots_) {
    if (slot.busy && slot.id == msg.request_id) {
      const bool ok = msg.status == MsgStatus::kOk;
      ledger.Completed(slot.issued, api.now(), ok, !ok || Check(slot.id, slot.arg, msg));
      if (tracer_ != nullptr) {
        tracer_->ClientRecv(slot.id, api.now());
      }
      slot.busy = false;
      --busy_;
      return;
    }
  }
  ++ledger.check_failures;  // A response to nothing we sent.
}

Cycle BoardClient::NextActivity(Cycle now) const {
  return busy_ < slots_.size() && now < ledger.window_stop ? now : apiary::kNoActivity;
}

uint64_t BoardClient::unanswered() const {
  uint64_t n = 0;
  for (const Slot& slot : slots_) {
    n += slot.busy && ledger.InWindow(slot.issued) ? 1 : 0;
  }
  return n;
}

uint64_t EchoClient::NextArg(apiary::Rng& rng) {
  return rng.NextInRange(min_bytes_, max_bytes_);
}

void EchoClient::Build(uint64_t id, uint64_t arg, Message* msg) const {
  msg->opcode = apiary::kOpEcho;
  FillPattern(id, static_cast<uint32_t>(arg), &msg->payload);
}

bool EchoClient::Check(uint64_t id, uint64_t arg, const Message& response) const {
  if (response.payload.size() != arg) {
    return false;
  }
  for (uint32_t i = 0; i < arg; ++i) {
    if (response.payload[i] != PatternByte(id, i)) {
      return false;
    }
  }
  return true;
}

uint64_t StreamClient::NextArg(apiary::Rng& rng) {
  (void)rng;
  return 0;
}

void StreamClient::Build(uint64_t id, uint64_t arg, Message* msg) const {
  (void)arg;
  msg->opcode = apiary::kOpEcho;
  FillPattern(id, payload_bytes_, &msg->payload);
}

bool StreamClient::Check(uint64_t id, uint64_t arg, const Message& response) const {
  (void)arg;
  return response.payload.size() == 4 &&
         apiary::GetU32(response.payload, 0) == PatternFnv(id, payload_bytes_);
}

uint64_t KvBoardClient::NextArg(apiary::Rng& rng) {
  const uint64_t key = zipf_->Next(rng);
  return rng.NextBool(put_fraction_) ? key | kPutBit : key;
}

void KvBoardClient::Build(uint64_t id, uint64_t arg, Message* msg) const {
  (void)id;
  msg->opcode = (arg & kPutBit) != 0 ? apiary::kOpKvPut : apiary::kOpKvGet;
  BuildKvPayload(*table_, arg, &msg->payload);
}

bool KvBoardClient::Check(uint64_t id, uint64_t arg, const Message& response) const {
  (void)id;
  return CheckKvReply(*table_, arg, response.payload.data(), response.payload.size());
}

void ChecksumSink::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  backlog_.push_back(Pending{msg, Fnv32(msg.payload.data(), msg.payload.size())});
  Tick(api);
}

void ChecksumSink::Tick(TileApi& api) {
  while (!backlog_.empty()) {
    Message reply;
    reply.opcode = backlog_.front().request.opcode;
    apiary::PutU32(reply.payload, backlog_.front().checksum);
    if (!api.Reply(backlog_.front().request, std::move(reply)).ok()) {
      return;  // Backpressure: retry next cycle, in order.
    }
    backlog_.pop_front();
  }
}

NetKvClient::NetKvClient(Config config, apiary::ExternalNetwork* net, const KvTable* table,
                         const Zipf* zipf, uint32_t index, uint64_t seed, Tracer* tracer)
    : config_(config),
      net_(net),
      table_(table),
      zipf_(zipf),
      index_(index),
      tracer_(tracer),
      rng_(seed),
      ring_(kRing) {
  endpoint_ = net_->RegisterEndpoint(this);
  next_due_ = config_.start +
              static_cast<Cycle>(rng_.NextExponential(1000.0 / config_.requests_per_kcycle));
}

void NetKvClient::SendOne(Cycle due, Cycle now) {
  const uint64_t seq = ++seq_;
  const uint64_t id = RequestId(index_, seq);
  const uint64_t key = zipf_->Next(rng_);
  const uint64_t arg = rng_.NextBool(config_.read_fraction) ? key : key | kPutBit;
  Outstanding& slot = ring_[seq % kRing];
  if (slot.id != 0) {
    ++ledger.check_failures;  // Ring overrun: the board fell far behind.
    Retire(slot);
  }
  slot = Outstanding{id, arg, due, ledger.InWindow(due)};
  window_in_flight_ += slot.in_window ? 1 : 0;

  // Frame to the board: u32 dst_service | u64 client_id | u16 opcode | payload.
  apiary::PayloadBuf body;
  BuildKvPayload(*table_, arg, &body);
  const uint16_t opcode = (arg & kPutBit) != 0 ? apiary::kOpKvPut : apiary::kOpKvGet;
  apiary::EthFrame frame;
  frame.src_endpoint = endpoint_;
  frame.dst_endpoint = config_.server_endpoint;
  frame.payload.reserve(14 + body.size());
  apiary::PutU32(frame.payload, config_.gateway_service);
  apiary::PutU64(frame.payload, id);
  frame.payload.push_back(static_cast<uint8_t>(opcode));
  frame.payload.push_back(static_cast<uint8_t>(opcode >> 8));
  frame.payload.insert(frame.payload.end(), body.begin(), body.end());
  net_->Send(std::move(frame), now);
  ledger.Accepted(due);
  if (tracer_ != nullptr) {
    tracer_->ClientSend(id, index_, due);
  }
}

void NetKvClient::Tick(Cycle now) {
  while (next_due_ <= now && next_due_ < ledger.window_stop) {
    SendOne(next_due_, now);
    next_due_ += static_cast<Cycle>(rng_.NextExponential(1000.0 / config_.requests_per_kcycle)) + 1;
  }
}

Cycle NetKvClient::NextActivity(Cycle now) const {
  if (next_due_ >= ledger.window_stop) {
    return apiary::kNoActivity;
  }
  return next_due_ > now ? next_due_ : now;
}

void NetKvClient::OnFrame(apiary::EthFrame frame, Cycle now) {
  // Frame from the board: u64 client_id | u8 status | payload.
  if (frame.payload.size() < 9) {
    ++ledger.check_failures;
    return;
  }
  const uint64_t id = apiary::GetU64(frame.payload, 0);
  Outstanding& slot = ring_[(id & ((1ull << 40) - 1)) % kRing];
  if (slot.id != id || id == 0) {
    ++ledger.check_failures;
    return;
  }
  const bool ok = frame.payload[8] == static_cast<uint8_t>(MsgStatus::kOk);
  const bool contents_ok =
      !ok || CheckKvReply(*table_, slot.arg, frame.payload.data() + 9, frame.payload.size() - 9);
  ledger.Completed(slot.due, now, ok, contents_ok);
  if (tracer_ != nullptr) {
    tracer_->ClientRecv(id, now);
  }
  Retire(slot);
}

void NetKvClient::Retire(Outstanding& slot) {
  window_in_flight_ -= slot.in_window ? 1 : 0;
  slot.id = 0;
}

}  // namespace perfbench
