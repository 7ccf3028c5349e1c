// Outside-in tracing for the traced run.
//
// Host time: a wrapper Accelerator around every deployed accelerator and
// service times OnBoot/Tick/OnMessage, and a proxy TileApi handed to the
// inner accelerator times Send/Reply/LookupService into the monitor. A
// layer's self time is its span minus the nested spans; the fabric (the
// scheduler, tile/monitor cycle work, mesh and devices) is whatever of
// Simulator::Run's wall time no span covers.
//
// Request spans: bench-owned clients and the wrapped services report the
// simulated cycle of client send, service receive, service reply and client
// receive, keyed by the request id, so each request's cycles split into
// to_service / service / to_client.
//
// Nothing here feeds back into simulated state: the traced run must produce
// the same simulated outputs as an untraced one, which the harness checks.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/accelerator.h"

namespace perfbench {

using apiary::Cycle;

// Host-time layers a wrapped call is charged to.
enum class Layer : uint8_t {
  kAccel = 0,     // src/accel logic (echo, KV store).
  kServices = 1,  // src/services logic (memory, network, gateway).
  kLoad = 2,      // Bench-owned on-board clients and sinks.
  kApi = 3,       // TileApi calls into the monitor (src/core).
};
inline constexpr int kNumLayers = 4;

// Nested span accounting with caller-supplied timestamps, so the arithmetic
// is checkable without a clock. Each End charges the span's duration minus
// its children's to the span's layer as self time.
class SpanStack {
 public:
  void Begin(Layer layer, uint64_t now_ns) { stack_.push_back(Open{layer, now_ns, 0}); }
  void End(uint64_t now_ns) {
    const Open open = stack_.back();
    stack_.pop_back();
    const uint64_t total = now_ns - open.start_ns;
    self_ns_[static_cast<int>(open.layer)] += total - open.child_ns;
    ++calls_[static_cast<int>(open.layer)];
    if (!stack_.empty()) {
      stack_.back().child_ns += total;
    }
  }
  uint64_t self_ns(Layer layer) const { return self_ns_[static_cast<int>(layer)]; }
  uint64_t calls(Layer layer) const { return calls_[static_cast<int>(layer)]; }
  // Time covered by any span: the sum of all self times.
  uint64_t covered_ns() const;
  void Reset() {
    self_ns_ = {};
    calls_ = {};
  }

 private:
  struct Open {
    Layer layer;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  std::vector<Open> stack_;
  std::array<uint64_t, kNumLayers> self_ns_{};
  std::array<uint64_t, kNumLayers> calls_{};
};

// One sampled request, in simulated cycles.
struct RequestSpan {
  uint64_t id = 0;
  uint32_t client = 0;
  Cycle client_send = 0;
  Cycle service_recv = 0;
  Cycle service_reply = 0;
  Cycle client_recv = 0;
};

class Tracer {
 public:
  // --- Host-time spans (wrapper and proxy). ---
  static uint64_t NowNs();
  SpanStack& spans() { return spans_; }
  const SpanStack& spans() const { return spans_; }
  uint64_t messages(Layer layer) const { return messages_[static_cast<int>(layer)]; }
  void CountMessage(Layer layer) { ++messages_[static_cast<int>(layer)]; }
  // Send + Reply calls made through the proxy API.
  uint64_t send_calls() const { return send_calls_; }
  void CountSendCall() { ++send_calls_; }

  // --- Request spans (simulated cycles). ---
  void ClientSend(uint64_t id, uint32_t client, Cycle cycle);
  void ClientRecv(uint64_t id, Cycle cycle);
  // `raw_id` is the request id the service saw; ids forwarded by a gateway
  // are mapped back to the client's id.
  void ServiceRecv(uint64_t raw_id, Cycle cycle);
  void ServiceReply(uint64_t raw_id, Cycle cycle);
  void MapForward(uint64_t forwarded_id, uint64_t client_id) {
    forwarded_[forwarded_id] = client_id;
  }

  // Only requests sent at or after `start` are aggregated; accumulators
  // restart so every reported figure covers the measured window.
  void StartWindow(Cycle start);

  const std::vector<uint64_t>& to_service() const { return to_service_; }
  const std::vector<uint64_t>& service() const { return service_; }
  const std::vector<uint64_t>& to_client() const { return to_client_; }
  const std::vector<RequestSpan>& sampled() const { return sampled_; }

  // Writes the sampled spans as Chrome trace-event JSON (Perfetto and
  // chrome://tracing open it offline). Returns false if the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path, const std::string& process_name,
                        double cycles_per_us) const;

 private:
  uint64_t Resolve(uint64_t raw_id) const {
    auto it = forwarded_.find(raw_id);
    return it == forwarded_.end() ? raw_id : it->second;
  }

  static constexpr size_t kSampleEvery = 64;
  static constexpr size_t kMaxSampled = 4096;

  SpanStack spans_;
  std::array<uint64_t, kNumLayers> messages_{};
  uint64_t send_calls_ = 0;
  Cycle window_start_ = 0;
  uint64_t completed_ = 0;
  std::unordered_map<uint64_t, RequestSpan> open_;
  std::unordered_map<uint64_t, uint64_t> forwarded_;
  std::vector<uint64_t> to_service_;
  std::vector<uint64_t> service_;
  std::vector<uint64_t> to_client_;
  std::vector<RequestSpan> sampled_;
};

// How a wrapped accelerator takes part in request spans.
enum class SpanRole : uint8_t {
  kNone = 0,
  kService = 1,  // Serves client requests: receive and reply are recorded.
  kGateway = 2,  // Forwards network requests under new ids: the mapping is recorded.
};

// The proxy TileApi the wrapper hands its inner accelerator.
class TracedApi : public apiary::TileApi {
 public:
  TracedApi(Tracer* tracer, SpanRole role) : tracer_(tracer), role_(role) {}

  void Bind(apiary::TileApi* inner) { inner_ = inner; }
  void SetForwardSource(uint64_t client_id) { forward_source_ = client_id; }

  apiary::SendResult Send(apiary::Message msg, apiary::CapRef endpoint, apiary::CapRef mem,
                          apiary::CapRef mem2) override;
  apiary::SendResult Reply(const apiary::Message& request, apiary::Message response,
                           apiary::CapRef mem) override;
  std::optional<apiary::Message> Receive() override { return inner_->Receive(); }
  apiary::CapRef LookupService(apiary::ServiceId service) override;
  Cycle now() const override { return inner_->now(); }
  apiary::TileId tile() const override { return inner_->tile(); }
  apiary::AppId app() const override { return inner_->app(); }
  apiary::ServiceId service() const override { return inner_->service(); }
  void RaiseFault(const std::string& reason) override { inner_->RaiseFault(reason); }

 private:
  Tracer* tracer_;
  SpanRole role_;
  apiary::TileApi* inner_ = nullptr;
  uint64_t forward_source_ = 0;
};

// Times every entry point of `inner` and forwards every query unchanged, so
// scheduling and simulated behaviour are exactly those of the bare inner.
class TracedAccelerator : public apiary::Accelerator {
 public:
  TracedAccelerator(std::unique_ptr<apiary::Accelerator> inner, Layer layer, SpanRole role,
                    Tracer* tracer)
      : inner_(std::move(inner)), layer_(layer), role_(role), tracer_(tracer), api_(tracer, role) {}

  void OnBoot(apiary::TileApi& api) override;
  void OnMessage(const apiary::Message& msg, apiary::TileApi& api) override;
  void Tick(apiary::TileApi& api) override;
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return inner_->NextActivity(now); }
  void OnFastForward(Cycle resume_cycle) override { inner_->OnFastForward(resume_cycle); }
  [[nodiscard]] apiary::Clocked::SchedPolicy SchedulingPolicy() const override {
    return inner_->SchedulingPolicy();
  }
  std::string name() const override { return inner_->name(); }
  uint32_t LogicCellCost() const override { return inner_->LogicCellCost(); }
  bool IsPreemptible() const override { return inner_->IsPreemptible(); }
  std::vector<uint8_t> SaveState() override { return inner_->SaveState(); }
  void RestoreState(std::span<const uint8_t> state) override { inner_->RestoreState(state); }

 private:
  std::unique_ptr<apiary::Accelerator> inner_;
  Layer layer_;
  SpanRole role_;
  Tracer* tracer_;
  TracedApi api_;
};

// Wraps `inner` when tracing, or returns it untouched.
std::unique_ptr<apiary::Accelerator> MaybeTrace(std::unique_ptr<apiary::Accelerator> inner,
                                                Layer layer, SpanRole role, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
