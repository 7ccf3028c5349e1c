// Simulated client hosts driving request/response workloads over the
// external network against a board's NetGateway protocol (or a hosted
// baseline system, which speaks the same frame format).
//
// Frame to board:    u32 dst_service | u64 client_id | u16 opcode | payload
// Frame from board:  u64 client_id | u8 status | payload
//
// Two arrival disciplines: open-loop Poisson (offered load in requests per
// kilocycle) and closed-loop (fixed concurrency window).
#ifndef SRC_WORKLOAD_CLIENT_H_
#define SRC_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/fpga/ethernet.h"
#include "src/sim/payload_buf.h"
#include "src/services/transport.h"
#include "src/sim/random.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

struct ClientRequest {
  uint16_t opcode = 0;
  PayloadBuf payload;
};

struct ClientConfig {
  // Destination on the external fabric (the board MAC or hosted system).
  uint32_t server_endpoint = 0;
  // Logical service id written into the frame header (the gateway's id).
  // Hosted baselines ignore it but the bytes are still carried.
  uint32_t dst_service = 0;
  bool open_loop = true;
  // Open loop: mean offered load, requests per 1000 cycles.
  double requests_per_1k_cycles = 1.0;
  // Closed loop: outstanding-request window.
  uint32_t concurrency = 1;
  // Stop issuing after this many requests (0 = unlimited).
  uint64_t max_requests = 0;
  // A request unanswered for this long is declared lost and (in closed-loop
  // mode) re-issued — covering startup frames dropped before link-up.
  Cycle retry_timeout_cycles = 20000;
  // Speak the reliable ARQ transport (must match the server's network
  // service). Application-level retry should then be disabled or slow.
  bool reliable = false;
  TransportConfig transport;
  uint64_t seed = 1;
};

class ClientHost : public Clocked, public ExternalEndpoint {
 public:
  using RequestFactory = std::function<ClientRequest(uint64_t index, Rng& rng)>;

  ClientHost(ClientConfig config, ExternalNetwork* network, RequestFactory factory);

  void OnFrame(EthFrame frame, Cycle now) override;
  void Tick(Cycle now) override;
  // Quiescent between the open-loop arrival clock, closed-loop window
  // openings, and per-request retry timers; reliable mode stays active so
  // the ARQ transport's internal timers keep their cycle-exact cadence.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "client"; }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }
  uint64_t errors() const { return errors_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t outstanding() const { return outstanding_.size(); }
  const Histogram& latency() const { return latency_; }

  // Last successful response payload (for functional checks in examples).
  const std::vector<uint8_t>& last_response() const { return last_response_; }

 private:
  struct Outstanding {
    Cycle issued;        // Last transmission (drives the retry timer).
    Cycle first_issued;  // Original submission (drives latency accounting).
    uint16_t opcode;
    PayloadBuf payload;
  };

  void SendOne(Cycle now);
  void Transmit(uint64_t id, uint16_t opcode, const PayloadBuf& payload, Cycle now);
  // NOLINTNEXTLINE(apiary-hot-path): external-fabric frame bytes, not a NoC message payload
  void HandleResponsePayload(const std::vector<uint8_t>& payload, Cycle now);
  bool DoneIssuing() const {
    return config_.max_requests != 0 && issued_ >= config_.max_requests;
  }

  ClientConfig config_;
  ExternalNetwork* network_;
  RequestFactory factory_;
  ReliableTransport transport_;
  Rng rng_;
  uint32_t my_endpoint_ = 0;
  Cycle next_send_at_ = 0;
  uint64_t next_id_ = 1;
  uint64_t issued_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  uint64_t errors_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t stray_responses_ = 0;
  std::map<uint64_t, Outstanding> outstanding_;
  Histogram latency_;
  std::vector<uint8_t> last_response_;
};

}  // namespace apiary

#endif  // SRC_WORKLOAD_CLIENT_H_
