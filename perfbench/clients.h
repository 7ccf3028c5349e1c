// Bench-owned request endpoints: the load generators and the checks on what
// comes back. Every request id is unique across clients, so spans and
// outstanding requests are keyed by it alone.
#ifndef PERFBENCH_CLIENTS_H_
#define PERFBENCH_CLIENTS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/core/accelerator.h"
#include "src/fpga/ethernet.h"
#include "src/sim/random.h"

namespace perfbench {

using apiary::Cycle;

// What one client saw of the requests it issued, in simulated cycles.
struct Ledger {
  // The measured window; empty until the harness opens it after warmup.
  Cycle window_start = ~Cycle{0};
  Cycle window_stop = ~Cycle{0};  // No request is issued at or after this cycle.

  uint64_t attempted = 0;       // Issued in the window and accepted into the board.
  uint64_t ok_in_window = 0;    // OK responses received inside the window.
  uint64_t errors = 0;          // Error-status responses to window requests.
  uint64_t check_failures = 0;  // Responses whose contents were wrong, or strays.
  uint64_t local_refusals = 0;  // Sends the monitor refused (retried), in the window.
  std::vector<uint64_t> latencies;  // Issue -> response, OK window requests.

  bool InWindow(Cycle c) const { return c >= window_start && c < window_stop; }
  void Accepted(Cycle issued) {
    if (InWindow(issued)) {
      ++attempted;
    }
  }
  void Completed(Cycle issued, Cycle received, bool ok, bool contents_ok);
};

// A request endpoint the harness reads after the run.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  // Requests issued in the window that have not been answered yet.
  virtual uint64_t unanswered() const = 0;
  Ledger ledger;
};

// The canonical preloaded keyspace: keys and values as src/workload derives
// them, materialized once so generating and checking a request is a lookup.
struct KvTable {
  KvTable(uint64_t keys, uint32_t value_bytes);
  uint32_t value_bytes;
  std::vector<std::string> keys;
  std::vector<std::vector<uint8_t>> values;
};

// YCSB's Zipf generator (Gray et al.) with its normalization computed once.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(apiary::Rng& rng) const;

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

uint32_t Fnv32(const uint8_t* data, size_t size);

// Closed-loop on-board client: keeps `window` requests outstanding, retries
// a refused send every cycle (the wait counts toward the request's
// latency), and stops issuing at the window's end.
class BoardClient : public apiary::Accelerator, public RequestSource {
 public:
  BoardClient(apiary::ServiceId target, uint32_t window, uint32_t index, uint64_t seed,
              Tracer* tracer);

  void OnBoot(apiary::TileApi& api) override;
  void Tick(apiary::TileApi& api) override;
  void OnMessage(const apiary::Message& msg, apiary::TileApi& api) override;
  // APIARY-WAKE(tile): responses arrive through the owning tile.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  uint32_t LogicCellCost() const override { return 1000; }
  uint64_t unanswered() const override;

 protected:
  // Draws the next request's parameters; Build and Check see them again.
  virtual uint64_t NextArg(apiary::Rng& rng) = 0;
  virtual void Build(uint64_t id, uint64_t arg, apiary::Message* msg) const = 0;
  virtual bool Check(uint64_t id, uint64_t arg, const apiary::Message& response) const = 0;

 private:
  struct Slot {
    uint64_t id = 0;
    uint64_t arg = 0;
    Cycle issued = 0;
    bool busy = false;
  };

  apiary::ServiceId target_;
  apiary::CapRef cap_ = apiary::kInvalidCapRef;
  uint32_t index_;
  Tracer* tracer_;
  apiary::Rng rng_;
  std::vector<Slot> slots_;
  uint32_t busy_ = 0;
  uint64_t seq_ = 0;
  Slot pending_;  // Built but not yet accepted (refused sends retry it).
};

// Echo traffic: each request draws its size from [min_bytes, max_bytes] and
// carries a per-id byte pattern the reply must return unchanged.
class EchoClient : public BoardClient {
 public:
  EchoClient(apiary::ServiceId target, uint32_t window, uint32_t min_bytes, uint32_t max_bytes,
             uint32_t index, uint64_t seed, Tracer* tracer)
      : BoardClient(target, window, index, seed, tracer),
        min_bytes_(min_bytes),
        max_bytes_(max_bytes) {}
  std::string name() const override { return "perfbench_echo_client"; }

 protected:
  uint64_t NextArg(apiary::Rng& rng) override;
  void Build(uint64_t id, uint64_t arg, apiary::Message* msg) const override;
  bool Check(uint64_t id, uint64_t arg, const apiary::Message& response) const override;

 private:
  uint32_t min_bytes_;
  uint32_t max_bytes_;
};

// Large-message stream to a ChecksumSink; the reply must carry the FNV-1a
// of what was sent.
class StreamClient : public BoardClient {
 public:
  StreamClient(apiary::ServiceId target, uint32_t window, uint32_t payload_bytes, uint32_t index,
               uint64_t seed, Tracer* tracer)
      : BoardClient(target, window, index, seed, tracer), payload_bytes_(payload_bytes) {}
  std::string name() const override { return "perfbench_stream_client"; }

 protected:
  uint64_t NextArg(apiary::Rng& rng) override;
  void Build(uint64_t id, uint64_t arg, apiary::Message* msg) const override;
  bool Check(uint64_t id, uint64_t arg, const apiary::Message& response) const override;

 private:
  uint32_t payload_bytes_;
};

// On-board KV client: Zipf keys over a preloaded table; GETs must return the
// table's value, PUTs rewrite it (so reads stay checkable) and must ack OK.
class KvBoardClient : public BoardClient {
 public:
  KvBoardClient(apiary::ServiceId target, uint32_t window, const KvTable* table, const Zipf* zipf,
                double put_fraction, uint32_t index, uint64_t seed, Tracer* tracer)
      : BoardClient(target, window, index, seed, tracer),
        table_(table),
        zipf_(zipf),
        put_fraction_(put_fraction) {}
  std::string name() const override { return "perfbench_kv_client"; }

 protected:
  uint64_t NextArg(apiary::Rng& rng) override;
  void Build(uint64_t id, uint64_t arg, apiary::Message* msg) const override;
  bool Check(uint64_t id, uint64_t arg, const apiary::Message& response) const override;

 private:
  const KvTable* table_;
  const Zipf* zipf_;
  double put_fraction_;
};

// Replies to every request with the u32 FNV-1a of its payload.
class ChecksumSink : public apiary::Accelerator {
 public:
  void OnMessage(const apiary::Message& msg, apiary::TileApi& api) override;
  void Tick(apiary::TileApi& api) override;
  // APIARY-WAKE(tile): requests arrive through the owning tile.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return backlog_.empty() ? apiary::kNoActivity : now;
  }
  std::string name() const override { return "perfbench_checksum_sink"; }
  uint32_t LogicCellCost() const override { return 2000; }

 private:
  struct Pending {
    apiary::Message request;
    uint32_t checksum;
  };
  std::deque<Pending> backlog_;  // Replies refused by backpressure, in order.
};

// Open-loop Poisson KV client on the external network, speaking the
// NetGateway frame format. Latency is timed from each request's due cycle.
class NetKvClient : public apiary::Clocked, public apiary::ExternalEndpoint, public RequestSource {
 public:
  struct Config {
    uint32_t server_endpoint = 0;  // The board MAC.
    uint32_t gateway_service = 0;
    double requests_per_kcycle = 1.0;
    Cycle start = 0;
    double read_fraction = 0.95;
  };
  NetKvClient(Config config, apiary::ExternalNetwork* net, const KvTable* table, const Zipf* zipf,
              uint32_t index, uint64_t seed, Tracer* tracer);

  void OnFrame(apiary::EthFrame frame, Cycle now) override;
  void Tick(Cycle now) override;
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "perfbench_net_client"; }
  uint64_t unanswered() const override { return window_in_flight_; }

 private:
  struct Outstanding {
    uint64_t id = 0;
    uint64_t arg = 0;
    Cycle due = 0;
    bool in_window = false;  // Counted in window_in_flight_.
  };
  static constexpr uint64_t kRing = 1 << 14;  // Bound on requests in flight.

  void SendOne(Cycle due, Cycle now);
  void Retire(Outstanding& slot);

  Config config_;
  apiary::ExternalNetwork* net_;
  const KvTable* table_;
  const Zipf* zipf_;
  uint32_t index_;
  Tracer* tracer_;
  apiary::Rng rng_;
  uint32_t endpoint_ = 0;
  Cycle next_due_ = 0;
  uint64_t seq_ = 0;
  uint64_t window_in_flight_ = 0;  // In flight and issued in the window.
  std::vector<Outstanding> ring_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENTS_H_
