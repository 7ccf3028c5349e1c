// Ethernet MAC models and the external (datacenter) network fabric.
//
// The paper's portability complaint (Section 2): "the interface and reset
// process for Xilinx's 10 Gbit Ethernet IP core and 100 Gbit Ethernet IP
// core are different, so additional infrastructure is needed to support both".
// We reproduce that situation deliberately: EthMac10G and EthMac100G have
// different initialization handshakes and differently-shaped TX/RX APIs.
// The Apiary network service hides both behind one portable interface.
#ifndef SRC_FPGA_ETHERNET_H_
#define SRC_FPGA_ETHERNET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/clocked.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/stats/summary.h"

namespace apiary {

struct EthFrame {
  uint32_t src_endpoint = 0;
  uint32_t dst_endpoint = 0;
  std::vector<uint8_t> payload;
  Cycle sent_cycle = 0;
};

// Anything that can terminate frames on the external fabric: a board MAC or
// a simulated client host.
class ExternalEndpoint {
 public:
  virtual ~ExternalEndpoint() = default;
  virtual void OnFrame(EthFrame frame, Cycle now) = 0;
};

// Datacenter fabric between endpoints: fixed propagation latency, unlimited
// aggregate bandwidth (per-port bandwidth is enforced by the MACs).
// Optionally lossy, for exercising the reliable transport layer.
class ExternalNetwork : public Clocked {
 public:
  explicit ExternalNetwork(Cycle latency_cycles) : latency_cycles_(latency_cycles) {}

  // Drops each frame independently with probability `rate` (deterministic
  // for a given seed).
  void SetLossRate(double rate, uint64_t seed = 99);

  // Fault injection: until `now + duration`, additionally drops frames with
  // probability `rate` — a transient uplink brown-out (flapping optics,
  // congested ToR). Deterministic for a given seed.
  void StartLossBurst(Cycle now, Cycle duration, double rate, uint64_t seed);
  bool InLossBurst(Cycle now) const { return now < burst_until_; }

  // Registers an endpoint and returns its address.
  uint32_t RegisterEndpoint(ExternalEndpoint* endpoint);

  // Sends a frame; it is delivered to frame.dst_endpoint after the fabric
  // latency. Unknown destinations are dropped (counted).
  void Send(EthFrame frame, Cycle now);

  void Tick(Cycle now) override;
  // In-flight frames sit in deliver-time order (constant latency), so the
  // fabric sleeps until the front frame's delivery cycle.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (in_flight_.empty()) {
      return kNoActivity;
    }
    return in_flight_.front().deliver_at > now ? in_flight_.front().deliver_at : now;
  }
  std::string DebugName() const override { return "extnet"; }

  const CounterSet& counters() const { return counters_; }
  Cycle latency_cycles() const { return latency_cycles_; }

 private:
  struct InFlight {
    Cycle deliver_at;
    EthFrame frame;
  };

  Cycle latency_cycles_;
  double loss_rate_ = 0.0;
  std::unique_ptr<Rng> loss_rng_;
  Cycle burst_until_ = 0;
  double burst_rate_ = 0.0;
  std::unique_ptr<Rng> burst_rng_;
  std::vector<ExternalEndpoint*> endpoints_;
  std::deque<InFlight> in_flight_;
  CounterSet counters_;
};

// Common MAC internals: TX serialization at line rate, RX queue.
class EthernetMacBase : public Clocked, public ExternalEndpoint {
 public:
  EthernetMacBase(double link_gbps, double clock_mhz);

  // ExternalEndpoint: frame arriving from the fabric.
  void OnFrame(EthFrame frame, Cycle now) override;

  void AttachNetwork(ExternalNetwork* network, uint32_t my_address) {
    network_ = network;
    address_ = my_address;
  }

  void Tick(Cycle now) override;
  // TX is the MAC's only tick-driven work: sleep until the in-flight frame
  // finishes serializing, stay awake while queued frames can launch. A
  // queued frame behind a down link makes no progress cycle-to-cycle, and
  // RX is entirely caller-driven. Every TX enqueue wakes the MAC, and so
  // does every link-up flip, including those inside the const bring-up
  // polls (RxBlockLock, RxAligned).
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (tx_in_flight_) {
      return tx_busy_until_ > now ? tx_busy_until_ : now;
    }
    if (!tx_queue_.empty() && link_up()) {
      return now;
    }
    return kNoActivity;
  }
  std::string DebugName() const override { return "eth_mac"; }

  // Wake channel for the consumer of received frames (the tile hosting the
  // network service): fired whenever a frame lands in the RX FIFO, the same
  // way an NI's sink wake fires on packet delivery.
  void SetRxWake(WakeHint hint) { rx_wake_ = hint; }

  uint32_t address() const { return address_; }
  double link_gbps() const { return link_gbps_; }
  const CounterSet& counters() const { return counters_; }
  virtual uint32_t LogicCellCost() const = 0;
  // Link state as the last bring-up poll left it. Never polls, so it is
  // safe inside a NextActivity declaration (the polls flip state and wake
  // the MAC, which a declaration must not do).
  virtual bool link_up() const = 0;

 protected:
  bool QueueTx(EthFrame frame);
  bool RxAvailable() const { return !rx_queue_.empty(); }
  EthFrame PopRx();

  CounterSet counters_;

 private:
  Cycle SerializationCycles(size_t bytes) const;

  double link_gbps_;
  double bytes_per_cycle_;
  ExternalNetwork* network_ = nullptr;
  uint32_t address_ = 0;
  std::deque<EthFrame> tx_queue_;
  Cycle tx_busy_until_ = 0;
  bool tx_in_flight_ = false;
  EthFrame tx_current_;
  std::deque<EthFrame> rx_queue_;
  WakeHint rx_wake_;
};

// "Xilinx 10G-style" MAC: must go through an explicit two-step reset
// handshake before the link comes up; frame-at-a-time 64-bit-word API.
class EthMac10G : public EthernetMacBase {
 public:
  explicit EthMac10G(double clock_mhz) : EthernetMacBase(10.0, clock_mhz) {}

  // Step 1: assert the core reset.
  void AssertCoreReset();
  // Step 2: release it; the core locks after kLockCycles.
  void ReleaseCoreReset(Cycle now);
  bool RxBlockLock(Cycle now) const;
  bool link_up() const override { return locked_; }

  // TX/RX in this core's idiom.
  bool TxFrame(EthFrame frame, Cycle now);
  bool RxFrameValid() const { return RxAvailable(); }
  EthFrame RxFrame() { return PopRx(); }

  uint32_t LogicCellCost() const override { return 9000; }
  std::string DebugName() const override { return "eth10g"; }

 private:
  static constexpr Cycle kLockCycles = 500;

  bool reset_asserted_ = false;
  bool released_ = false;
  mutable bool locked_ = false;
  Cycle release_cycle_ = 0;
};

// "Xilinx 100G CMAC-style" MAC: different bring-up (init + wait for RX
// alignment), requires flow-control enable before TX, and a differently
// named queue API.
class EthMac100G : public EthernetMacBase {
 public:
  explicit EthMac100G(double clock_mhz) : EthernetMacBase(100.0, clock_mhz) {}

  void InitCmac(Cycle now);
  bool RxAligned(Cycle now) const;
  bool link_up() const override { return aligned_ && flow_control_enabled_; }
  void EnableTxFlowControl() {
    flow_control_enabled_ = true;
    RequestWake();  // The link may have just come up.
  }

  bool EnqueueTxSegment(EthFrame frame, Cycle now);
  bool HasRxSegment() const { return RxAvailable(); }
  EthFrame DequeueRxSegment() { return PopRx(); }

  uint32_t LogicCellCost() const override { return 55000; }
  std::string DebugName() const override { return "eth100g"; }

 private:
  static constexpr Cycle kAlignCycles = 2000;

  bool init_done_ = false;
  mutable bool aligned_ = false;
  bool flow_control_enabled_ = false;
  Cycle init_cycle_ = 0;
};

}  // namespace apiary

#endif  // SRC_FPGA_ETHERNET_H_
