// Coyote-style host-mediated baseline (Section 5).
//
// "Earlier efforts to build FPGA operating systems, such as Coyote and
// AmorphOS, delegate key operating system functions ... to an attached
// server CPU." In this model a client request traverses:
//
//   client -> NIC -> host CPU (net stack + permissions + forwarding)
//          -> PCIe -> FPGA accelerator -> PCIe -> host CPU -> NIC -> client
//
// versus Apiary's direct path (client -> MAC -> NoC -> accelerator). The
// model charges realistic CPU software time, PCIe crossings, and one host
// CPU core (the source of tail-latency collapse under load).
#ifndef SRC_BASELINE_HOSTED_H_
#define SRC_BASELINE_HOSTED_H_

#include <deque>
#include <vector>

#include "src/fpga/ethernet.h"
#include "src/fpga/pcie.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

// Host software time per request on the ingress path: NIC interrupt/poll,
// kernel network stack, permission check, DMA descriptor setup. ~2 us.
inline constexpr Cycle kHostCpuIngressCycles = 500;
// Egress path: completion handling + reply transmission. ~1.5 us.
inline constexpr Cycle kHostCpuEgressCycles = 375;
// Requests the host accepts before dropping at ingress.
inline constexpr uint32_t kHostMaxQueueDepth = 4096;

struct HostedConfig {
  // FPGA-side service time per request (the accelerator itself).
  Cycle accel_cycles = 200;
};

class HostedSystem : public Clocked, public ExternalEndpoint {
 public:
  HostedSystem(HostedConfig config, Simulator& sim, ExternalNetwork* network);

  void OnFrame(EthFrame frame, Cycle now) override;
  void Tick(Cycle now) override;
  std::string DebugName() const override { return "hosted"; }

  uint64_t completed() const { return completed_; }
  uint64_t dropped() const { return dropped_; }
  // Total cycles the host CPU core spent busy (for the energy proxy).
  uint64_t cpu_busy_cycles() const { return cpu_busy_cycles_; }
  uint64_t pcie_bytes() const { return pcie_to_fpga_.counters().Get("pcie.bytes") +
                                       pcie_from_fpga_.counters().Get("pcie.bytes"); }
  const CounterSet& counters() const { return counters_; }

 private:
  struct Job {
    EthFrame request;
    std::vector<uint8_t> reply_payload;
  };
  struct PendingReply {
    Cycle ready_at;
    Job job;
  };

  HostedConfig config_;
  ExternalNetwork* network_;
  PcieEndpoint pcie_to_fpga_;
  PcieEndpoint pcie_from_fpga_;

  std::deque<Job> cpu_ingress_;
  std::deque<Job> fpga_queue_;
  std::deque<Job> cpu_egress_;
  std::deque<PendingReply> pending_to_pcie_;
  std::deque<PendingReply> pending_replies_;
  Cycle cpu_free_at_ = 0;
  uint32_t address_ = 0;
  Cycle fpga_free_at_ = 0;
  bool fpga_busy_ = false;
  Job fpga_current_;

  uint64_t completed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t cpu_busy_cycles_ = 0;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_BASELINE_HOSTED_H_
