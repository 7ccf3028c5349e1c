// Elastic orchestration walkthrough — the paper's Section 1 promise that
// "each module may be independently scaled up or down to match demand",
// closed into a control loop.
//
// A checksum service starts as ONE replica behind the load balancer. Demand
// ramps from a trickle to a surge and back. The orchestration stack reacts:
//   * the load balancer measures (queue depth, windowed tail latency),
//   * the autoscaler decides (SLO-latency policy with hysteresis),
//   * the placer picks a region (near the balancer, apart from siblings),
//   * the reconfiguration scheduler executes through the single ICAP,
//   * the kernel re-grants capabilities so the balancer's authority over
//     each new replica is explicit, and revoked again on teardown.
// The demo prints the replica count as the load changes, then the scaling
// ledger at the end.
#include <cstdio>
#include <memory>

#include "src/accel/checksum.h"
#include "src/core/kernel.h"
#include "src/fpga/board.h"
#include "src/orch/autoscaler.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/sim/simulator.h"

using namespace apiary;

namespace {

// Open-loop demand: one 1 KiB checksum request every `period` cycles.
class DemandSource : public Accelerator {
 public:
  explicit DemandSource(ServiceId lb_svc) : lb_svc_(lb_svc) {}
  void Tick(TileApi& api) override {
    if (period == 0 || api.now() % period != 0) {
      return;
    }
    Message msg;
    msg.opcode = kOpChecksum;
    msg.payload.assign(1024, static_cast<uint8_t>(sent));
    msg.request_id = ++sent;
    api.Send(std::move(msg), api.LookupService(lb_svc_));
  }
  void OnMessage(const Message& msg, TileApi&) override {
    if (msg.kind == MsgKind::kResponse && msg.status == MsgStatus::kOk) {
      ++ok;
    }
  }
  std::string name() const override { return "demand_source"; }
  uint32_t LogicCellCost() const override { return 1000; }

  Cycle period = 0;  // 0 = idle.
  uint64_t sent = 0;
  uint64_t ok = 0;

 private:
  ServiceId lb_svc_;
};

}  // namespace

int main() {
  Simulator sim(250.0);
  BoardConfig cfg;
  cfg.part_number = "VU9P";
  cfg.mesh = MeshConfig{4, 4, 8, 512};
  cfg.dram.capacity_bytes = 64ull << 20;
  cfg.mac_kind = MacKind::kNone;
  cfg.partial_reconfig_cycles = 20'000;  // Shortened PR latency for the demo.
  Board board(cfg, sim, nullptr);
  ApiaryOs os(board);

  // The service: a load balancer fronting checksum replicas.
  AppId app = os.CreateApp("elastic_crc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  auto factory = [] { return std::make_unique<ChecksumAccelerator>(1); };
  ServiceId first_svc = 0;
  const TileId first_tile = os.Deploy(app, factory(), &first_svc);
  const CapRef first_ep = os.GrantSendToService(lb_tile, first_svc);
  lb->AddBackend(first_ep);

  // The orchestration stack.
  Placer placer(&os);
  ReconfigSchedulerConfig rcfg;
  rcfg.drain_cycles = 1'000;
  ReconfigScheduler scheduler(&os, app, rcfg);
  AutoscalerConfig acfg;
  acfg.min_replicas = 1;
  acfg.max_replicas = 4;
  acfg.poll_period = 5'000;
  acfg.slo_p99_cycles = 4'000;
  acfg.cooldown_cycles = 40'000;
  acfg.replica_logic_cells = 4'000;
  Autoscaler autoscaler(&os, lb, lb_tile, app, factory, &placer, &scheduler, acfg);
  autoscaler.AdoptReplica(first_svc, first_tile, first_ep);

  auto* demand = new DemandSource(lb_svc);
  const TileId demand_tile = os.Deploy(app, std::unique_ptr<Accelerator>(demand));
  (void)os.GrantSendToService(demand_tile, lb_svc);

  std::printf("Elastic checksum service (1 KiB requests, ~1k cycles each,\n");
  std::printf("SLO-latency autoscaling, 20k-cycle partial reconfiguration)\n\n");
  std::printf("%-12s %-22s %-10s %s\n", "cycle", "phase", "replicas", "requests ok");

  struct Phase {
    const char* label;
    Cycle period;  // Inter-arrival gap; 0 = idle.
    Cycle length;
  };
  const Phase phases[] = {
      {"trickle", 4000, 200'000},  // ~0.25 req/1k-cycles: one replica idles.
      {"ramp", 700, 300'000},      // ~1.4 req/1k: latency climbs, loop grows.
      {"surge", 300, 300'000},     // ~3.3 req/1k: needs most of the ceiling.
      {"fade", 2000, 300'000},     // Demand drops; surplus replicas drain.
      {"quiet", 0, 300'000},       // Idle: shrink back to the floor.
  };
  for (const Phase& phase : phases) {
    demand->period = phase.period;
    const Cycle end = sim.now() + phase.length;
    while (sim.now() < end) {
      sim.Run(50'000);
      std::printf("%-12llu %-22s %-10u %llu\n",
                  static_cast<unsigned long long>(sim.now()), phase.label,
                  autoscaler.live_replicas(), static_cast<unsigned long long>(demand->ok));
    }
  }

  std::printf("\nScaling ledger:\n");
  std::printf("  scale-ups:        %llu\n",
              static_cast<unsigned long long>(autoscaler.scale_ups()));
  std::printf("  scale-downs:      %llu\n",
              static_cast<unsigned long long>(autoscaler.scale_downs()));
  std::printf("  replica-cycles:   %llu (vs %llu if %u replicas were static)\n",
              static_cast<unsigned long long>(autoscaler.replica_tile_cycles()),
              static_cast<unsigned long long>(acfg.max_replicas * sim.now()),
              acfg.max_replicas);
  std::printf("  requests ok:      %llu / %llu\n",
              static_cast<unsigned long long>(demand->ok),
              static_cast<unsigned long long>(demand->sent));
  std::printf("\nThe replica set tracked demand: grown through placement +\n");
  std::printf("ICAP-serialized reconfiguration + kernel re-grant, shrunk through\n");
  std::printf("drain -> blank -> revoke. Same SLO story as bench/a10_autoscale.\n");
  return 0;
}
