// Ablation A8: service recovery time after a silent fault — cold partial
// reconfiguration vs a pre-provisioned hot standby tile.
//
// Section 4.4 gives Apiary the pieces (watchdog detection, fail-stop,
// reconfigurable tiles); this bench measures the resulting availability
// story end to end: a service wedges mid-run, and we time every phase until
// a client transaction succeeds again. The hot-standby row exploits logical
// service naming (Section 4.3): the kernel rebinds the name to a spare tile
// and grants a fresh capability — no bitstream load on the critical path.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/services/mgmt_service.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

struct Timeline {
  Cycle last_ok_before = 0;
  Cycle detected = 0;
  Cycle serving_again = 0;
};

Timeline Run(bool hot_standby, Cycle reconfig_cycles) {
  BenchBoard bb(BenchBoardOptions{}, /*deploy_services=*/false);
  ApiaryOs& os = bb.os;
  auto* mgmt = new MgmtService(&os);
  os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));

  AppId app = os.CreateApp("svc");
  ServiceId svc = 0;
  auto* wedge = new WedgeAccelerator(/*healthy=*/100, kInvalidCapRef,
                                     /*heartbeat_period=*/500);
  const TileId wt = os.Deploy(app, std::unique_ptr<Accelerator>(wedge), &svc);
  (void)os.GrantSendToService(wt, kMgmtService);

  TileId standby = kInvalidTile;
  if (hot_standby) {
    ServiceId spare_svc = 0;
    standby = os.Deploy(app, std::make_unique<EchoAccelerator>(10), &spare_svc);
  }
  auto* client = new LoadClient({.targets = {svc}, .timeout = 10000});
  const TileId ct = os.Deploy(app, std::unique_ptr<Accelerator>(client));
  (void)os.GrantSendToService(ct, svc);

  Timeline tl;
  bool recovered_kicked = false;
  bb.sim.RunUntil(
      [&] {
        if (tl.detected == 0 &&
            os.monitor(wt).fault_state() == TileFaultState::kStopped) {
          tl.detected = bb.sim.now();
          tl.last_ok_before = client->last_ok;
          // Kernel reaction: either rebind to the hot standby or reload the
          // tile's bitstream.
          if (hot_standby) {
            const CapRef old = os.monitor(ct).cap_table().FindEndpointForService(svc);
            os.Revoke(ct, old);
            os.RebindService(svc, standby);
            (void)os.GrantSendToService(ct, svc);
          } else {
            os.Reconfigure(wt, std::make_unique<EchoAccelerator>(10), /*immediate=*/false);
          }
          recovered_kicked = true;
        }
        if (recovered_kicked && tl.serving_again == 0 &&
            client->last_ok > tl.detected) {
          tl.serving_again = client->last_ok;
        }
        return tl.serving_again != 0;
      },
      reconfig_cycles + 5'000'000);
  return tl;
}

}  // namespace

int main() {
  std::printf("A8: service recovery after a silent wedge (watchdog deadline 2000 cyc,\n");
  std::printf("partial reconfiguration 4M cycles = 16 ms)\n");

  Table table("A8: outage timeline (cycles; 4ns each)");
  table.SetHeader({"strategy", "detected after fault", "serving again after detection",
                   "total outage (ms)"});
  {
    const Timeline cold = Run(/*hot_standby=*/false, 4'000'000);
    table.AddRow({"cold: reconfigure same tile",
                  Table::Int(cold.detected - cold.last_ok_before),
                  Table::Int(cold.serving_again - cold.detected),
                  Table::Num((cold.serving_again - cold.last_ok_before) * 4 / 1e6, 2)});
  }
  {
    const Timeline hot = Run(/*hot_standby=*/true, 4'000'000);
    table.AddRow({"hot: rebind to standby tile",
                  Table::Int(hot.detected - hot.last_ok_before),
                  Table::Int(hot.serving_again - hot.detected),
                  Table::Num((hot.serving_again - hot.last_ok_before) * 4 / 1e6, 2)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: detection (watchdog deadline) is identical; the cold path's\n"
      "outage is dominated by the 16ms bitstream load, while the hot standby resumes\n"
      "in microseconds because failover is just a registry rebind plus one\n"
      "capability grant — the payoff of logical service naming (Section 4.3) plus\n"
      "fail-stop tiles (Section 4.4).\n");
  return 0;
}
