// Experiment E7: scale-out of a replicated accelerator behind the internal
// load balancer.
//
// Paper basis (Section 3 Scalability; Section 4.1: "a replicated accelerator
// with internal load balancing for higher bandwidth"; Section 1: "each
// module may be independently scaled up or down to match demand").
//
// A compute-bound checksum engine is replicated 1..8x on one board; a
// saturating closed-loop workload measures delivered throughput and tail
// latency. Nothing about the accelerator changes between rows — scaling is
// pure kernel wiring, the property the paper wants from the OS layer.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/accel/checksum.h"
#include "src/services/load_balancer.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

struct Result {
  double ops_per_ms;
  uint64_t p50;
  uint64_t p99;
  uint64_t lb_forwards;
};

Result Run(uint32_t replicas) {
  BenchBoard bb(BenchBoardOptions{4, 4}, /*deploy_services=*/false);
  ApiaryOs& os = bb.os;
  AppId app = os.CreateApp("crc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  for (uint32_t i = 0; i < replicas; ++i) {
    ServiceId svc = 0;
    os.Deploy(app, std::make_unique<ChecksumAccelerator>(/*bytes_per_cycle=*/1), &svc);
    lb->AddBackend(os.GrantSendToService(lb_tile, svc));
  }
  auto* client = new LoadClient(
      {.targets = {lb_svc}, .opcode = kOpChecksum, .payload_bytes = 2048, .window = 24});
  const TileId ct = os.Deploy(app, std::unique_ptr<Accelerator>(client));
  (void)os.GrantSendToService(ct, lb_svc);

  constexpr Cycle kRun = 1'500'000;
  bb.sim.Run(kRun);
  Result r;
  r.ops_per_ms = static_cast<double>(client->replies()) / (bb.sim.CyclesToNs(kRun) / 1e6);
  r.p50 = client->latency.P50();
  r.p99 = client->latency.P99();
  r.lb_forwards = lb->counters().Get("lb.forwards");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E7: replicated accelerator scale-out (2KiB CRC requests at 1 B/cycle,\n");
  std::printf("closed loop window 24, 1.5M-cycle runs)\n");

  BenchJson json("e7_scaleout");
  json.Param("payload_bytes", 2048);
  json.Param("window", 24);
  json.Param("run_cycles", static_cast<uint64_t>(1'500'000));

  Table table("E7: throughput and latency vs replica count");
  table.SetHeader({"replicas", "ops/ms", "speedup", "p50 (cyc)", "p99 (cyc)"});
  double base = 0;
  for (uint32_t replicas : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const Result r = Run(replicas);
    if (replicas == 1) {
      base = r.ops_per_ms;
    }
    table.AddRow({Table::Int(replicas), Table::Num(r.ops_per_ms, 1),
                  Table::Num(r.ops_per_ms / base, 2) + "x", Table::Int(r.p50),
                  Table::Int(r.p99)});
    json.BeginRow();
    json.Metric("replicas", static_cast<uint64_t>(replicas));
    json.Metric("ops_per_ms", r.ops_per_ms);
    json.Metric("speedup", r.ops_per_ms / base);
    json.Metric("p50_cycles", r.p50);
    json.Metric("p99_cycles", r.p99);
    json.Metric("lb_forwards", r.lb_forwards);
  }
  table.Print();
  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty()) {
    json.WriteFile(json_path);
  }
  std::printf(
      "\nexpected shape: near-linear throughput growth while the engines are the\n"
      "bottleneck, flattening once the 24-deep client window (or the LB tile)\n"
      "saturates — scaling achieved purely by kernel wiring, per Section 4.1.\n");
  return 0;
}
