// A10: metrics-driven autoscaling vs static provisioning.
//
// A seeded diurnal + bursty open-loop trace (non-homogeneous Poisson via
// thinning) is replayed against three deployments of the same checksum
// service behind the load balancer:
//   * static-minimal: one replica — cheap, and visibly SLO-violating at peak;
//   * static-over: kOverReplicas replicas sized for peak x burst (the worst
//     case a static operator must assume) — meets the SLO by burning tiles;
//   * autoscaled: starts at one replica; the orchestration stack (placer ->
//     reconfig scheduler -> autoscaler in SLO-latency mode) grows and
//     shrinks the set against observed tail latency.
// Latency is measured from scheduled arrival (coordinated-omission-free), so
// queueing during under-provisioned stretches is fully charged. Reported:
// p50/p99, SLO attainment, and tile-cycles consumed by the replica set.
//
// Deterministic: same seed -> byte-identical output. `--smoke` shrinks the
// run for CI; `--json <path>` emits machine-readable results.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/checksum.h"
#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/fpga/board.h"
#include "src/orch/autoscaler.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint64_t kSeed = 7;
constexpr uint32_t kPayloadBytes = 1024;  // ~1024 cycles of service at 1 B/cyc.
constexpr uint32_t kMaxReplicas = 6;  // Autoscaler ceiling (it tracks demand).
// Static over-provisioning must cover the worst case the operator cannot
// predict: peak diurnal rate x burst multiplier = 8 req/1k-cycles at ~1k
// cycles of service each, i.e. 8 replicas.
constexpr uint32_t kOverReplicas = 8;
constexpr Cycle kReconfigCycles = 60'000;  // Scaled-down PR latency (cf. A9).
constexpr Cycle kSloCycles = 10'000;       // The externally promised p99.
constexpr double kTroughPer1k = 0.4;       // Offered load, requests/1k-cycles.
constexpr double kPeakPer1k = 4.0;
constexpr double kBurstMult = 2.0;

struct TraceShape {
  Cycle run_cycles;
  Cycle warmup;  // Arrivals start here (post boot).
  Cycle burst1_at;
  Cycle burst2_at;
  Cycle burst_len;
};

TraceShape MakeShape(bool smoke) {
  TraceShape s;
  s.run_cycles = smoke ? 1'000'000 : 3'000'000;
  s.warmup = 10'000;
  s.burst1_at = s.run_cycles / 5;
  s.burst2_at = (s.run_cycles * 3) / 4;
  s.burst_len = s.run_cycles / 50;
  return s;
}

// Requests per cycle at simulated time t: a diurnal sin^2 profile (trough at
// both ends, peak mid-run) with two burst windows on the shoulders.
double RatePerCycle(double t, const TraceShape& shape) {
  const double phase = std::sin(M_PI * t / static_cast<double>(shape.run_cycles));
  double per_1k = kTroughPer1k + (kPeakPer1k - kTroughPer1k) * phase * phase;
  const auto in_burst = [&](Cycle at) {
    return t >= static_cast<double>(at) && t < static_cast<double>(at + shape.burst_len);
  };
  if (in_burst(shape.burst1_at) || in_burst(shape.burst2_at)) {
    per_1k *= kBurstMult;
  }
  return per_1k / 1000.0;
}

// Non-homogeneous Poisson arrivals by thinning, fully determined by kSeed.
std::vector<Cycle> GenerateArrivals(const TraceShape& shape) {
  Rng rng(kSeed);
  const double rate_max = kPeakPer1k * kBurstMult / 1000.0;
  std::vector<Cycle> arrivals;
  double t = static_cast<double>(shape.warmup);
  while (true) {
    t += rng.NextExponential(1.0 / rate_max);
    if (t >= static_cast<double>(shape.run_cycles)) {
      break;
    }
    if (rng.NextDouble() < RatePerCycle(t, shape) / rate_max) {
      arrivals.push_back(static_cast<Cycle>(t));
    }
  }
  return arrivals;
}

// Open-loop trace replayer: fires each request at its scheduled arrival and
// measures latency from that arrival, so backpressure and queueing during
// under-provisioned stretches are charged to the deployment, not hidden.
class TraceClient : public Accelerator {
 public:
  TraceClient(ServiceId lb_svc, const std::vector<Cycle>* arrivals)
      : lb_svc_(lb_svc), arrivals_(arrivals) {}

  void Tick(TileApi& api) override {
    while (next_ < arrivals_->size() && (*arrivals_)[next_] <= api.now()) {
      Message msg;
      msg.opcode = kOpChecksum;
      msg.payload.assign(kPayloadBytes, static_cast<uint8_t>(next_));
      msg.request_id = next_ + 1;  // Index into arrivals_, 1-based.
      if (!api.Send(std::move(msg), api.LookupService(lb_svc_)).ok()) {
        return;  // Injection backpressure: retry next cycle, clock running.
      }
      ++next_;
      ++sent;
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    if (msg.kind != MsgKind::kResponse || msg.request_id == 0 ||
        msg.request_id > arrivals_->size()) {
      return;
    }
    if (msg.status != MsgStatus::kOk) {
      ++errors;
      return;
    }
    const Cycle rtt = api.now() - (*arrivals_)[msg.request_id - 1];
    latency.Record(rtt);
    slo_ok += (rtt <= kSloCycles) ? 1 : 0;
    ++done;
  }

  std::string name() const override { return "trace_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  Histogram latency;
  uint64_t sent = 0;
  uint64_t done = 0;
  uint64_t errors = 0;
  uint64_t slo_ok = 0;

 private:
  ServiceId lb_svc_;
  const std::vector<Cycle>* arrivals_;
  size_t next_ = 0;
};

struct RunResult {
  uint64_t sent = 0;
  uint64_t done = 0;
  uint64_t errors = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  double slo_attainment = 0;
  uint64_t tile_cycles = 0;
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;
  uint32_t final_replicas = 0;
};

enum class Deployment { kStaticMinimal, kStaticOver, kAutoscaled };

RunResult RunOne(Deployment deployment, const TraceShape& shape,
                 const std::vector<Cycle>& arrivals) {
  Simulator sim(250.0);
  BoardConfig cfg;
  cfg.part_number = "VU9P";
  cfg.mesh = MeshConfig{4, 4, 8, 512};
  cfg.dram.capacity_bytes = 64ull << 20;
  cfg.mac_kind = MacKind::kNone;
  cfg.partial_reconfig_cycles = kReconfigCycles;
  Board board(cfg, sim, nullptr);
  ApiaryOs os(board);

  AppId app = os.CreateApp("elastic_crc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);

  auto replica_factory = [] {
    return std::make_unique<ChecksumAccelerator>(/*bytes_per_cycle=*/1);
  };
  const uint32_t initial = deployment == Deployment::kStaticOver ? kOverReplicas : 1;
  std::vector<ServiceId> replica_svcs;
  std::vector<TileId> replica_tiles;
  std::vector<CapRef> replica_eps;
  for (uint32_t i = 0; i < initial; ++i) {
    ServiceId svc = 0;
    const TileId t = os.Deploy(app, replica_factory(), &svc);
    const CapRef ep = os.GrantSendToService(lb_tile, svc);
    lb->AddBackend(ep);
    replica_svcs.push_back(svc);
    replica_tiles.push_back(t);
    replica_eps.push_back(ep);
  }

  auto* client = new TraceClient(lb_svc, &arrivals);
  const TileId client_tile = os.Deploy(app, std::unique_ptr<Accelerator>(client));
  (void)os.GrantSendToService(client_tile, lb_svc);

  // The orchestration stack only exists in the autoscaled deployment.
  std::unique_ptr<Placer> placer;
  std::unique_ptr<ReconfigScheduler> scheduler;
  std::unique_ptr<Autoscaler> autoscaler;
  if (deployment == Deployment::kAutoscaled) {
    placer = std::make_unique<Placer>(&os);
    ReconfigSchedulerConfig rcfg;
    rcfg.drain_cycles = 2'000;
    rcfg.drain_deadline_cycles = 100'000;
    scheduler = std::make_unique<ReconfigScheduler>(&os, app, rcfg);
    AutoscalerConfig acfg;
    acfg.min_replicas = 1;
    acfg.max_replicas = kMaxReplicas;
    acfg.poll_period = 10'000;
    acfg.slo_p99_cycles = 4'000;  // Headroom under the 10k external SLO.
    acfg.slo_down_fraction = 0.45;
    acfg.cooldown_cycles = 100'000;
    acfg.replica_logic_cells = 4'000;
    autoscaler = std::make_unique<Autoscaler>(&os, lb, lb_tile, app, replica_factory,
                                              placer.get(), scheduler.get(), acfg);
    autoscaler->AdoptReplica(replica_svcs[0], replica_tiles[0], replica_eps[0]);
  }

  sim.Run(shape.run_cycles);
  // Drain: let in-flight requests finish (no new arrivals past run_cycles).
  sim.RunUntil([&] { return client->done + client->errors >= client->sent; }, 400'000);

  RunResult r;
  r.sent = client->sent;
  r.done = client->done;
  r.errors = client->errors;
  r.p50 = client->latency.P50();
  r.p99 = client->latency.P99();
  r.slo_attainment =
      client->sent == 0
          ? 0
          : static_cast<double>(client->slo_ok) / static_cast<double>(client->sent);
  if (deployment == Deployment::kAutoscaled) {
    r.tile_cycles = autoscaler->replica_tile_cycles();
    r.scale_ups = autoscaler->scale_ups();
    r.scale_downs = autoscaler->scale_downs();
    r.final_replicas = autoscaler->live_replicas();
  } else {
    r.tile_cycles = static_cast<uint64_t>(initial) * sim.now();
    r.final_replicas = initial;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const TraceShape shape = MakeShape(smoke);
  const std::vector<Cycle> arrivals = GenerateArrivals(shape);

  std::printf("A10: autoscaling vs static provisioning (%s, %llu-cycle trace,\n",
              smoke ? "smoke" : "full",
              static_cast<unsigned long long>(shape.run_cycles));
  std::printf("%zu requests, diurnal %.1f..%.1f req/1k-cycles + %.1fx bursts,\n",
              arrivals.size(), kTroughPer1k, kPeakPer1k, kBurstMult);
  std::printf("SLO p99 <= %llu cycles, partial reconfig %llu cycles)\n\n",
              static_cast<unsigned long long>(kSloCycles),
              static_cast<unsigned long long>(kReconfigCycles));

  const RunResult minimal = RunOne(Deployment::kStaticMinimal, shape, arrivals);
  const RunResult over = RunOne(Deployment::kStaticOver, shape, arrivals);
  const RunResult autos = RunOne(Deployment::kAutoscaled, shape, arrivals);

  Table table("A10: deployments under the same trace");
  table.SetHeader({"deployment", "done", "p50 (cyc)", "p99 (cyc)", "SLO %",
                   "tile-cycles", "ups", "downs"});
  const auto row = [&](const std::string& name, const RunResult& r) {
    table.AddRow({name, Table::Int(r.done), Table::Int(r.p50), Table::Int(r.p99),
                  Table::Num(100 * r.slo_attainment, 1), Table::Int(r.tile_cycles),
                  Table::Int(r.scale_ups), Table::Int(r.scale_downs)});
  };
  row("static-minimal (1)", minimal);
  row("static-over (" + std::to_string(kOverReplicas) + ")", over);
  row("autoscaled (1.." + std::to_string(kMaxReplicas) + ")", autos);
  table.Print();

  const double cycles_vs_over = static_cast<double>(autos.tile_cycles) /
                                static_cast<double>(over.tile_cycles);
  std::printf("\nautoscaled tile-cycles: %.1f%% of over-provisioned (%.1f%% saved)\n",
              100 * cycles_vs_over, 100 * (1 - cycles_vs_over));

  // Acceptance.
  bool pass = true;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    pass = pass && ok;
  };
  if (smoke) {
    // CI-friendly invariants: the loop scales, the service answers, and
    // elasticity costs less than static-over.
    check(autos.scale_ups >= 1, "autoscaler scaled up at least once");
    check(autos.done + autos.errors == autos.sent, "every request was answered");
    check(autos.tile_cycles < over.tile_cycles,
          "autoscaled tile-cycles below over-provisioned");
  } else {
    check(minimal.p99 > kSloCycles,
          "static-minimal violates the SLO at peak (p99 " + std::to_string(minimal.p99) +
              " > " + std::to_string(kSloCycles) + ")");
    const bool auto_meets =
        autos.p99 <= kSloCycles ||
        autos.p99 <= static_cast<uint64_t>(1.05 * static_cast<double>(over.p99));
    check(auto_meets, "autoscaled p99 (" + std::to_string(autos.p99) +
                          ") meets the SLO (or is within 5% of over-provisioned)");
    check(autos.tile_cycles <= (over.tile_cycles * 7) / 10,
          "autoscaled consumes >= 30% fewer tile-cycles than over-provisioned");
    check(autos.scale_ups >= 2 && autos.scale_downs >= 1,
          "the loop both grew and shrank the replica set");
    check(autos.done + autos.errors == autos.sent, "every request was answered");
  }

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty()) {
    BenchJson json("a10_autoscale");
    json.Param("seed", kSeed);
    json.Param("smoke", smoke ? 1 : 0);
    json.Param("run_cycles", static_cast<uint64_t>(shape.run_cycles));
    json.Param("requests", static_cast<uint64_t>(arrivals.size()));
    json.Param("slo_p99_cycles", static_cast<uint64_t>(kSloCycles));
    json.Param("reconfig_cycles", static_cast<uint64_t>(kReconfigCycles));
    const auto emit = [&](const char* name, const RunResult& r) {
      json.BeginRow();
      json.Metric("deployment", name);
      json.Metric("sent", r.sent);
      json.Metric("done", r.done);
      json.Metric("errors", r.errors);
      json.Metric("p50_cycles", r.p50);
      json.Metric("p99_cycles", r.p99);
      json.Metric("slo_attainment", r.slo_attainment);
      json.Metric("tile_cycles", r.tile_cycles);
      json.Metric("scale_ups", r.scale_ups);
      json.Metric("scale_downs", r.scale_downs);
      json.Metric("final_replicas", static_cast<uint64_t>(r.final_replicas));
    };
    emit("static_minimal", minimal);
    emit("static_over", over);
    emit("autoscaled", autos);
    json.WriteFile(json_path);
  }
  return pass ? 0 : 1;
}
