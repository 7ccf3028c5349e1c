// Determinism regression: two runs of an identical, nontrivial scenario must
// produce bit-identical results — the reproducibility guarantee every other
// experiment relies on — plus tests for hot-standby service rebinding.
#include <gtest/gtest.h>

#include "src/accel/echo.h"
#include "src/accel/kv_store.h"
#include "src/core/service_ids.h"
#include "src/core/message.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/services/gateway.h"
#include "src/services/supervisor.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/sim/logging.h"
#include "src/workload/client.h"
#include "src/workload/kv_workload.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

struct ScenarioResult {
  uint64_t received;
  uint64_t errors;
  uint64_t flits;
  std::string monitor_counters;
  uint64_t p50;
  uint64_t p999;
  std::vector<uint8_t> last_response;
};

ScenarioResult RunScenario(uint64_t seed) {
  TestBoard tb;
  tb.net.SetLossRate(0.02, 7);  // Loss + retries stress the determinism.
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  tb.os.DeployService(
      kNetworkService,
      std::make_unique<NetworkService>(&tb.os,
                                       std::make_unique<Mac100GAdapter>(tb.board.mac100g()),
                                       /*reliable=*/true));
  AppId app = tb.os.CreateApp("kv");
  auto* kv = new KvStoreAccelerator(1 << 18);
  ServiceId kv_svc = 0;
  const TileId kt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(kv), &kv_svc);
  (void)tb.os.GrantSendToService(kt, kMemoryService);
  auto* gw = new NetGateway();
  ServiceId gw_svc = 0;
  const TileId gt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)tb.os.GrantSendToService(gt, kNetworkService);
  gw->SetBackend(tb.os.GrantSendToService(gt, kv_svc));

  KvWorkloadConfig wl;
  wl.keyspace = 50;
  wl.read_fraction = 0.7;
  ClientConfig ccfg;
  ccfg.server_endpoint = tb.board.mac100g()->address();
  ccfg.dst_service = gw_svc;
  ccfg.open_loop = false;
  ccfg.concurrency = 3;
  ccfg.max_requests = 60;
  ccfg.reliable = true;
  ccfg.seed = seed;
  ClientHost client(ccfg, &tb.net, MakeKvRequestFactory(wl));
  tb.sim.Register(&client);
  tb.sim.RunUntil([&] { return client.received() >= 60; }, 20'000'000);

  ScenarioResult r;
  r.received = client.received();
  r.errors = client.errors();
  r.flits = tb.board.mesh().TotalFlitsRouted();
  r.monitor_counters = tb.os.AggregateMonitorCounters().ToString();
  r.p50 = client.latency().P50();
  r.p999 = client.latency().P999();
  r.last_response = client.last_response();
  return r;
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  const ScenarioResult a = RunScenario(11);
  const ScenarioResult b = RunScenario(11);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.flits, b.flits);
  EXPECT_EQ(a.monitor_counters, b.monitor_counters);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p999, b.p999);
  EXPECT_EQ(a.last_response, b.last_response);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const ScenarioResult a = RunScenario(11);
  const ScenarioResult b = RunScenario(12);
  // Different client op mixes must leave different traffic footprints.
  EXPECT_NE(a.flits, b.flits);
}

// Captures every log line (down to kDebug) a seeded run emits. Two runs of
// the same seed must produce byte-identical traces — a far stricter probe
// than comparing end-of-run aggregates, since any intermediate divergence
// (event order, retry timing, map iteration order) shows up in the trace.
std::string RunScenarioTrace(uint64_t seed) {
  std::string trace;
  SetLogSink(
      [](LogLevel level, const std::string& line, void* user) {
        auto* out = static_cast<std::string*>(user);
        *out += std::to_string(static_cast<int>(level));
        *out += ' ';
        *out += line;
        *out += '\n';
      },
      &trace);
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  (void)RunScenario(seed);
  SetLogLevel(prev);
  SetLogSink(nullptr, nullptr);
  return trace;
}

TEST(DeterminismTest, FullTraceOfTwoSeededRunsIsByteIdentical) {
  const std::string a = RunScenarioTrace(11);
  const std::string b = RunScenarioTrace(11);
  EXPECT_EQ(a, b);
  // And a different seed must actually change the execution, so an always-
  // empty or seed-blind trace cannot fake the test out.
  const std::string c = RunScenarioTrace(12);
  EXPECT_NE(a, c);
}

// A periodic closed-fire client: one echo request every `period` cycles,
// fire-and-forget (losses surface as missing responses, not retries).
class PeriodicClient : public Accelerator {
 public:
  explicit PeriodicClient(ServiceId svc, Cycle period) : svc_(svc), period_(period) {}

  void Tick(TileApi& api) override {
    if (api.now() >= next_) {
      Message msg;
      msg.opcode = kOpEcho;
      msg.payload = {1, 2, 3, 4};
      if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
        ++sent;
      }
      next_ = api.now() + period_;
    }
  }
  void OnMessage(const Message& msg, TileApi&) override {
    (msg.status == MsgStatus::kOk ? ok : errors) += 1;
  }
  std::string name() const override { return "periodic_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;

 private:
  ServiceId svc_;
  Cycle period_;
  Cycle next_ = 0;
};

struct ChaosResult {
  std::string fault_trace;
  std::string injector_counters;
  std::string supervisor_counters;
  std::string monitor_counters;
  uint64_t flits;
  uint64_t client_ok;
  uint64_t client_errors;
};

// A seeded FaultPlan campaign (link drops, corruption, DRAM upsets, an SEU
// crash healed by the supervisor) over live traffic. Every probabilistic
// choice flows from the plan seed and the simulator's fixed tick order, so
// the whole chaos run — fault addresses, cycles, recovery timings — must
// replay byte-identically.
ChaosResult RunChaosScenario(uint64_t plan_seed) {
  Simulator sim(250.0);
  ExternalNetwork net(25);
  sim.Register(&net);
  BoardConfig cfg;
  cfg.mesh = MeshConfig{4, 4, 8, 512};
  cfg.dram.capacity_bytes = 64ull << 20;
  cfg.partial_reconfig_cycles = 20'000;
  Board board(cfg, sim, &net);
  ApiaryOs os(board);

  AppId app = os.CreateApp("chaos");
  ServiceId svc = 0;
  const TileId st = os.Deploy(app, std::make_unique<EchoAccelerator>(5), &svc);
  auto* client = new PeriodicClient(svc, 200);
  const TileId ct = os.Deploy(app, std::unique_ptr<Accelerator>(client));
  (void)os.GrantSendToService(ct, svc);

  Supervisor sup(&os);
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(5); });

  FaultPlan plan;
  plan.seed = plan_seed;
  plan.LinkDrop(10'000, 15'000, 0.3)
      .LinkCorrupt(30'000, 15'000, 0.25)
      .DramBitFlips(40'000, 4)
      .AccelCrash(50'000, st)
      .LinkDrop(90'000, 10'000, 0.3)
      .DramBitFlips(100'000, 4);
  FaultInjector injector(
      plan, FaultHooks{.os = &os, .mesh = &board.mesh(), .memory = &board.memory()});

  sim.Run(150'000);

  ChaosResult r;
  r.fault_trace = injector.TraceString();
  r.injector_counters = injector.counters().ToString();
  r.supervisor_counters = sup.counters().ToString();
  r.monitor_counters = os.AggregateMonitorCounters().ToString();
  r.flits = board.mesh().TotalFlitsRouted();
  r.client_ok = client->ok;
  r.client_errors = client->errors;
  return r;
}

TEST(ChaosDeterminismTest, SameFaultPlanSeedReplaysIdentically) {
  const ChaosResult a = RunChaosScenario(9);
  const ChaosResult b = RunChaosScenario(9);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.injector_counters, b.injector_counters);
  EXPECT_EQ(a.supervisor_counters, b.supervisor_counters);
  EXPECT_EQ(a.monitor_counters, b.monitor_counters);
  EXPECT_EQ(a.flits, b.flits);
  EXPECT_EQ(a.client_ok, b.client_ok);
  EXPECT_EQ(a.client_errors, b.client_errors);
  // Sanity: the campaign actually did damage and the supervisor healed it.
  EXPECT_GT(a.client_errors + a.client_ok, 0u);
  EXPECT_NE(a.injector_counters.find("fault.accel_crash=1"), std::string::npos);
}

TEST(ChaosDeterminismTest, DifferentFaultPlanSeedsDiverge) {
  const ChaosResult a = RunChaosScenario(9);
  const ChaosResult b = RunChaosScenario(10);
  // Different seeds pick different DRAM addresses and drop different packets.
  EXPECT_NE(a.fault_trace, b.fault_trace);
}

TEST(RebindServiceTest, ClientFollowsLogicalNameToStandby) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  ServiceId svc = 0;
  auto* primary = new EchoAccelerator(5);
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(primary), &svc);
  ServiceId spare_svc = 0;
  auto* standby = new EchoAccelerator(5);
  const TileId st = tb.os.Deploy(app, std::unique_ptr<Accelerator>(standby), &spare_svc);

  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);
  Message msg;
  msg.opcode = kOpEcho;
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(primary->served(), 1u);
  probe->received.clear();

  // Fail the primary; rebind the logical name; regrant.
  tb.os.FailStop(pt, "gone");
  const CapRef old = tb.os.monitor(ct).cap_table().FindEndpointForService(svc);
  tb.os.Revoke(ct, old);
  tb.os.RebindService(svc, st);
  const CapRef fresh = tb.os.GrantSendToService(ct, svc);
  ASSERT_NE(fresh, kInvalidCapRef);

  Message msg2;
  msg2.opcode = kOpEcho;
  msg2.payload = {7};
  probe->EnqueueSend(msg2, fresh);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(standby->served(), 1u);
  // The response carries the *logical* identity the client asked for.
  EXPECT_EQ(probe->received[0].src_service, svc);
}

}  // namespace
}  // namespace apiary
