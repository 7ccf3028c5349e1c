// Tests for the elastic orchestration subsystem (src/orch): resource-aware
// placement, ICAP-serialized reconfiguration scheduling, the metrics-driven
// autoscaler (scale-up under load, scale-down when idle, concurrent faults),
// and the balancer's on-fabric stats export (kOpOrchStats).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/accel/echo.h"
#include "src/noc/mesh.h"
#include "src/orch/autoscaler.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/services/supervisor.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

TestBoardOptions OrchOptions(Cycle reconfig_cycles = 2'000) {
  TestBoardOptions opts;
  opts.reconfig_cycles = reconfig_cycles;
  return opts;
}

// Open-loop request generator: one kOpEcho request every `period` cycles.
class Flooder : public Accelerator {
 public:
  Flooder(ServiceId lb_svc, Cycle period) : lb_svc_(lb_svc), period_(period) {}
  void Tick(TileApi& api) override {
    if (!enabled || api.now() % period_ != 0) {
      return;
    }
    Message msg;
    msg.opcode = kOpEcho;
    msg.request_id = ++sent;
    msg.payload = {static_cast<uint8_t>(sent)};
    api.Send(std::move(msg), api.LookupService(lb_svc_));
  }
  void OnMessage(const Message& msg, TileApi&) override {
    if (msg.kind != MsgKind::kResponse) {
      return;
    }
    (msg.status == MsgStatus::kOk ? ok : errors) += 1;
  }
  std::string name() const override { return "flooder"; }
  uint32_t LogicCellCost() const override { return 1000; }

  bool enabled = true;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;

 private:
  ServiceId lb_svc_;
  Cycle period_;
};

// Dies shortly after boot; used to drive a tile into quarantine.
class CrashLooper : public Accelerator {
 public:
  void OnBoot(TileApi& api) override { crash_at_ = api.now() + 200; }
  void OnMessage(const Message&, TileApi&) override {}
  void Tick(TileApi& api) override {
    if (api.now() >= crash_at_) {
      api.RaiseFault("reset loop");
    }
  }
  std::string name() const override { return "crash_looper"; }
  uint32_t LogicCellCost() const override { return 1000; }

 private:
  Cycle crash_at_ = ~0ull;
};

// ------------------------------------------------------------------
// Placer.
// ------------------------------------------------------------------

TEST(PlacerTest, CoPlacesNearThenSpreadsApart) {
  TestBoard tb(OrchOptions());
  AppId app = tb.os.CreateApp("a");
  const TileId anchor = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  ASSERT_NE(anchor, kInvalidTile);
  const Mesh& mesh = tb.board.mesh();

  Placer placer(&tb.os);
  PlacementRequest req;
  req.logic_cells = 1000;
  req.near = {anchor};
  const TileId first = placer.Pick(req);
  ASSERT_NE(first, kInvalidTile);
  // Locality: the pick is a direct mesh neighbor of the anchor.
  EXPECT_EQ(mesh.Hops(first, anchor), 1u);

  // With `first` reserved and nominated as apart, the next pick stays on the
  // anchor's neighbor ring but maximizes distance from the sibling replica.
  placer.Reserve(first);
  req.apart = {first};
  const TileId second = placer.Pick(req);
  ASSERT_NE(second, kInvalidTile);
  EXPECT_NE(second, first);
  EXPECT_EQ(mesh.Hops(second, anchor), 1u);
  EXPECT_GE(mesh.Hops(second, first), 2u);
  EXPECT_EQ(placer.counters().Get("placer.reservations"), 1u);
}

TEST(PlacerTest, RejectsOccupiedReservedOversizedAndFaultedRegions) {
  TestBoard tb(OrchOptions());
  AppId app = tb.os.CreateApp("a");
  const TileId occupied = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  const TileId victim = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  tb.sim.Run(5);

  Placer placer(&tb.os);
  EXPECT_FALSE(placer.Eligible(occupied, 1000));

  ASSERT_FALSE(tb.os.FreeTiles().empty());
  const TileId free_tile = tb.os.FreeTiles().front();
  EXPECT_TRUE(placer.Eligible(free_tile, 1000));
  // No image larger than one tile region ever fits.
  EXPECT_FALSE(placer.Eligible(
      free_tile, static_cast<uint32_t>(tb.os.TileRegionCells() + 1)));

  // Reservations exclude; release restores.
  placer.Reserve(free_tile);
  EXPECT_FALSE(placer.Eligible(free_tile, 1000));
  placer.Release(free_tile);
  EXPECT_TRUE(placer.Eligible(free_tile, 1000));

  // A fail-stopped region is never a candidate.
  tb.os.FailStop(victim, "dead");
  EXPECT_FALSE(placer.Eligible(victim, 1000));
}

TEST(PlacerTest, NeverTargetsATileTheSupervisorCondemned) {
  TestBoard tb(OrchOptions(500));
  AppId app = tb.os.CreateApp("a");
  const TileId t = tb.os.Deploy(app, std::make_unique<CrashLooper>());

  SupervisorConfig scfg;
  scfg.quarantine_after = 2;
  Supervisor sup(&tb.os, scfg);
  sup.Manage(t, [] { return std::make_unique<CrashLooper>(); });
  ASSERT_TRUE(tb.sim.RunUntil([&] { return sup.quarantined(t); }, 200'000));

  // Blank the crash-looping region: the tile is now vacant and its monitor
  // healthy, so only the supervisor knows it is condemned.
  ASSERT_TRUE(tb.os.Undeploy(t));
  tb.sim.Run(5);  // The blanking bitstream completes on the next tick.
  ASSERT_TRUE(tb.os.tile(t).vacant());

  Placer without_supervisor(&tb.os);
  EXPECT_TRUE(without_supervisor.Eligible(t, 1000));
  Placer with_supervisor(&tb.os, &sup);
  EXPECT_FALSE(with_supervisor.Eligible(t, 1000));
  PlacementRequest req;
  req.logic_cells = 1000;
  EXPECT_NE(with_supervisor.Pick(req), t);
}

// ------------------------------------------------------------------
// ReconfigScheduler.
// ------------------------------------------------------------------

TEST(ReconfigSchedulerTest, SerializesLoadsThroughTheSingleIcap) {
  constexpr Cycle kReconfig = 2'000;
  TestBoard tb(OrchOptions(kReconfig));
  AppId app = tb.os.CreateApp("a");
  ReconfigScheduler sched(&tb.os, app);

  const std::vector<TileId> free_tiles = tb.os.FreeTiles();
  ASSERT_GE(free_tiles.size(), 2u);
  std::vector<std::pair<TileId, Cycle>> done;
  std::vector<ServiceId> services;
  for (int i = 0; i < 2; ++i) {
    sched.ScheduleLoad(
        free_tiles[i], [] { return std::make_unique<EchoAccelerator>(0); },
        [&](TileId tile, ServiceId svc, bool ok) {
          ASSERT_TRUE(ok);
          done.push_back({tile, tb.sim.now()});
          services.push_back(svc);
        });
  }

  // The single configuration port must never serve two regions at once.
  bool overlap = false;
  ASSERT_TRUE(tb.sim.RunUntil(
      [&] {
        uint32_t reconfiguring = 0;
        for (TileId t = 0; t < tb.os.num_tiles(); ++t) {
          reconfiguring += tb.os.tile(t).reconfiguring() ? 1 : 0;
        }
        overlap = overlap || reconfiguring > 1;
        return done.size() == 2;
      },
      100'000));
  EXPECT_FALSE(overlap);
  EXPECT_EQ(done[0].first, free_tiles[0]);
  EXPECT_EQ(done[1].first, free_tiles[1]);
  // Strict serialization: the second load finished a full bitstream later.
  EXPECT_GE(done[1].second - done[0].second, kReconfig);
  EXPECT_EQ(sched.counters().Get("orch.loads_live"), 2u);

  // Both replicas actually serve.
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  for (ServiceId svc : services) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, tb.os.GrantSendToService(pt, svc));
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 2; }, 20'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(probe->received[1].status, MsgStatus::kOk);
}

TEST(ReconfigSchedulerTest, TeardownWaitsForDrainBeforeBlanking) {
  TestBoard tb(OrchOptions(1'000));
  AppId app = tb.os.CreateApp("a");
  const TileId t = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  ReconfigSchedulerConfig rcfg;
  rcfg.drain_cycles = 500;
  rcfg.drain_deadline_cycles = 50'000;
  ReconfigScheduler sched(&tb.os, app, rcfg);

  bool drained = false;
  bool torn_down = false;
  bool ok_result = false;
  sched.ScheduleTeardown(
      t, [&] { return drained; },
      [&](TileId, bool ok) {
        torn_down = true;
        ok_result = ok;
      });

  // Not drained: the region stays configured well past the drain window.
  tb.sim.Run(5'000);
  EXPECT_FALSE(torn_down);
  EXPECT_FALSE(tb.os.tile(t).vacant());

  drained = true;
  const Cycle released_at = tb.sim.now();
  ASSERT_TRUE(tb.sim.RunUntil([&] { return torn_down; }, 50'000));
  EXPECT_TRUE(ok_result);
  EXPECT_TRUE(tb.os.tile(t).vacant());
  // Drain hold + blanking bitstream both elapsed after the predicate held.
  EXPECT_GE(tb.sim.now() - released_at, rcfg.drain_cycles + 1'000);
  EXPECT_EQ(sched.counters().Get("orch.teardowns_done"), 1u);
  EXPECT_EQ(sched.counters().Get("orch.teardowns_forced"), 0u);
}

TEST(ReconfigSchedulerTest, DrainDeadlineForcesTheTeardown) {
  TestBoard tb(OrchOptions(1'000));
  AppId app = tb.os.CreateApp("a");
  const TileId t = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  ReconfigSchedulerConfig rcfg;
  rcfg.drain_cycles = 100;
  rcfg.drain_deadline_cycles = 3'000;
  ReconfigScheduler sched(&tb.os, app, rcfg);

  bool torn_down = false;
  sched.ScheduleTeardown(
      t, [] { return false; },  // A stuck requester must not pin the region.
      [&](TileId, bool ok) {
        torn_down = true;
        EXPECT_TRUE(ok);
      });
  ASSERT_TRUE(tb.sim.RunUntil([&] { return torn_down; }, 50'000));
  EXPECT_TRUE(tb.os.tile(t).vacant());
  EXPECT_EQ(sched.counters().Get("orch.teardowns_forced"), 1u);
}

TEST(ReconfigSchedulerTest, YieldsTheIcapToAReconfigurationInProgress) {
  constexpr Cycle kReconfig = 2'000;
  TestBoard tb(OrchOptions(kReconfig));
  AppId app = tb.os.CreateApp("a");
  ReconfigScheduler sched(&tb.os, app);

  const std::vector<TileId> free_tiles = tb.os.FreeTiles();
  ASSERT_GE(free_tiles.size(), 2u);
  // A non-scheduler reconfiguration (the supervisor's recovery path uses the
  // same board state) claims the port first.
  DeployOptions options;
  options.tile = free_tiles[0];
  options.immediate = false;
  ASSERT_NE(tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), nullptr, options),
            kInvalidTile);
  ASSERT_TRUE(tb.os.tile(free_tiles[0]).reconfiguring());

  Cycle load_done_at = 0;
  sched.ScheduleLoad(
      free_tiles[1], [] { return std::make_unique<EchoAccelerator>(0); },
      [&](TileId, ServiceId, bool ok) {
        ASSERT_TRUE(ok);
        load_done_at = tb.sim.now();
      });
  ASSERT_TRUE(tb.sim.RunUntil([&] { return load_done_at != 0; }, 100'000));
  // The scheduled load could only start after the first bitstream finished.
  EXPECT_GE(load_done_at, 2 * kReconfig);
  EXPECT_GT(sched.counters().Get("orch.icap_stall_cycles"), 0u);
}

// ------------------------------------------------------------------
// Autoscaler.
// ------------------------------------------------------------------

// LB + adopted replicas + orchestration stack, wired the way a deployment
// would: placer chooses, scheduler reconfigures, autoscaler decides.
struct ElasticFixture {
  ElasticFixture(TestBoard& tb, uint32_t initial_replicas, AutoscalerConfig acfg,
                 Cycle echo_cycles = 200, const Supervisor* supervisor = nullptr)
      : board(tb) {
    app = tb.os.CreateApp("elastic");
    lb = new LoadBalancer();
    lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
    placer = std::make_unique<Placer>(&tb.os, supervisor);
    ReconfigSchedulerConfig rcfg;
    rcfg.drain_cycles = 200;
    rcfg.drain_deadline_cycles = 20'000;
    scheduler = std::make_unique<ReconfigScheduler>(&tb.os, app, rcfg);
    auto factory = [echo_cycles] { return std::make_unique<EchoAccelerator>(echo_cycles); };
    autoscaler = std::make_unique<Autoscaler>(&tb.os, lb, lb_tile, app, factory,
                                              placer.get(), scheduler.get(), acfg);
    for (uint32_t i = 0; i < initial_replicas; ++i) {
      ServiceId svc = 0;
      const TileId t = tb.os.Deploy(app, factory(), &svc);
      const CapRef ep = tb.os.GrantSendToService(lb_tile, svc);
      lb->AddBackend(ep);
      autoscaler->AdoptReplica(svc, t, ep);
      replica_tiles.push_back(t);
    }
  }

  TestBoard& board;
  AppId app = kInvalidApp;
  LoadBalancer* lb = nullptr;
  ServiceId lb_svc = 0;
  TileId lb_tile = kInvalidTile;
  std::vector<TileId> replica_tiles;
  std::unique_ptr<Placer> placer;
  std::unique_ptr<ReconfigScheduler> scheduler;
  std::unique_ptr<Autoscaler> autoscaler;
};

AutoscalerConfig FastSloConfig() {
  AutoscalerConfig acfg;
  acfg.min_replicas = 1;
  acfg.max_replicas = 2;
  acfg.poll_period = 1'000;
  acfg.slo_p99_cycles = 2'000;  // Ten echo service times.
  acfg.cooldown_cycles = 4'000;
  acfg.replica_logic_cells = 1'000;
  return acfg;
}

// A zero SLO would read every window that saw a completion as latency-high
// and scale up on every poll, so the constructor refuses it.
TEST(AutoscalerTest, RejectsConfigWithoutSlo) {
  TestBoard tb(OrchOptions());
  const AppId app = tb.os.CreateApp("elastic");
  Placer placer(&tb.os);
  ReconfigScheduler scheduler(&tb.os, app);
  AutoscalerConfig acfg = FastSloConfig();
  acfg.slo_p99_cycles = 0;
  auto factory = [] { return std::make_unique<EchoAccelerator>(200); };
  EXPECT_THROW(Autoscaler(&tb.os, nullptr, kInvalidTile, app, factory, &placer, &scheduler, acfg),
               std::invalid_argument);
}

TEST(AutoscalerTest, ScalesUpUnderSustainedLoad) {
  TestBoard tb(OrchOptions());
  ElasticFixture fx(tb, /*initial_replicas=*/1, FastSloConfig(), /*echo_cycles=*/200);
  // One request per 100 cycles against a 200-cycle engine: a single replica
  // saturates (queue grows without bound), two run at comfortable load.
  auto* flooder = new Flooder(fx.lb_svc, /*period=*/100);
  const TileId ft = tb.os.Deploy(fx.app, std::unique_ptr<Accelerator>(flooder));
  (void)tb.os.GrantSendToService(ft, fx.lb_svc);

  ASSERT_TRUE(tb.sim.RunUntil(
      [&] { return fx.autoscaler->live_replicas() == 2; }, 200'000));
  EXPECT_EQ(fx.autoscaler->scale_ups(), 1u);
  EXPECT_EQ(fx.autoscaler->scale_downs(), 0u);
  // The grown set holds: well-provisioned load does not trigger a shrink.
  tb.sim.Run(30'000);
  EXPECT_EQ(fx.autoscaler->live_replicas(), 2u);
  EXPECT_GT(flooder->ok, 0u);
  EXPECT_EQ(flooder->errors, 0u);
  // The new replica was spread away from the survivor but granted to the
  // balancer through the kernel.
  EXPECT_EQ(fx.lb->num_backends(), 2u);
}

TEST(AutoscalerTest, ScalesDownWhenIdleWithoutLosingResponses) {
  TestBoard tb(OrchOptions());
  ElasticFixture fx(tb, /*initial_replicas=*/2, FastSloConfig(), /*echo_cycles=*/300);

  // A burst of slow requests, all in flight when the trace goes quiet.
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(fx.app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, fx.lb_svc);
  for (int i = 0; i < 6; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {static_cast<uint8_t>(i)};
    probe->EnqueueSend(msg, cap);
  }

  // Idle traffic drains, then the autoscaler retires the surplus replica
  // through drain -> blank, and every response still reached its requester.
  ASSERT_TRUE(tb.sim.RunUntil(
      [&] { return fx.autoscaler->scale_downs() >= 1 && probe->received.size() == 6; },
      300'000));
  EXPECT_EQ(fx.autoscaler->live_replicas(), 1u);
  for (const Message& r : probe->received) {
    EXPECT_EQ(r.status, MsgStatus::kOk);
  }
  EXPECT_EQ(fx.lb->counters().Get("lb.orphan_responses"), 0u);
  EXPECT_EQ(fx.lb->counters().Get("lb.reply_failures"), 0u);
  EXPECT_EQ(fx.scheduler->counters().Get("orch.teardowns_done"), 1u);
  // The retired region is blanked and reusable.
  uint32_t vacant = 0;
  for (TileId t : fx.replica_tiles) {
    vacant += tb.os.tile(t).vacant() ? 1 : 0;
  }
  EXPECT_EQ(vacant, 1u);
  // Floor respected: nothing shrinks below min_replicas.
  tb.sim.Run(30'000);
  EXPECT_EQ(fx.autoscaler->live_replicas(), 1u);
}

TEST(AutoscalerTest, ScaleUpRidesOutAConcurrentFaultRecovery) {
  TestBoard tb(OrchOptions());
  Supervisor sup(&tb.os);

  AutoscalerConfig acfg = FastSloConfig();
  ElasticFixture fx(tb, /*initial_replicas=*/1, acfg, /*echo_cycles=*/200, &sup);

  // An unrelated supervised service crashes right as load ramps: its
  // recovery reconfiguration contends for the ICAP and its tile must not be
  // chosen for the new replica.
  AppId other = tb.os.CreateApp("other");
  const TileId victim = tb.os.Deploy(other, std::make_unique<EchoAccelerator>(0));
  sup.Manage(victim, [] { return std::make_unique<EchoAccelerator>(0); });

  auto* flooder = new Flooder(fx.lb_svc, /*period=*/100);
  const TileId ft = tb.os.Deploy(fx.app, std::unique_ptr<Accelerator>(flooder));
  (void)tb.os.GrantSendToService(ft, fx.lb_svc);
  tb.sim.Run(500);
  tb.os.monitor(victim).RaiseFault("injected SEU");

  ASSERT_TRUE(tb.sim.RunUntil(
      [&] { return fx.autoscaler->live_replicas() == 2 && sup.AllHealthy(); },
      300'000));
  EXPECT_GE(fx.autoscaler->scale_ups(), 1u);
  // The recovered tile still hosts the supervised service's fresh logic —
  // the new replica landed somewhere else.
  EXPECT_FALSE(tb.os.tile(victim).vacant());
  EXPECT_EQ(sup.counters().Get("supervisor.faults_recovered"), 1u);
  EXPECT_GT(flooder->ok, 0u);
}

TEST(AutoscalerTest, IdenticalRunsAreDeterministic) {
  auto run_once = [] {
    TestBoard tb(OrchOptions());
    ElasticFixture fx(tb, 1, FastSloConfig(), 200);
    auto* flooder = new Flooder(fx.lb_svc, /*period=*/100);
    const TileId ft = tb.os.Deploy(fx.app, std::unique_ptr<Accelerator>(flooder));
    (void)tb.os.GrantSendToService(ft, fx.lb_svc);
    tb.sim.Run(60'000);
    flooder->enabled = false;  // Trace goes quiet; the set shrinks back.
    tb.sim.Run(100'000);
    return std::make_tuple(fx.autoscaler->scale_ups(), fx.autoscaler->scale_downs(),
                           fx.autoscaler->replica_tile_cycles(), flooder->ok,
                           fx.lb->counters().Get("lb.forwards"),
                           fx.lb->latency().P99());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GE(std::get<0>(a), 1u);  // It actually scaled up...
  EXPECT_GE(std::get<1>(a), 1u);  // ...and back down.
}

// The region-cycle integral is the same whether idle stretches are skipped
// or ticked, including a run that ends inside a skipped window.
TEST(AutoscalerTest, RegionCyclesMatchWithAndWithoutSkipping) {
  auto run_once = [](bool skip) {
    TestBoard tb(OrchOptions());
    tb.sim.SetSkipEnabled(skip);
    ElasticFixture fx(tb, 1, FastSloConfig(), 200);
    const TileId ft =
        tb.os.Deploy(fx.app, std::make_unique<Flooder>(fx.lb_svc, /*period=*/100));
    (void)tb.os.GrantSendToService(ft, fx.lb_svc);
    tb.sim.Run(60'000);
    // The flooder never parks; removing it lets the board go idle.
    EXPECT_TRUE(tb.os.Undeploy(ft, /*immediate=*/true));
    tb.sim.Run(100'500);  // Ends half-way between two polls.
    return std::make_tuple(fx.autoscaler->replica_tile_cycles(), fx.autoscaler->scale_ups(),
                           fx.autoscaler->scale_downs(), tb.sim.skipped_cycles());
  };
  const auto ref = run_once(false);
  const auto opt = run_once(true);
  EXPECT_EQ(std::get<0>(ref), std::get<0>(opt));
  EXPECT_EQ(std::get<1>(ref), std::get<1>(opt));
  EXPECT_EQ(std::get<2>(ref), std::get<2>(opt));
  EXPECT_GE(std::get<1>(ref), 1u);
  EXPECT_EQ(std::get<3>(ref), 0u);
  EXPECT_GT(std::get<3>(opt), 0u);
}

// The floor is enforced, not advisory: a set adopted below min_replicas
// grows to it with no load and no cooldown, and then holds.
TEST(AutoscalerTest, AdoptedBelowFloorGrowsWithoutLoad) {
  TestBoard tb(OrchOptions());
  AutoscalerConfig acfg = FastSloConfig();
  acfg.min_replicas = 2;
  acfg.max_replicas = 3;
  ElasticFixture fx(tb, /*initial_replicas=*/1, acfg, /*echo_cycles=*/100);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return fx.autoscaler->live_replicas() == 2; }, 200'000));
  tb.sim.Run(30'000);
  EXPECT_EQ(fx.autoscaler->live_replicas(), 2u);
  EXPECT_EQ(fx.autoscaler->scale_ups(), 1u);
  EXPECT_EQ(fx.autoscaler->scale_downs(), 0u);
}

// ------------------------------------------------------------------
// Control plane: the balancer's stats export.
// ------------------------------------------------------------------

TEST(OrchStatsTest, BalancerExportsQueueAndLatencyOverTheWire) {
  TestBoard tb(OrchOptions());
  AppId app = tb.os.CreateApp("a");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  ServiceId echo_svc = 0;
  tb.os.Deploy(app, std::make_unique<EchoAccelerator>(50), &echo_svc);
  lb->AddBackend(tb.os.GrantSendToService(lb_tile, echo_svc));

  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  for (int i = 0; i < 3; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 3; }, 50'000));
  probe->received.clear();

  Message stats;
  stats.opcode = kOpOrchStats;
  probe->EnqueueSend(stats, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  const Message& reply = probe->received[0];
  EXPECT_EQ(reply.status, MsgStatus::kOk);
  ASSERT_GE(reply.payload.size(), 36u);
  EXPECT_EQ(GetU32(reply.payload, 0), 1u);   // backends
  EXPECT_EQ(GetU64(reply.payload, 4), 0u);   // in flight now
  EXPECT_EQ(GetU64(reply.payload, 12), 3u);  // responses so far
  EXPECT_GT(GetU64(reply.payload, 20), 0u);  // p50 rtt
  EXPECT_GE(GetU64(reply.payload, 28), GetU64(reply.payload, 20));  // p99
}

}  // namespace
}  // namespace apiary
