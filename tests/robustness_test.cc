// Robustness batch: adaptive load balancing, pipelined accelerator engines,
// concurrent DMA, monitor error-path loops, and miscellaneous hard edges.
#include <gtest/gtest.h>

#include "src/accel/compressor.h"
#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/accel/video_encoder.h"
#include "src/accel/kv_store.h"
#include "src/core/message.h"
#include "src/core/service_ids.h"
#include "src/orch/autoscaler.h"
#include "src/services/dma_service.h"
#include "src/services/load_balancer.h"
#include "src/services/memory_service.h"
#include "src/tenant/tenant.h"
#include "src/tenant/tenant_service.h"
#include "src/workload/frame_source.h"
#include "src/workload/kv_workload.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

TEST(LoadBalancerAdaptiveTest, LeastOutstandingAvoidsSlowReplica) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  auto* fast = new EchoAccelerator(10);
  auto* slow = new EchoAccelerator(2000);  // 200x slower replica.
  ServiceId fs = 0;
  ServiceId ss = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(fast), &fs);
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(slow), &ss);
  lb->AddBackend(tb.os.GrantSendToService(lt, fs));
  lb->AddBackend(tb.os.GrantSendToService(lt, ss));
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  for (int i = 0; i < 40; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= 40; }, 1'000'000));
  // Least-outstanding should route the bulk of the work to the fast replica.
  EXPECT_GT(fast->served(), 3 * slow->served());
}

TEST(VideoEncoderTest, SerialEngineQueuesFrames) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("v");
  auto* enc = new VideoEncoderAccelerator(/*cycles_per_block=*/100, 50);
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(enc), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  // Two back-to-back 16x16 frames: 4 blocks x 100 = 400 cycles each, serial.
  for (int i = 0; i < 2; ++i) {
    const auto pixels = GenerateFrame(16, 16, 1, i);
    Message msg;
    msg.opcode = kOpEncodeFrame;
    msg.payload = FrameToRequestPayload(16, 16, pixels);
    probe->EnqueueSend(msg, cap);
  }
  const Cycle start = tb.sim.now();
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= 2; }, 100000));
  EXPECT_GE(tb.sim.now() - start, 800u);  // Strictly serial engine.
  EXPECT_EQ(enc->frames_encoded(), 2u);
}

TEST(CompressorPipelineTest, ForwardsToNextStageInsteadOfReplying) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("z");
  auto* sink = new ProbeAccelerator();
  ServiceId sink_svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(sink), &sink_svc);
  auto* comp = new CompressorAccelerator(64);
  ServiceId comp_svc = 0;
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(comp), &comp_svc);
  comp->SetNextStage(tb.os.GrantSendToService(ct, sink_svc), kOpEcho);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, comp_svc);
  Message msg;
  msg.opcode = kOpCompress;
  msg.payload.assign(200, 'x');
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !sink->received.empty(); }, 100000));
  // The requester got nothing; the next stage got the compressed chunk.
  EXPECT_TRUE(probe->received.empty());
  EXPECT_EQ(LzDecompress(sink->received[0].payload), msg.payload);
  // Decompress requests still reply to the requester even in pipeline mode.
  Message back;
  back.opcode = kOpDecompress;
  back.payload = sink->received[0].payload;
  probe->EnqueueSend(back, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 100000));
  EXPECT_EQ(probe->received[0].payload, msg.payload);
}

TEST(DmaConcurrencyTest, MultipleCopiesCompleteCorrectly) {
  TestBoard tb;
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  auto* dma = new DmaService(&tb.board.memory());
  tb.os.DeployService(kDmaService, std::unique_ptr<Accelerator>(dma));
  AppId app = tb.os.CreateApp("u");
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef to_dma = tb.os.GrantSendToService(pt, kDmaService);
  const CapRef src = *tb.os.GrantMemory(pt, 64 << 10, kRightRead | kRightWrite);
  const CapRef dst = *tb.os.GrantMemory(pt, 64 << 10, kRightRead | kRightWrite);
  const Segment src_seg = tb.os.monitor(pt).cap_table().Lookup(src)->segment;
  const Segment dst_seg = tb.os.monitor(pt).cap_table().Lookup(dst)->segment;
  // Four interleaved 8KiB copies at distinct offsets.
  std::vector<std::vector<uint8_t>> patterns;
  for (int i = 0; i < 4; ++i) {
    std::vector<uint8_t> p(8 << 10);
    for (size_t k = 0; k < p.size(); ++k) {
      p[k] = static_cast<uint8_t>(k * (i + 3));
    }
    tb.board.memory().DebugWrite(src_seg.base + static_cast<uint64_t>(i) * (8 << 10), p);
    patterns.push_back(std::move(p));
    Message copy;
    copy.opcode = kOpDmaCopy;
    PutU64(copy.payload, static_cast<uint64_t>(i) * (8 << 10));
    PutU64(copy.payload, static_cast<uint64_t>(3 - i) * (8 << 10));  // Reversed layout.
    PutU32(copy.payload, 8 << 10);
    probe->EnqueueSend(copy, to_dma, src, dst);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= 4; }, 2'000'000));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tb.board.memory().DebugRead(
                  dst_seg.base + static_cast<uint64_t>(3 - i) * (8 << 10), 8 << 10),
              patterns[i]);
  }
}

TEST(MonitorErrorPathTest, ErrorBouncesDoNotLoop) {
  // A sends a request to a stopped tile; the bounce is a response. Responses
  // to the bounce (which A never sends) cannot occur, and the stopped tile's
  // monitor never bounces responses — so no storm.
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  ServiceId svc = 0;
  auto* dead = new EchoAccelerator(0);
  const TileId dt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(dead), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  tb.sim.Run(3);
  tb.os.FailStop(dt, "x");
  Message msg;
  msg.opcode = kOpEcho;
  probe->EnqueueSend(msg, cap);
  tb.sim.Run(5000);
  // Exactly one bounce, no further traffic.
  EXPECT_EQ(tb.os.monitor(dt).counters().Get("monitor.error_bounces"), 1u);
  EXPECT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].status, MsgStatus::kDestFailed);
}

TEST(KvParallelTest, ManyOutstandingGetsAllCorrect) {
  TestBoard tb;
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  AppId app = tb.os.CreateApp("kv");
  auto* kv = new KvStoreAccelerator(1 << 18);
  ServiceId svc = 0;
  const TileId kt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(kv), &svc);
  (void)tb.os.GrantSendToService(kt, kMemoryService);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  tb.sim.RunUntil([&] { return kv->ready(); }, 50000);

  // Load 8 keys with distinct values, then GET them all back-to-back so
  // several DRAM reads are in flight at once (bank parallel completion).
  for (int i = 0; i < 8; ++i) {
    Message put;
    put.opcode = kOpKvPut;
    put.payload = MakeKvPutPayload("k" + std::to_string(i),
                                   std::vector<uint8_t>(50 + i, static_cast<uint8_t>(i)));
    probe->EnqueueSend(put, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= 8; }, 500000));
  probe->received.clear();
  for (int i = 0; i < 8; ++i) {
    Message get;
    get.opcode = kOpKvGet;
    get.payload = MakeKvGetPayload("k" + std::to_string(i));
    probe->EnqueueSend(get, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= 8; }, 500000));
  // Values must match sizes/content regardless of completion interleaving.
  int matched = 0;
  for (const auto& r : probe->received) {
    ASSERT_EQ(r.status, MsgStatus::kOk);
    const uint8_t tag = r.payload.empty() ? 0xff : r.payload[0];
    ASSERT_LT(tag, 8);
    EXPECT_EQ(r.payload, std::vector<uint8_t>(50 + tag, tag));
    ++matched;
  }
  EXPECT_EQ(matched, 8);
}

TEST(RouterCountersTest, StallsVisibleUnderContention) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 1, 2, 512});  // Tiny buffers force stalls.
  sim.Register(&mesh);
  // Two sources hammer one sink.
  for (int i = 0; i < 30; ++i) {
    PacketRef a(new NocPacket());
    a->src = 0;
    a->dst = 3;
    a->payload.assign(128, 1);
    mesh.ni(0).Inject(a, sim.now());
    PacketRef b(new NocPacket());
    b->src = 1;
    b->dst = 3;
    b->payload.assign(128, 1);
    mesh.ni(1).Inject(b, sim.now());
  }
  sim.Run(5000);
  const CounterSet agg = mesh.AggregateCounters();
  EXPECT_GT(agg.Get("router.stalls") + agg.Get("router.vc_blocked"), 0u);
  EXPECT_GT(mesh.TotalFlitsRouted(), 0u);
}

TEST(WedgeTest, HealthyPhaseServes) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  auto* wedge = new WedgeAccelerator(3, kInvalidCapRef, 1000);
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(wedge), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  for (int i = 0; i < 5; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  tb.sim.Run(20000);
  // Exactly the 3 healthy requests were answered; the rest vanished into the
  // wedge (no watchdog deployed here, so nothing bounces).
  EXPECT_EQ(probe->received.size(), 3u);
  EXPECT_TRUE(wedge->wedged());
}

// ------------------------------------------------------------------
// Tenant quotas under pressure: exhaustion paths and metering.
// ------------------------------------------------------------------

TEST(TenantQuotaTest, TileQuotaBlocksAutoscaleUp) {
  TestBoardOptions opts;
  opts.reconfig_cycles = 1'000;
  TestBoard tb(opts);
  TenantManager tmgr(&tb.os);
  TenantQuota quota;
  quota.max_tiles = 2;  // Balancer + one replica: already at the ceiling.
  const TenantId tenant = tmgr.CreateTenant("capped", quota);
  const AppId app = tmgr.CreateApp(tenant, "elastic");

  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tmgr.Deploy(tenant, app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  ASSERT_NE(lb_tile, kInvalidTile);
  auto factory = [] { return std::make_unique<EchoAccelerator>(200); };
  ServiceId rsvc = 0;
  const TileId rt = tmgr.Deploy(tenant, app, factory(), &rsvc);
  ASSERT_NE(rt, kInvalidTile);
  const CapRef ep = tb.os.GrantSendToService(lb_tile, rsvc);
  lb->AddBackend(ep);

  Placer placer(&tb.os);
  ReconfigScheduler scheduler(&tb.os, app);
  AutoscalerConfig acfg;
  acfg.min_replicas = 1;
  acfg.max_replicas = 4;
  acfg.poll_period = 1'000;
  acfg.slo_p99_cycles = 2'000;
  acfg.replica_logic_cells = 1'000;
  Autoscaler autoscaler(&tb.os, lb, lb_tile, app, factory, &placer, &scheduler, acfg);
  autoscaler.AdoptReplica(rsvc, rt, ep);
  autoscaler.SetAdmission([&] { return tmgr.AdmitTile(tenant); });

  // Saturating burst: one 200-cycle replica cannot keep up, so every poll
  // wants a scale-up — which the tenant's tile quota must keep refusing.
  auto* client = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(client));
  const CapRef cap = tb.os.GrantSendToService(ct, lb_svc);
  for (int i = 0; i < 200; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    client->EnqueueSend(msg, cap);
  }
  tb.sim.Run(50'000);

  EXPECT_FALSE(tmgr.AdmitTile(tenant));
  EXPECT_EQ(autoscaler.live_replicas(), 1u);
  EXPECT_EQ(autoscaler.scale_ups(), 0u);
  EXPECT_GT(autoscaler.counters().Get("orch.scale_up_quota_denied"), 0u);
  EXPECT_EQ(tmgr.Tiles(tenant).size(), 2u);
}

TEST(TenantQuotaTest, ReconfigRateQuotaStallsTeardownMidDrain) {
  TestBoardOptions opts;
  opts.reconfig_cycles = 1'000;
  TestBoard tb(opts);
  TenantManager tmgr(&tb.os);
  TenantQuota quota;
  quota.reconfig_loads_per_window = 1;
  quota.reconfig_window_cycles = 30'000;
  const TenantId tenant = tmgr.CreateTenant("thrasher", quota);
  const AppId app = tmgr.CreateApp(tenant, "a");

  ReconfigSchedulerConfig rcfg;
  rcfg.drain_cycles = 200;
  rcfg.drain_deadline_cycles = 20'000;
  ReconfigScheduler sched(&tb.os, app, rcfg);
  tmgr.AttachScheduler(tenant, &sched);  // Installs the tenant's ICAP quota.

  const TileId victim = tmgr.Deploy(tenant, app, std::make_unique<EchoAccelerator>(0));
  ASSERT_NE(victim, kInvalidTile);
  const std::vector<TileId> free_tiles = tb.os.FreeTiles();
  ASSERT_FALSE(free_tiles.empty());

  // The window's one bitstream push goes to a load...
  bool loaded = false;
  sched.ScheduleLoad(
      free_tiles[0], [] { return std::make_unique<EchoAccelerator>(0); },
      [&](TileId, ServiceId, bool ok) {
        ASSERT_TRUE(ok);
        loaded = true;
      });
  ASSERT_TRUE(tb.sim.RunUntil([&] { return loaded; }, 20'000));

  // ...so the teardown drains fine but its blanking bitstream must stall at
  // the head of the queue (backpressure, not a drop) until the window rolls.
  bool torn_down = false;
  sched.ScheduleTeardown(
      victim, [] { return true; }, [&](TileId, bool) { torn_down = true; });
  tb.sim.Run(25'000 - tb.sim.now());
  EXPECT_FALSE(torn_down);
  EXPECT_FALSE(tb.os.tile(victim).vacant());
  EXPECT_GT(sched.counters().Get("orch.quota_stall_cycles"), 0u);

  ASSERT_TRUE(tb.sim.RunUntil([&] { return torn_down; }, 40'000));
  EXPECT_TRUE(tb.os.tile(victim).vacant());
  // The blanking landed in the next window, not by exceeding this one's.
  EXPECT_GE(tb.sim.now(), quota.reconfig_window_cycles);
}

namespace {

// One deterministic tenant workload: an echoing service plus a probe client,
// some early traffic, then a long idle tail (so fast-forwarding engages when
// skip is enabled). Returns the billing-record text and its digest.
std::pair<std::string, uint32_t> RunMeteredTenant(bool skip_enabled) {
  TestBoard tb;
  tb.sim.SetSkipEnabled(skip_enabled);
  TenantManager tmgr(&tb.os, /*meter_period=*/5'000);
  const TenantId tenant = tmgr.CreateTenant("metered", TenantQuota{});
  const AppId app = tmgr.CreateApp(tenant, "kv");
  ServiceId svc = 0;
  EXPECT_NE(tmgr.Deploy(tenant, app, std::make_unique<EchoAccelerator>(30), &svc),
            kInvalidTile);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tmgr.Deploy(tenant, app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tmgr.GrantSendToService(tenant, pt, svc);
  for (int i = 0; i < 12; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload.assign(48, static_cast<uint8_t>(i));
    probe->EnqueueSend(msg, cap);
  }
  tb.sim.Run(26'000);
  return {tmgr.BillingRecords(tenant), tmgr.BillingDigest(tenant)};
}

}  // namespace

TEST(TenantMeteringTest, RecordsByteIdenticalAcrossRerunsAndSkipModes) {
  const auto first = RunMeteredTenant(/*skip_enabled=*/true);
  const auto rerun = RunMeteredTenant(/*skip_enabled=*/true);
  const auto no_skip = RunMeteredTenant(/*skip_enabled=*/false);
  EXPECT_FALSE(first.first.empty());
  // Byte-identical ledgers: same text and digest across a plain rerun and a
  // run with fast-forwarding disabled (boundary cycles always execute).
  EXPECT_EQ(first.first, rerun.first);
  EXPECT_EQ(first.first, no_skip.first);
  EXPECT_EQ(first.second, rerun.second);
  EXPECT_EQ(first.second, no_skip.second);
}

TEST(TenantStatsTest, StatsOpcodeRoundTripsUsageAndDigest) {
  TestBoard tb;
  TenantManager tmgr(&tb.os, /*meter_period=*/2'000);
  const TenantId tenant = tmgr.CreateTenant("billed", TenantQuota{});
  const AppId app = tmgr.CreateApp(tenant, "kv");
  ServiceId svc = 0;
  ASSERT_NE(tmgr.Deploy(tenant, app, std::make_unique<EchoAccelerator>(10), &svc),
            kInvalidTile);
  auto* worker = new ProbeAccelerator();
  const TileId wt = tmgr.Deploy(tenant, app, std::unique_ptr<Accelerator>(worker));
  const CapRef wcap = tmgr.GrantSendToService(tenant, wt, svc);
  for (int i = 0; i < 6; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    worker->EnqueueSend(msg, wcap);
  }

  // The stats endpoint is just another service; the mgmt client is not a
  // member of the tenant it is asking about.
  AppId mgmt_app = tb.os.CreateApp("mgmt");
  ServiceId stats_svc = 0;
  ASSERT_NE(tb.os.Deploy(mgmt_app, std::make_unique<TenantStatsService>(&tmgr), &stats_svc),
            kInvalidTile);
  auto* client = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(mgmt_app, std::unique_ptr<Accelerator>(client));
  const CapRef scap = tb.os.GrantSendToService(ct, stats_svc);
  tb.sim.Run(10'000);

  Message req;
  req.opcode = kOpTenantStats;
  PutU32(req.payload, tenant);
  client->EnqueueSend(req, scap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !client->received.empty(); }, 20'000));
  const Message& reply = client->received.front();
  ASSERT_EQ(reply.status, MsgStatus::kOk);
  ASSERT_EQ(reply.payload.size(), 48u);
  const TenantUsage usage = tmgr.Usage(tenant);
  EXPECT_EQ(GetU32(reply.payload, 0), tenant);
  EXPECT_EQ(GetU32(reply.payload, 4), usage.tiles);
  EXPECT_EQ(GetU64(reply.payload, 8), usage.tile_cycles);
  EXPECT_EQ(GetU64(reply.payload, 16), usage.flits_sent);
  EXPECT_EQ(GetU64(reply.payload, 24), usage.messages_sent);
  EXPECT_EQ(GetU64(reply.payload, 32), usage.quota_denials);
  EXPECT_EQ(GetU32(reply.payload, 40), tmgr.BillingRecordCount(tenant));
  EXPECT_EQ(GetU32(reply.payload, 44), tmgr.BillingDigest(tenant));
  EXPECT_GT(GetU64(reply.payload, 24), 0u);  // The workload actually ran.

  // A malformed query (no tenant id) fails closed with kBadRequest.
  client->received.clear();
  Message bad;
  bad.opcode = kOpTenantStats;
  client->EnqueueSend(bad, scap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !client->received.empty(); }, 20'000));
  EXPECT_EQ(client->received.front().status, MsgStatus::kBadRequest);
}

}  // namespace
}  // namespace apiary
