// Additional coverage: edge cases and failure paths not exercised by the
// per-module suites — monitor limits, gateway/netsvc malformed traffic,
// client retry machinery, energy accounting, logging.
#include <gtest/gtest.h>

#include "src/accel/echo.h"
#include "src/baseline/hosted.h"
#include "src/core/energy.h"
#include "src/core/service_ids.h"
#include "src/services/gateway.h"
#include "src/services/network_service.h"
#include "src/sim/logging.h"
#include "src/workload/client.h"
#include "src/workload/frame_source.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// ---------------------------------------------------------------------
// Monitor limits and edge cases.
// ---------------------------------------------------------------------

TEST(MonitorLimitsTest, OversizedMessageFailsFast) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  ServiceId svc = 0;
  tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  tb.sim.Run(3);
  Message huge;
  huge.opcode = kOpEcho;
  huge.payload.assign(1 << 20, 1);  // ~32k flits >> 512-flit NI queue.
  const SendResult r = tb.os.monitor(pt).Send(std::move(huge), cap);
  EXPECT_EQ(r.status, MsgStatus::kBadRequest);
  EXPECT_EQ(tb.os.monitor(pt).counters().Get("monitor.send_too_large"), 1u);
}

TEST(MonitorLimitsTest, OutboxFillsUnderBurst) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  ServiceId svc = 0;
  tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  tb.sim.Run(3);
  // The outbox holds 16 messages; a synchronous burst beyond that sees
  // backpressure (the pipeline drains only one flit per cycle).
  int ok = 0;
  int backpressured = 0;
  for (int i = 0; i < 40; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload.assign(512, 1);
    const SendResult r = tb.os.monitor(pt).Send(std::move(msg), cap);
    if (r.ok()) {
      ++ok;
    } else if (r.status == MsgStatus::kBackpressure) {
      ++backpressured;
    }
  }
  EXPECT_EQ(ok, 16);
  EXPECT_EQ(backpressured, 24);
}

TEST(MonitorLimitsTest, InboxOverflowBouncesBackpressure) {
  TestBoard tb;
  // A standalone monitor on tile 0's NI, so no accelerator drains its inbox.
  Monitor monitor(&tb.sim, 0, &tb.board.mesh().ni(0));
  monitor.AllowSender(1);
  monitor.BeginCycle();
  for (uint32_t i = 0; i < kMonitorInboxMessages + 2; ++i) {
    Message msg;
    msg.kind = MsgKind::kRequest;
    msg.src_tile = 1;
    PacketRef packet(new NocPacket());
    packet->src = 1;
    packet->dst = 0;
    packet->payload = SerializeMessage(msg);
    packet->flit_count = ComputeFlitCount(*packet);
    // Skips NetworkInterface::Inject; stamp as it does, since asserts-on
    // builds check the stamp at ejection.
    packet->checksum = PacketWireChecksum(*packet);
    tb.board.mesh().ni(0).EjectFlit(Flit{packet, packet->flit_count - 1}, 0);
  }
  monitor.BeginCycle();
  EXPECT_EQ(monitor.counters().Get("monitor.delivered"), kMonitorInboxMessages);
  EXPECT_EQ(monitor.counters().Get("monitor.inbox_overflow"), 2u);
  EXPECT_EQ(monitor.counters().Get("monitor.error_bounces"), 2u);
}

// A send moves its message into the outbox: payloads past the inline tier
// are not copied into a second arena chunk on the way to the NoC.
TEST(MonitorLimitsTest, LargeSendsTakeNoChunkOfTheirOwn) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  ServiceId sink_svc = 0;
  auto* sink = new ProbeAccelerator();  // Records requests, never replies.
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(sink), &sink_svc);
  const TileId pt = tb.os.Deploy(app, std::make_unique<ProbeAccelerator>());
  const CapRef cap = tb.os.GrantSendToService(pt, sink_svc);
  tb.sim.Run(3);

  constexpr uint32_t kSends = kMonitorOutboxMessages;
  std::vector<Message> msgs(kSends);
  for (Message& msg : msgs) {
    msg.opcode = kOpEcho;
    msg.payload.assign(4 * PayloadBuf::kInlineBytes, 7);
  }
  auto acquires = [&] {
    return PayloadBuf::ArenaStats().chunk_acquires +
           tb.sim.context().arena().stats().chunk_acquires;
  };
  const uint64_t before = acquires();
  for (Message& msg : msgs) {
    ASSERT_TRUE(tb.os.monitor(pt).Send(std::move(msg), cap).ok());
  }
  EXPECT_EQ(acquires() - before, 0u);

  // The whole trip to the sink takes one chunk per send: the sink's own
  // recorded copy. Deserialization moves the payload out of the packet.
  ASSERT_TRUE(tb.sim.RunUntil([&] { return sink->received.size() == kSends; }, 50'000));
  EXPECT_EQ(acquires() - before, kSends);
}

TEST(MonitorLimitsTest, ServiceAccessorReflectsIdentity) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  ServiceId svc = 0;
  const TileId t = tb.os.Deploy(app, std::make_unique<ProbeAccelerator>(), &svc);
  EXPECT_EQ(tb.os.monitor(t).service(), svc);
  EXPECT_EQ(tb.os.monitor(t).app(), app);
}

// ---------------------------------------------------------------------
// Gateway / network service failure paths.
// ---------------------------------------------------------------------

TEST(GatewayEdgeTest, MalformedInboundCounted) {
  TestBoard tb;
  auto* gw = new NetGateway();
  AppId app = tb.os.CreateApp("a");
  ServiceId gw_svc = 0;
  const TileId gt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, gw_svc);
  (void)gt;
  Message short_deliver;
  short_deliver.opcode = kOpNetDeliver;
  short_deliver.payload = {1, 2};  // Way below the 14-byte minimum.
  probe->EnqueueSend(short_deliver, cap);
  tb.sim.Run(100);
  EXPECT_EQ(gw->counters().Get("gateway.malformed"), 1u);
}

TEST(GatewayEdgeTest, NoBackendAnswersClient) {
  TestBoard tb;
  tb.os.DeployService(
      kNetworkService,
      std::make_unique<NetworkService>(&tb.os,
                                       std::make_unique<Mac100GAdapter>(tb.board.mac100g())));
  auto* gw = new NetGateway();  // Backend never set.
  AppId app = tb.os.CreateApp("a");
  ServiceId gw_svc = 0;
  const TileId gt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)tb.os.GrantSendToService(gt, kNetworkService);
  struct Sink : ExternalEndpoint {
    std::vector<EthFrame> frames;
    void OnFrame(EthFrame f, Cycle) override { frames.push_back(std::move(f)); }
  } client;
  const uint32_t client_addr = tb.net.RegisterEndpoint(&client);
  tb.sim.Run(4000);
  EthFrame frame;
  frame.src_endpoint = client_addr;
  frame.dst_endpoint = tb.board.mac100g()->address();
  PutU32(frame.payload, gw_svc);
  PutU64(frame.payload, 1);
  frame.payload.push_back(1);
  frame.payload.push_back(0);
  tb.net.Send(std::move(frame), tb.sim.now());
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !client.frames.empty(); }, 100000));
  // Client gets an explicit kNoSuchService, not silence.
  ASSERT_GE(client.frames[0].payload.size(), 9u);
  EXPECT_EQ(client.frames[0].payload[8],
            static_cast<uint8_t>(MsgStatus::kNoSuchService));
}

TEST(NetworkServiceEdgeTest, ShortTxRequestCounted) {
  TestBoard tb;
  auto* netsvc =
      new NetworkService(&tb.os, std::make_unique<Mac100GAdapter>(tb.board.mac100g()));
  tb.os.DeployService(kNetworkService, std::unique_ptr<Accelerator>(netsvc));
  auto* probe = new ProbeAccelerator();
  AppId app = tb.os.CreateApp("a");
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, kNetworkService);
  Message bad;
  bad.opcode = kOpNetSend;
  bad.payload = {1};  // < 4 bytes of addressing.
  probe->EnqueueSend(bad, cap);
  tb.sim.Run(100);
  EXPECT_EQ(netsvc->counters().Get("netsvc.bad_tx"), 1u);
}

// ---------------------------------------------------------------------
// Client retry machinery.
// ---------------------------------------------------------------------

TEST(ClientRetryTest, LostFramesAreRetransmitted) {
  Simulator sim(250.0);
  ExternalNetwork net(10);
  sim.Register(&net);
  // A server that drops the first 3 requests, then echoes.
  struct FlakyServer : ExternalEndpoint, Clocked {
    ExternalNetwork* net = nullptr;
    uint32_t addr = 0;
    int dropped = 0;
    void OnFrame(EthFrame f, Cycle now) override {
      if (dropped < 3) {
        ++dropped;
        return;
      }
      // Reply: u64 id | status 0 | payload (id from offset 4 of request).
      EthFrame reply;
      reply.dst_endpoint = f.src_endpoint;
      reply.src_endpoint = addr;
      const uint64_t id = GetU64(f.payload, 4);
      PutU64(reply.payload, id);
      reply.payload.push_back(0);
      net->Send(std::move(reply), now);
    }
    void Tick(Cycle) override {}
  } server;
  server.net = &net;
  server.addr = net.RegisterEndpoint(&server);
  sim.Register(&server);

  ClientConfig cfg;
  cfg.server_endpoint = server.addr;
  cfg.open_loop = false;
  cfg.concurrency = 1;
  cfg.max_requests = 3;
  cfg.retry_timeout_cycles = 500;
  ClientHost client(cfg, &net, [](uint64_t, Rng&) {
    return ClientRequest{1, {0xaa}};
  });
  sim.Register(&client);
  ASSERT_TRUE(sim.RunUntil([&] { return client.received() >= 3; }, 100000));
  EXPECT_GE(client.timeouts(), 3u);
  EXPECT_EQ(client.errors(), 0u);
}

TEST(ClientOpenLoopTest, OfferedRateApproximatelyHonored) {
  Simulator sim(250.0);
  ExternalNetwork net(1);
  sim.Register(&net);
  struct NullServer : ExternalEndpoint {
    void OnFrame(EthFrame, Cycle) override {}
  } server;
  const uint32_t addr = net.RegisterEndpoint(&server);
  ClientConfig cfg;
  cfg.server_endpoint = addr;
  cfg.open_loop = true;
  cfg.requests_per_1k_cycles = 5.0;
  cfg.retry_timeout_cycles = 1 << 30;  // No retries in this test.
  ClientHost client(cfg, &net, [](uint64_t, Rng&) {
    return ClientRequest{1, {}};
  });
  sim.Register(&client);
  sim.Run(100000);
  // ~5 per 1k cycles over 100k cycles = ~500.
  EXPECT_NEAR(static_cast<double>(client.sent()), 500.0, 75.0);
}

// ---------------------------------------------------------------------
// Hosted baseline edge: bounded ingress queue.
// ---------------------------------------------------------------------

TEST(HostedEdgeTest, IngressOverflowDrops) {
  Simulator sim;
  ExternalNetwork net(1);
  sim.Register(&net);
  HostedConfig cfg;
  HostedSystem hosted(cfg, sim, &net);
  struct Sink : ExternalEndpoint {
    void OnFrame(EthFrame, Cycle) override {}
  } client;
  const uint32_t client_addr = net.RegisterEndpoint(&client);
  for (uint32_t i = 0; i < kHostMaxQueueDepth + 42; ++i) {
    EthFrame f;
    f.src_endpoint = client_addr;
    f.dst_endpoint = 0;
    f.payload = {1};
    net.Send(std::move(f), sim.now());
  }
  sim.Run(10);
  EXPECT_GT(hosted.dropped(), 0u);
}

// ---------------------------------------------------------------------
// Energy model sanity.
// ---------------------------------------------------------------------

TEST(EnergyModelTest, HostCpuMicrojoules) {
  EnergyModel em;
  em.host_cpu_watts = 10.0;
  // 250e6 cycles at 250 MHz = 1 second -> 10 J = 1e7 uJ.
  EXPECT_NEAR(em.HostCpuMicrojoules(250'000'000, 250.0), 1e7, 1.0);
  EXPECT_DOUBLE_EQ(em.HostCpuMicrojoules(0, 250.0), 0.0);
}

// ---------------------------------------------------------------------
// Logging.
// ---------------------------------------------------------------------

TEST(LoggingTest, LevelsFilter) {
  SetLogLevel(LogLevel::kWarn);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarn);
  // Below threshold: no crash, no output assertion needed — exercising the
  // path is the point.
  APIARY_LOG(kDebug) << "hidden " << 42;
  APIARY_LOG(kError) << "visible " << 43;
  SetLogLevel(LogLevel::kOff);
  APIARY_LOG(kError) << "suppressed";
}

// ---------------------------------------------------------------------
// Frame payload helper.
// ---------------------------------------------------------------------

TEST(FramePayloadTest, HeaderThenPixels) {
  const std::vector<uint8_t> pixels = {9, 8, 7, 6};
  const auto payload = FrameToRequestPayload(2, 2, pixels);
  ASSERT_EQ(payload.size(), 12u);
  EXPECT_EQ(GetU32(payload, 0), 2u);
  EXPECT_EQ(GetU32(payload, 4), 2u);
  EXPECT_EQ(payload[8], 9);
  EXPECT_EQ(payload[11], 6);
}

}  // namespace
}  // namespace apiary
