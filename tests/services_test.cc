// Tests for the Apiary OS services: memory, name, management (watchdog),
// network (with both MAC adapters), gateway and load balancer.
#include <gtest/gtest.h>

#include "src/accel/echo.h"
#include "src/core/service_ids.h"
#include "src/services/gateway.h"
#include "src/services/load_balancer.h"
#include "src/services/memory_service.h"
#include "src/services/mgmt_service.h"
#include "src/services/network_service.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// Deploys the memory service and one probe, granting the probe access.
struct MemoryFixture {
  explicit MemoryFixture(TestBoard& tb) : board(tb) {
    memsvc = new MemoryService(&tb.os, &tb.board.memory());
    svc_tile = tb.os.DeployService(kMemoryService, std::unique_ptr<Accelerator>(memsvc));
    probe = new ProbeAccelerator();
    app = tb.os.CreateApp("tenant");
    probe_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
    cap = tb.os.GrantSendToService(probe_tile, kMemoryService);
  }

  TestBoard& board;
  MemoryService* memsvc;
  ProbeAccelerator* probe;
  AppId app = kInvalidApp;
  TileId svc_tile = kInvalidTile;
  TileId probe_tile = kInvalidTile;
  CapRef cap = kInvalidCapRef;
};

TEST(MemoryServiceTest, AllocGrantsCapability) {
  TestBoard tb;
  MemoryFixture fx(tb);
  Message alloc;
  alloc.opcode = kOpMemAlloc;
  PutU64(alloc.payload, 8192);
  PutU32(alloc.payload, kRightRead | kRightWrite);
  fx.probe->EnqueueSend(alloc, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  const Message& reply = fx.probe->received[0];
  EXPECT_EQ(reply.status, MsgStatus::kOk);
  ASSERT_GE(reply.payload.size(), 12u);
  const CapRef mem = GetU32(reply.payload, 0);
  EXPECT_NE(mem, kInvalidCapRef);
  EXPECT_EQ(GetU64(reply.payload, 4), 8192u);
  EXPECT_EQ(tb.os.segments().bytes_allocated(), 8192u);
}

TEST(MemoryServiceTest, WriteThenReadRoundTrip) {
  TestBoard tb;
  MemoryFixture fx(tb);
  Message alloc;
  alloc.opcode = kOpMemAlloc;
  PutU64(alloc.payload, 4096);
  PutU32(alloc.payload, kRightRead | kRightWrite);
  fx.probe->EnqueueSend(alloc, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  const CapRef mem = GetU32(fx.probe->received[0].payload, 0);
  fx.probe->received.clear();

  Message write;
  write.opcode = kOpMemWrite;
  PutU64(write.payload, 100);
  const std::vector<uint8_t> data = {10, 20, 30, 40};
  write.payload.insert(write.payload.end(), data.begin(), data.end());
  fx.probe->EnqueueSend(write, fx.cap, mem);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  fx.probe->received.clear();

  Message read;
  read.opcode = kOpMemRead;
  PutU64(read.payload, 100);
  PutU32(read.payload, 4);
  fx.probe->EnqueueSend(read, fx.cap, mem);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(fx.probe->received[0].payload, data);
}

TEST(MemoryServiceTest, AccessWithoutGrantRefused) {
  TestBoard tb;
  MemoryFixture fx(tb);
  tb.sim.Run(3);
  Message read;
  read.opcode = kOpMemRead;
  PutU64(read.payload, 0);
  PutU32(read.payload, 64);
  // No memory capability presented -> grant invalid -> kNoCapability.
  fx.probe->EnqueueSend(read, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNoCapability);
  EXPECT_EQ(fx.memsvc->counters().Get("memsvc.access_no_grant"), 1u);
}

TEST(MemoryServiceTest, OutOfSegmentAccessSegFaults) {
  TestBoard tb;
  MemoryFixture fx(tb);
  Message alloc;
  alloc.opcode = kOpMemAlloc;
  PutU64(alloc.payload, 1024);
  PutU32(alloc.payload, kRightRead | kRightWrite);
  fx.probe->EnqueueSend(alloc, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  const CapRef mem = GetU32(fx.probe->received[0].payload, 0);
  fx.probe->received.clear();

  Message read;
  read.opcode = kOpMemRead;
  PutU64(read.payload, 1000);  // offset 1000 + len 64 > 1024.
  PutU32(read.payload, 64);
  fx.probe->EnqueueSend(read, fx.cap, mem);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kSegFault);
  EXPECT_EQ(fx.memsvc->counters().Get("memsvc.seg_faults"), 1u);
}

TEST(MemoryServiceTest, ReadOnlyCapCannotWrite) {
  TestBoard tb;
  MemoryFixture fx(tb);
  Message alloc;
  alloc.opcode = kOpMemAlloc;
  PutU64(alloc.payload, 1024);
  PutU32(alloc.payload, kRightRead);  // No write right.
  fx.probe->EnqueueSend(alloc, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  const CapRef mem = GetU32(fx.probe->received[0].payload, 0);
  fx.probe->received.clear();

  Message write;
  write.opcode = kOpMemWrite;
  PutU64(write.payload, 0);
  write.payload.push_back(7);
  fx.probe->EnqueueSend(write, fx.cap, mem);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNoCapability);
}

TEST(MemoryServiceTest, FreeRevokesAndReleases) {
  TestBoard tb;
  MemoryFixture fx(tb);
  Message alloc;
  alloc.opcode = kOpMemAlloc;
  PutU64(alloc.payload, 2048);
  PutU32(alloc.payload, kRightRead | kRightWrite);
  fx.probe->EnqueueSend(alloc, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  const CapRef mem = GetU32(fx.probe->received[0].payload, 0);
  fx.probe->received.clear();

  Message free_msg;
  free_msg.opcode = kOpMemFree;
  PutU32(free_msg.payload, mem);
  fx.probe->EnqueueSend(free_msg, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(tb.os.segments().bytes_allocated(), 0u);
}

TEST(MemoryServiceTest, AllocBeyondCapacityFails) {
  TestBoard tb;
  MemoryFixture fx(tb);
  Message alloc;
  alloc.opcode = kOpMemAlloc;
  PutU64(alloc.payload, 1ull << 40);
  PutU32(alloc.payload, kRightRead);
  fx.probe->EnqueueSend(alloc, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 5000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNoMemory);
}

TEST(MgmtServiceTest, WatchdogFailStopsSilentTile) {
  TestBoard tb;
  auto* mgmt = new MgmtService(&tb.os);
  tb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  auto* probe = new ProbeAccelerator();
  AppId app = tb.os.CreateApp("a");
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, kMgmtService);
  // Ask to be watched with a 500-cycle deadline, then go silent.
  Message watch;
  watch.opcode = kOpMgmtWatch;
  PutU64(watch.payload, 500);
  probe->EnqueueSend(watch, cap);
  ASSERT_TRUE(tb.sim.RunUntil(
      [&] { return tb.os.monitor(pt).fault_state() == TileFaultState::kStopped; }, 10000));
  EXPECT_EQ(mgmt->counters().Get("mgmt.watchdog_trips"), 1u);
  ASSERT_FALSE(mgmt->fault_log().empty());
}

TEST(MgmtServiceTest, HeartbeatsKeepTileAlive) {
  TestBoard tb;
  auto* mgmt = new MgmtService(&tb.os);
  tb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  // A heartbeating accelerator.
  class Beater : public Accelerator {
   public:
    void OnMessage(const Message&, TileApi&) override {}
    void OnBoot(TileApi& api) override {
      cap = api.LookupService(kMgmtService);
      Message watch;
      watch.opcode = kOpMgmtWatch;
      PutU64(watch.payload, 500);
      api.Send(std::move(watch), cap);
    }
    void Tick(TileApi& api) override {
      if (api.now() % 200 == 0 && cap != kInvalidCapRef) {
        Message hb;
        hb.opcode = kOpMgmtHeartbeat;
        api.Send(std::move(hb), cap);
      }
    }
    std::string name() const override { return "beater"; }
    uint32_t LogicCellCost() const override { return 1000; }
    CapRef cap = kInvalidCapRef;
  };
  AppId app = tb.os.CreateApp("a");
  const TileId pt = tb.os.Deploy(app, std::make_unique<Beater>());
  (void)tb.os.GrantSendToService(pt, kMgmtService);
  tb.sim.Run(5000);
  EXPECT_EQ(tb.os.monitor(pt).fault_state(), TileFaultState::kHealthy);
  EXPECT_EQ(mgmt->counters().Get("mgmt.watchdog_trips"), 0u);
}

TEST(MgmtServiceTest, ReportsCollected) {
  TestBoard tb;
  auto* mgmt = new MgmtService(&tb.os);
  tb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  auto* probe = new ProbeAccelerator();
  AppId app = tb.os.CreateApp("a");
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, kMgmtService);
  Message report;
  report.opcode = kOpMgmtReport;
  const std::string text = "saw a parity error";
  report.payload.assign(text.begin(), text.end());
  probe->EnqueueSend(report, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !mgmt->fault_log().empty(); }, 5000));
  EXPECT_NE(mgmt->fault_log()[0].find("parity"), std::string::npos);
}

// Network service over each MAC flavor: an external frame reaches a
// registered app and its reply returns — proving the adapter hides the
// bring-up differences.
class NetworkServiceMacTest : public ::testing::TestWithParam<MacKind> {};

TEST_P(NetworkServiceMacTest, InboundFrameReachesRegisteredService) {
  TestBoardOptions opts;
  opts.mac = GetParam();
  TestBoard tb(opts);
  std::unique_ptr<MacAdapter> adapter;
  if (GetParam() == MacKind::k10G) {
    adapter = std::make_unique<Mac10GAdapter>(tb.board.mac10g());
  } else {
    adapter = std::make_unique<Mac100GAdapter>(tb.board.mac100g());
  }
  auto* netsvc = new NetworkService(&tb.os, std::move(adapter));
  const TileId nt = tb.os.DeployService(kNetworkService, std::unique_ptr<Accelerator>(netsvc));
  ASSERT_NE(nt, kInvalidTile);

  auto* probe = new ProbeAccelerator();
  AppId app = tb.os.CreateApp("a");
  ServiceId probe_svc = 0;
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe), &probe_svc);
  const CapRef to_net = tb.os.GrantSendToService(pt, kNetworkService);

  // The probe registers for inbound traffic.
  Message reg;
  reg.opcode = kOpNetRegister;
  probe->EnqueueSend(reg, to_net);
  ASSERT_TRUE(tb.sim.RunUntil(
      [&] {
        return !probe->received.empty() &&
               probe->received[0].opcode == kOpNetRegister;
      },
      20000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  probe->received.clear();
  tb.sim.Run(3000);  // Wait out the MAC bring-up before offering frames.

  // An external frame addressed to the probe's logical service.
  struct Sink : ExternalEndpoint {
    std::vector<EthFrame> frames;
    void OnFrame(EthFrame f, Cycle) override { frames.push_back(std::move(f)); }
  } client;
  const uint32_t client_addr = tb.net.RegisterEndpoint(&client);
  const uint32_t board_addr =
      GetParam() == MacKind::k10G ? tb.board.mac10g()->address() : tb.board.mac100g()->address();
  EthFrame frame;
  frame.src_endpoint = client_addr;
  frame.dst_endpoint = board_addr;
  PutU32(frame.payload, probe_svc);
  frame.payload.push_back(0x42);
  tb.net.Send(std::move(frame), tb.sim.now());

  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 50000));
  const Message& delivered = probe->received[0];
  EXPECT_EQ(delivered.opcode, kOpNetDeliver);
  ASSERT_GE(delivered.payload.size(), 5u);
  EXPECT_EQ(GetU32(delivered.payload, 0), client_addr);
  EXPECT_EQ(delivered.payload[4], 0x42);

  // Outbound: the probe replies to the client through kOpNetSend.
  Message out;
  out.opcode = kOpNetSend;
  PutU32(out.payload, client_addr);
  out.payload.push_back(0x99);
  probe->EnqueueSend(out, to_net);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !client.frames.empty(); }, 50000));
  ASSERT_EQ(client.frames[0].payload.size(), 1u);
  EXPECT_EQ(client.frames[0].payload[0], 0x99);
}

INSTANTIATE_TEST_SUITE_P(Macs, NetworkServiceMacTest,
                         ::testing::Values(MacKind::k10G, MacKind::k100G));

TEST(NetworkServiceTest, UnroutableInboundDropped) {
  TestBoard tb;
  auto* netsvc =
      new NetworkService(&tb.os, std::make_unique<Mac100GAdapter>(tb.board.mac100g()));
  tb.os.DeployService(kNetworkService, std::unique_ptr<Accelerator>(netsvc));
  struct Sink : ExternalEndpoint {
    void OnFrame(EthFrame, Cycle) override {}
  } client;
  const uint32_t client_addr = tb.net.RegisterEndpoint(&client);
  tb.sim.Run(3000);  // Let the MAC come up.
  EthFrame frame;
  frame.src_endpoint = client_addr;
  frame.dst_endpoint = tb.board.mac100g()->address();
  PutU32(frame.payload, 999);  // Nobody registered 999.
  frame.payload.push_back(1);
  tb.net.Send(std::move(frame), tb.sim.now());
  tb.sim.Run(2000);
  EXPECT_EQ(netsvc->counters().Get("netsvc.rx_unroutable"), 1u);
}

TEST(GatewayTest, BridgesClientToBackend) {
  TestBoard tb;
  auto* netsvc =
      new NetworkService(&tb.os, std::make_unique<Mac100GAdapter>(tb.board.mac100g()));
  tb.os.DeployService(kNetworkService, std::unique_ptr<Accelerator>(netsvc));

  AppId app = tb.os.CreateApp("svc");
  auto* echo = new EchoAccelerator(10);
  ServiceId echo_svc = 0;
  const TileId echo_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &echo_svc);
  auto* gw = new NetGateway();
  ServiceId gw_svc = 0;
  const TileId gw_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)tb.os.GrantSendToService(gw_tile, kNetworkService);
  gw->SetBackend(tb.os.GrantSendToService(gw_tile, echo_svc));
  (void)echo_tile;

  struct Sink : ExternalEndpoint {
    std::vector<EthFrame> frames;
    void OnFrame(EthFrame f, Cycle) override { frames.push_back(std::move(f)); }
  } client;
  const uint32_t client_addr = tb.net.RegisterEndpoint(&client);
  tb.sim.Run(3000);  // MAC bring-up + gateway registration.

  EthFrame frame;
  frame.src_endpoint = client_addr;
  frame.dst_endpoint = tb.board.mac100g()->address();
  PutU32(frame.payload, gw_svc);
  PutU64(frame.payload, 777);  // client_id
  frame.payload.push_back(static_cast<uint8_t>(kOpEcho));
  frame.payload.push_back(static_cast<uint8_t>(kOpEcho >> 8));
  frame.payload.push_back(0xaa);
  tb.net.Send(std::move(frame), tb.sim.now());

  ASSERT_TRUE(tb.sim.RunUntil([&] { return !client.frames.empty(); }, 100000));
  const auto& reply = client.frames[0].payload;
  ASSERT_GE(reply.size(), 10u);
  EXPECT_EQ(GetU64(reply, 0), 777u);                        // client_id echoed
  EXPECT_EQ(reply[8], static_cast<uint8_t>(MsgStatus::kOk));  // status
  EXPECT_EQ(reply[9], 0xaa);                                 // payload echoed
}

TEST(LoadBalancerTest, SpreadsAcrossBackends) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  std::vector<EchoAccelerator*> backends;
  for (int i = 0; i < 3; ++i) {
    auto* echo = new EchoAccelerator(50);
    ServiceId svc = 0;
    tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
    lb->AddBackend(tb.os.GrantSendToService(lb_tile, svc));
    backends.push_back(echo);
  }
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  for (int i = 0; i < 9; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {static_cast<uint8_t>(i)};
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 9; }, 100000));
  for (const auto& r : probe->received) {
    EXPECT_EQ(r.status, MsgStatus::kOk);
  }
  // Least-outstanding + RR should spread 9 requests 3/3/3.
  for (auto* b : backends) {
    EXPECT_EQ(b->served(), 3u);
  }
  EXPECT_EQ(lb->counters().Get("lb.forwards"), 9u);
  EXPECT_EQ(lb->counters().Get("lb.responses"), 9u);
}

TEST(LoadBalancerTest, NoBackendsRejectsGracefully) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  Message msg;
  msg.opcode = kOpEcho;
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kNoSuchService);
}

TEST(LoadBalancerTest, RoutesAroundFailStoppedBackendEventually) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  ServiceId s1 = 0;
  ServiceId s2 = 0;
  auto* b1 = new EchoAccelerator(10);
  auto* b2 = new EchoAccelerator(10);
  const TileId t1 = tb.os.Deploy(app, std::unique_ptr<Accelerator>(b1), &s1);
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(b2), &s2);
  lb->AddBackend(tb.os.GrantSendToService(lb_tile, s1));
  lb->AddBackend(tb.os.GrantSendToService(lb_tile, s2));
  tb.sim.Run(5);
  tb.os.FailStop(t1, "dead");
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  // Send several requests; those hitting the dead backend come back as
  // errors (bounced), the rest succeed through b2.
  for (int i = 0; i < 6; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 6; }, 100000));
  int ok = 0;
  int failed = 0;
  for (const auto& r : probe->received) {
    if (r.status == MsgStatus::kOk) {
      ++ok;
    } else {
      ++failed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(failed, 0);  // Fail-stop is visible, not silent.
  EXPECT_GT(b2->served(), 0u);
}

TEST(LoadBalancerTest, LbConfigReplacesBackendSetOverTheWire) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  auto* old_backend = new EchoAccelerator(10);
  ServiceId old_svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(old_backend), &old_svc);
  lb->AddBackend(tb.os.GrantSendToService(lb_tile, old_svc));

  // Two fresh backends; the kernel mints the LB tile's endpoint caps, and a
  // kOpLbConfig message carries them to the balancer.
  std::vector<EchoAccelerator*> fresh;
  Message config;
  config.opcode = kOpLbConfig;
  for (int i = 0; i < 2; ++i) {
    auto* echo = new EchoAccelerator(10);
    ServiceId svc = 0;
    tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
    PutU32(config.payload, tb.os.GrantSendToService(lb_tile, svc));
    fresh.push_back(echo);
  }
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  probe->EnqueueSend(config, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  ASSERT_GE(probe->received[0].payload.size(), 4u);
  EXPECT_EQ(GetU32(probe->received[0].payload, 0), 2u);  // New backend count.
  EXPECT_EQ(lb->num_backends(), 2u);
  EXPECT_EQ(lb->counters().Get("lb.configs"), 1u);

  // Traffic now lands on the fresh backends only.
  for (int i = 0; i < 4; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 5; }, 100000));
  EXPECT_EQ(old_backend->served(), 0u);
  EXPECT_EQ(fresh[0]->served() + fresh[1]->served(), 4u);
}

TEST(LoadBalancerTest, MembershipChurnMidFlightKeepsResponsesCorrelated) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  // A slow original backend, so requests are still in flight when the
  // membership changes under them.
  auto* old_backend = new EchoAccelerator(500);
  ServiceId old_svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(old_backend), &old_svc);
  lb->AddBackend(tb.os.GrantSendToService(lb_tile, old_svc));

  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  for (uint8_t i = 0; i < 4; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {i};
    probe->EnqueueSend(msg, cap);
  }
  // All four forwarded to the slow backend, none answered yet.
  ASSERT_TRUE(tb.sim.RunUntil([&] { return lb->in_flight() == 4; }, 10'000));
  ASSERT_TRUE(probe->received.empty());

  // Swap the entire backend set mid-flight.
  std::vector<EchoAccelerator*> fresh;
  Message config;
  config.opcode = kOpLbConfig;
  for (int i = 0; i < 2; ++i) {
    auto* echo = new EchoAccelerator(10);
    ServiceId svc = 0;
    tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
    PutU32(config.payload, tb.os.GrantSendToService(lb_tile, svc));
    fresh.push_back(echo);
  }
  probe->EnqueueSend(config, cap);

  // New traffic routes to the fresh set while the old responses drain.
  for (uint8_t i = 4; i < 8; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {i};
    probe->EnqueueSend(msg, cap);
  }
  // 4 old echoes + config ack + 4 new echoes, none dropped or misrouted.
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 9; }, 100'000));
  std::vector<bool> seen(8, false);
  for (const Message& r : probe->received) {
    EXPECT_EQ(r.status, MsgStatus::kOk);
    if (r.opcode == kOpEcho) {
      ASSERT_EQ(r.payload.size(), 1u);
      ASSERT_LT(r.payload[0], 8);
      EXPECT_FALSE(seen[r.payload[0]]);  // Correlated exactly once.
      seen[r.payload[0]] = true;
    }
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
  EXPECT_EQ(old_backend->served(), 4u);
  EXPECT_EQ(fresh[0]->served() + fresh[1]->served(), 4u);
  EXPECT_EQ(lb->counters().Get("lb.orphan_responses"), 0u);
  EXPECT_EQ(lb->counters().Get("lb.reply_failures"), 0u);
  EXPECT_EQ(lb->InFlightOn(kInvalidCapRef), 0u);
  EXPECT_EQ(lb->in_flight(), 0u);
}

TEST(LoadBalancerTest, LbConfigRejectsMalformedPayload) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("svc");
  auto* lb = new LoadBalancer();
  ServiceId lb_svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, lb_svc);
  Message config;
  config.opcode = kOpLbConfig;
  config.payload = {1, 2, 3};  // Not a whole number of u32 CapRefs.
  probe->EnqueueSend(config, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kBadRequest);
  EXPECT_EQ(lb->num_backends(), 0u);
}

TEST(MgmtServiceTest, QueryReturnsCounters) {
  TestBoard tb;
  auto* mgmt = new MgmtService(&tb.os);
  tb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  auto* probe = new ProbeAccelerator();
  AppId app = tb.os.CreateApp("a");
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, kMgmtService);
  Message report;
  report.opcode = kOpMgmtReport;
  const std::string event = "tile acting up";
  report.payload.assign(event.begin(), event.end());
  probe->EnqueueSend(report, cap);
  Message query;
  query.opcode = kOpMgmtQuery;
  probe->EnqueueSend(query, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() == 2; }, 10000));
  const auto& reply = probe->received[1];
  EXPECT_EQ(reply.status, MsgStatus::kOk);
  const std::string counters(reply.payload.begin(), reply.payload.end());
  EXPECT_NE(counters.find("mgmt.reports"), std::string::npos) << counters;
}

}  // namespace
}  // namespace apiary
