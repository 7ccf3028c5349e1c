// Tests for the extension subsystems: the DMA service (two-grant copies)
// and the remote bridge (cross-board service invocation).
#include <gtest/gtest.h>

#include "src/accel/echo.h"
#include "src/core/service_ids.h"
#include "src/services/dma_service.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/services/remote_bridge.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// ---------------------------------------------------------------------
// DMA service.
// ---------------------------------------------------------------------

struct DmaFixture {
  explicit DmaFixture(TestBoard& tb) : board(tb) {
    tb.os.DeployService(kMemoryService,
                        std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
    dma = new DmaService(&tb.board.memory());
    tb.os.DeployService(kDmaService, std::unique_ptr<Accelerator>(dma));
    app = tb.os.CreateApp("user");
    probe = new ProbeAccelerator();
    probe_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
    to_mem = tb.os.GrantSendToService(probe_tile, kMemoryService);
    to_dma = tb.os.GrantSendToService(probe_tile, kDmaService);
    src_cap = *tb.os.GrantMemory(probe_tile, 8192, kRightRead | kRightWrite);
    dst_cap = *tb.os.GrantMemory(probe_tile, 8192, kRightRead | kRightWrite);
  }

  // Resolves the physical segment backing a capability (test-side peek).
  Segment SegmentOf(CapRef ref) {
    return board.os.monitor(probe_tile).cap_table().Lookup(ref)->segment;
  }

  TestBoard& board;
  DmaService* dma;
  ProbeAccelerator* probe;
  AppId app = kInvalidApp;
  TileId probe_tile = kInvalidTile;
  CapRef to_mem = kInvalidCapRef;
  CapRef to_dma = kInvalidCapRef;
  CapRef src_cap = kInvalidCapRef;
  CapRef dst_cap = kInvalidCapRef;
};

TEST(DmaServiceTest, CopiesBetweenSegments) {
  TestBoard tb;
  DmaFixture fx(tb);
  // Seed the source segment with a pattern (debug backdoor).
  std::vector<uint8_t> pattern(2048);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7);
  }
  const Segment src = fx.SegmentOf(fx.src_cap);
  const Segment dst = fx.SegmentOf(fx.dst_cap);
  tb.board.memory().DebugWrite(src.base + 100, pattern);

  Message copy;
  copy.opcode = kOpDmaCopy;
  PutU64(copy.payload, 100);  // src offset
  PutU64(copy.payload, 500);  // dst offset
  PutU32(copy.payload, static_cast<uint32_t>(pattern.size()));
  fx.probe->EnqueueSend(copy, fx.to_dma, fx.src_cap, fx.dst_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 100000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(GetU32(fx.probe->received[0].payload, 0), pattern.size());
  EXPECT_EQ(tb.board.memory().DebugRead(dst.base + 500, pattern.size()), pattern);
}

TEST(DmaServiceTest, RefusesWithoutBothGrants) {
  TestBoard tb;
  DmaFixture fx(tb);
  Message copy;
  copy.opcode = kOpDmaCopy;
  PutU64(copy.payload, 0);
  PutU64(copy.payload, 0);
  PutU32(copy.payload, 64);
  // Only the source capability presented.
  fx.probe->EnqueueSend(copy, fx.to_dma, fx.src_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 100000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNoCapability);
  EXPECT_EQ(fx.dma->counters().Get("dma.no_dst_grant"), 1u);
}

TEST(DmaServiceTest, RefusesOutOfBoundsCopy) {
  TestBoard tb;
  DmaFixture fx(tb);
  Message copy;
  copy.opcode = kOpDmaCopy;
  PutU64(copy.payload, 8000);  // 8000 + 1024 > 8192.
  PutU64(copy.payload, 0);
  PutU32(copy.payload, 1024);
  fx.probe->EnqueueSend(copy, fx.to_dma, fx.src_cap, fx.dst_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 100000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kSegFault);
}

TEST(DmaServiceTest, ReadOnlyDestinationRefused) {
  TestBoard tb;
  DmaFixture fx(tb);
  const CapRef ro = *tb.os.GrantMemory(fx.probe_tile, 4096, kRightRead);
  Message copy;
  copy.opcode = kOpDmaCopy;
  PutU64(copy.payload, 0);
  PutU64(copy.payload, 0);
  PutU32(copy.payload, 64);
  fx.probe->EnqueueSend(copy, fx.to_dma, fx.src_cap, ro);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 100000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNoCapability);
}

TEST(DmaServiceTest, LargeCopyCompletes) {
  TestBoard tb;
  DmaFixture fx(tb);
  const CapRef big_src = *tb.os.GrantMemory(fx.probe_tile, 1 << 20, kRightRead | kRightWrite);
  const CapRef big_dst = *tb.os.GrantMemory(fx.probe_tile, 1 << 20, kRightRead | kRightWrite);
  const Segment src = fx.SegmentOf(big_src);
  const Segment dst = fx.SegmentOf(big_dst);
  std::vector<uint8_t> pattern(1 << 20);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i ^ (i >> 8));
  }
  tb.board.memory().DebugWrite(src.base, pattern);
  Message copy;
  copy.opcode = kOpDmaCopy;
  PutU64(copy.payload, 0);
  PutU64(copy.payload, 0);
  PutU32(copy.payload, 1 << 20);
  fx.probe->EnqueueSend(copy, fx.to_dma, big_src, big_dst);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 2'000'000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(tb.board.memory().DebugRead(dst.base, 1 << 20), pattern);
}

// ---------------------------------------------------------------------
// Remote bridge: two boards on one external network.
// ---------------------------------------------------------------------

struct TwoBoards {
  TwoBoards()
      : net(50),
        board_a(TestBoard::MakeConfig(TestBoardOptions{}), sim, &net),
        board_b(TestBoard::MakeConfig(TestBoardOptions{}), sim, &net),
        os_a(board_a),
        os_b(board_b) {
    sim.Register(&net);
    os_a.DeployService(kNetworkService,
                       std::make_unique<NetworkService>(
                           &os_a, std::make_unique<Mac100GAdapter>(board_a.mac100g())));
    os_b.DeployService(kNetworkService,
                       std::make_unique<NetworkService>(
                           &os_b, std::make_unique<Mac100GAdapter>(board_b.mac100g())));
    bridge_a = new RemoteBridge();
    bridge_b = new RemoteBridge();
    bridge_a_tile = os_a.Deploy(os_a.CreateApp("bridge"),
                                std::unique_ptr<Accelerator>(bridge_a), &bridge_a_svc);
    bridge_b_tile = os_b.Deploy(os_b.CreateApp("bridge"),
                                std::unique_ptr<Accelerator>(bridge_b), &bridge_b_svc);
    (void)os_a.GrantSendToService(bridge_a_tile, kNetworkService);
    (void)os_b.GrantSendToService(bridge_b_tile, kNetworkService);
  }

  Simulator sim{250.0};
  ExternalNetwork net;
  Board board_a;
  Board board_b;
  ApiaryOs os_a;
  ApiaryOs os_b;
  RemoteBridge* bridge_a;
  RemoteBridge* bridge_b;
  ServiceId bridge_a_svc = 0;
  ServiceId bridge_b_svc = 0;
  TileId bridge_a_tile = kInvalidTile;
  TileId bridge_b_tile = kInvalidTile;
};

TEST(RemoteBridgeTest, CrossBoardServiceCall) {
  TwoBoards tw;
  // Board B hosts an echo service, exposed to remote callers.
  auto* echo = new EchoAccelerator(10);
  ServiceId echo_svc = 0;
  tw.os_b.Deploy(tw.os_b.CreateApp("svc"), std::unique_ptr<Accelerator>(echo), &echo_svc);
  tw.bridge_b->ExposeService(echo_svc,
                             tw.os_b.GrantSendToService(tw.bridge_b_tile, echo_svc));

  // Board A: a probe calls the remote echo through bridge A.
  auto* probe = new ProbeAccelerator();
  const TileId pt = tw.os_a.Deploy(tw.os_a.CreateApp("user"),
                                   std::unique_ptr<Accelerator>(probe));
  const CapRef to_bridge = tw.os_a.GrantSendToService(pt, tw.bridge_a_svc);
  tw.sim.Run(3000);  // MAC bring-up on both boards.

  Message call;
  call.opcode = kOpRemoteCall;
  PutU32(call.payload, tw.board_b.mac100g()->address());
  PutU32(call.payload, tw.bridge_b_svc);
  PutU32(call.payload, echo_svc);
  call.payload.push_back(static_cast<uint8_t>(kOpEcho));
  call.payload.push_back(static_cast<uint8_t>(kOpEcho >> 8));
  call.payload.insert(call.payload.end(), {0xca, 0xfe});
  probe->EnqueueSend(call, to_bridge);

  ASSERT_TRUE(tw.sim.RunUntil([&] { return !probe->received.empty(); }, 200000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(probe->received[0].payload, (std::vector<uint8_t>{0xca, 0xfe}));
  EXPECT_EQ(echo->served(), 1u);
  EXPECT_EQ(tw.bridge_a->counters().Get("bridge.calls_out"), 1u);
  EXPECT_EQ(tw.bridge_b->counters().Get("bridge.calls_in"), 1u);
}

TEST(RemoteBridgeTest, UnexposedServiceDenied) {
  TwoBoards tw;
  auto* echo = new EchoAccelerator(10);
  ServiceId echo_svc = 0;
  tw.os_b.Deploy(tw.os_b.CreateApp("svc"), std::unique_ptr<Accelerator>(echo), &echo_svc);
  // NOTE: deliberately not exposed on bridge B.

  auto* probe = new ProbeAccelerator();
  const TileId pt = tw.os_a.Deploy(tw.os_a.CreateApp("user"),
                                   std::unique_ptr<Accelerator>(probe));
  const CapRef to_bridge = tw.os_a.GrantSendToService(pt, tw.bridge_a_svc);
  tw.sim.Run(3000);

  Message call;
  call.opcode = kOpRemoteCall;
  PutU32(call.payload, tw.board_b.mac100g()->address());
  PutU32(call.payload, tw.bridge_b_svc);
  PutU32(call.payload, echo_svc);
  call.payload.push_back(static_cast<uint8_t>(kOpEcho));
  call.payload.push_back(static_cast<uint8_t>(kOpEcho >> 8));
  probe->EnqueueSend(call, to_bridge);

  ASSERT_TRUE(tw.sim.RunUntil([&] { return !probe->received.empty(); }, 200000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kDenied);
  EXPECT_EQ(echo->served(), 0u);
  EXPECT_EQ(tw.bridge_b->counters().Get("bridge.calls_denied"), 1u);
}

TEST(RemoteBridgeTest, ManyConcurrentCallsAllComplete) {
  TwoBoards tw;
  auto* echo = new EchoAccelerator(5);
  ServiceId echo_svc = 0;
  tw.os_b.Deploy(tw.os_b.CreateApp("svc"), std::unique_ptr<Accelerator>(echo), &echo_svc);
  tw.bridge_b->ExposeService(echo_svc,
                             tw.os_b.GrantSendToService(tw.bridge_b_tile, echo_svc));
  auto* probe = new ProbeAccelerator();
  const TileId pt = tw.os_a.Deploy(tw.os_a.CreateApp("user"),
                                   std::unique_ptr<Accelerator>(probe));
  const CapRef to_bridge = tw.os_a.GrantSendToService(pt, tw.bridge_a_svc);
  tw.sim.Run(3000);

  for (uint8_t i = 0; i < 20; ++i) {
    Message call;
    call.opcode = kOpRemoteCall;
    PutU32(call.payload, tw.board_b.mac100g()->address());
    PutU32(call.payload, tw.bridge_b_svc);
    PutU32(call.payload, echo_svc);
    call.payload.push_back(static_cast<uint8_t>(kOpEcho));
    call.payload.push_back(static_cast<uint8_t>(kOpEcho >> 8));
    call.payload.push_back(i);
    probe->EnqueueSend(call, to_bridge);
  }
  ASSERT_TRUE(tw.sim.RunUntil([&] { return probe->received.size() >= 20; }, 500000));
  int ok = 0;
  for (const auto& r : probe->received) {
    ok += r.status == MsgStatus::kOk ? 1 : 0;
  }
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(echo->served(), 20u);
}

// ---------------------------------------------------------------------
// Single-VC ablation plumbing.
// ---------------------------------------------------------------------

TEST(SingleVcTest, ForcedVcStillDeliversCorrectly) {
  Simulator sim;
  MeshConfig cfg{4, 4, 8, 512};
  cfg.force_single_vc = true;
  Mesh mesh(cfg);
  sim.Register(&mesh);
  PacketRef p(new NocPacket());
  p->src = 0;
  p->dst = 15;
  p->vc = Vc::kResponse;  // Will be forced onto the request VC.
  p->payload = {1, 2, 3};
  ASSERT_TRUE(mesh.ni(0).Inject(p, sim.now()));
  ASSERT_TRUE(sim.RunUntil([&] { return mesh.ni(15).HasDeliverable(); }, 1000));
  EXPECT_EQ(mesh.ni(15).Retrieve()->vc, Vc::kRequest);
}

}  // namespace
}  // namespace apiary
