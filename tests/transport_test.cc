// Tests for the reliable transport (ARQ) layer: unit tests against manual
// loss/reorder/duplication, plus end-to-end KV over a lossy fabric.
#include <gtest/gtest.h>

#include "src/accel/echo.h"
#include "src/accel/kv_store.h"
#include "src/core/service_ids.h"
#include "src/services/gateway.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/services/transport.h"
#include "src/workload/client.h"
#include "src/workload/kv_workload.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// Ferry frames between two transports with scripted mutations.
struct Pipe {
  ReliableTransport a;
  ReliableTransport b;
  std::vector<std::vector<uint8_t>> delivered_at_b;
  std::vector<std::vector<uint8_t>> delivered_at_a;

  // Moves all pending frames in both directions; `drop` decides per frame.
  void Exchange(Cycle now, const std::function<bool(int)>& drop = nullptr) {
    int idx = 0;
    for (auto& f : a.Poll(now)) {
      if (drop && drop(idx++)) {
        continue;
      }
      for (auto& payload : b.OnFrame(0, f.bytes, now)) {
        delivered_at_b.push_back(std::move(payload));
      }
    }
    for (auto& f : b.Poll(now)) {
      if (drop && drop(idx++)) {
        continue;
      }
      for (auto& payload : a.OnFrame(0, f.bytes, now)) {
        delivered_at_a.push_back(std::move(payload));
      }
    }
  }
};

TEST(TransportTest, InOrderDeliveryNoLoss) {
  Pipe pipe;
  for (uint8_t i = 0; i < 10; ++i) {
    pipe.a.SendData(0, {i}, 0);
  }
  for (Cycle t = 0; t < 10; ++t) {
    pipe.Exchange(t);
  }
  ASSERT_EQ(pipe.delivered_at_b.size(), 10u);
  for (uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(pipe.delivered_at_b[i][0], i);
  }
  EXPECT_EQ(pipe.a.retransmissions(), 0u);
}

TEST(TransportTest, RecoversFromLoss) {
  Pipe pipe;
  TransportConfig cfg;
  cfg.rto_cycles = 100;
  pipe.a = ReliableTransport(cfg);
  for (uint8_t i = 0; i < 5; ++i) {
    pipe.a.SendData(0, {i}, 0);
  }
  // First exchange: drop frames 1 and 3.
  pipe.Exchange(0, [](int idx) { return idx == 1 || idx == 3; });
  EXPECT_LT(pipe.delivered_at_b.size(), 5u);
  // After the RTO, retransmissions close the gaps.
  for (Cycle t = 100; t < 500; t += 100) {
    pipe.Exchange(t);
  }
  ASSERT_EQ(pipe.delivered_at_b.size(), 5u);
  for (uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(pipe.delivered_at_b[i][0], i);  // Order preserved despite loss.
  }
  EXPECT_GT(pipe.a.retransmissions(), 0u);
}

TEST(TransportTest, DuplicatesDropped) {
  ReliableTransport rx;
  ReliableTransport tx;
  tx.SendData(0, {42}, 0);
  auto frames = tx.Poll(0);
  ASSERT_EQ(frames.size(), 1u);
  auto first = rx.OnFrame(0, frames[0].bytes, 0);
  ASSERT_EQ(first.size(), 1u);
  auto second = rx.OnFrame(0, frames[0].bytes, 1);  // Replayed frame.
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(rx.duplicates_dropped(), 1u);
}

TEST(TransportTest, ReorderingHealed) {
  ReliableTransport rx;
  ReliableTransport tx;
  for (uint8_t i = 0; i < 3; ++i) {
    tx.SendData(0, {i}, 0);
  }
  auto frames = tx.Poll(0);
  ASSERT_EQ(frames.size(), 3u);
  // Deliver 2, 0, 1.
  EXPECT_TRUE(rx.OnFrame(0, frames[2].bytes, 0).empty());  // Gap: buffered.
  auto after0 = rx.OnFrame(0, frames[0].bytes, 1);
  ASSERT_EQ(after0.size(), 1u);
  EXPECT_EQ(after0[0][0], 0);
  auto after1 = rx.OnFrame(0, frames[1].bytes, 2);  // Closes the gap: 1 and 2.
  ASSERT_EQ(after1.size(), 2u);
  EXPECT_EQ(after1[0][0], 1);
  EXPECT_EQ(after1[1][0], 2);
}

TEST(TransportTest, WindowLimitsOutstanding) {
  ReliableTransport tx;
  for (uint32_t i = 0; i < kTransportWindow + 6; ++i) {
    tx.SendData(0, {static_cast<uint8_t>(i)}, 0);
  }
  EXPECT_EQ(tx.Poll(0).size(), kTransportWindow);  // Only a window's worth leaves.
  EXPECT_TRUE(tx.Poll(1).empty());                 // Nothing more until ACKs arrive.
}

TEST(TransportTest, AcksOpenTheWindow) {
  Pipe pipe;
  const uint32_t frames = 3 * kTransportWindow;
  for (uint32_t i = 0; i < frames; ++i) {
    pipe.a.SendData(0, {static_cast<uint8_t>(i)}, 0);
  }
  for (Cycle t = 0; t < 10; ++t) {
    pipe.Exchange(t);
  }
  EXPECT_EQ(pipe.delivered_at_b.size(), frames);
}

TEST(TransportTest, NonTransportFramesIgnored) {
  ReliableTransport rx;
  EXPECT_FALSE(ReliableTransport::IsTransportFrame({1, 2, 3}));
  EXPECT_TRUE(rx.OnFrame(0, {1, 2, 3}, 0).empty());
  EXPECT_EQ(rx.counters().Get("rt.non_transport"), 1u);
}

TEST(TransportTest, PerPeerSequencesIndependent) {
  ReliableTransport tx;
  tx.SendData(5, {1}, 0);
  tx.SendData(9, {2}, 0);
  auto frames = tx.Poll(0);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_NE(frames[0].peer, frames[1].peer);
  // Both carry seq 1 for their own peer, deliverable independently.
  ReliableTransport rx;
  EXPECT_EQ(rx.OnFrame(5, frames[0].peer == 5 ? frames[0].bytes : frames[1].bytes, 0).size(),
            1u);
  EXPECT_EQ(rx.OnFrame(9, frames[0].peer == 9 ? frames[0].bytes : frames[1].bytes, 0).size(),
            1u);
}

// End to end: the full KV-over-network chain on a 10%-lossy fabric, with
// the reliable transport at both ends — zero application errors.
TEST(TransportIntegrationTest, KvWorkloadSurvivesLossyFabric) {
  TestBoard tb;
  tb.net.SetLossRate(0.10, 1234);
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  TransportConfig tcfg;
  tcfg.rto_cycles = 8000;
  tb.os.DeployService(
      kNetworkService,
      std::make_unique<NetworkService>(&tb.os,
                                       std::make_unique<Mac100GAdapter>(tb.board.mac100g()),
                                       /*reliable=*/true, tcfg));
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

  ClientConfig ccfg;
  ccfg.server_endpoint = tb.board.mac100g()->address();
  ccfg.dst_service = gw_svc;
  ccfg.open_loop = false;
  ccfg.concurrency = 2;
  ccfg.max_requests = 40;
  ccfg.reliable = true;
  ccfg.transport = tcfg;
  ClientHost client(ccfg, &tb.net, [&](uint64_t index, Rng&) {
    ClientRequest req;
    const std::string key = KvKeyForIndex(index % 10);
    if (index < 10) {
      req.opcode = kOpKvPut;
      req.payload = MakeKvPutPayload(key, KvValueForIndex(index % 10, 32));
    } else {
      req.opcode = kOpKvGet;
      req.payload = MakeKvGetPayload(key);
    }
    return req;
  });
  tb.sim.Register(&client);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return client.received() >= 40; }, 20'000'000))
      << "recv=" << client.received() << " losses="
      << tb.net.counters().Get("extnet.dropped_loss");
  EXPECT_EQ(client.errors(), 0u);
  EXPECT_EQ(client.last_response(), KvValueForIndex(9, 32));
  // The fabric really did lose traffic; the transport really did recover it.
  EXPECT_GT(tb.net.counters().Get("extnet.dropped_loss"), 0u);
}

// Control: the same lossy fabric WITHOUT the reliable transport loses
// requests for good (the client's own coarse timer has to re-issue).
TEST(TransportIntegrationTest, LossVisibleWithoutTransport) {
  TestBoard tb;
  tb.net.SetLossRate(0.10, 77);
  tb.os.DeployService(
      kNetworkService,
      std::make_unique<NetworkService>(&tb.os,
                                       std::make_unique<Mac100GAdapter>(tb.board.mac100g()),
                                       /*reliable=*/false));
  AppId app = tb.os.CreateApp("svc");
  auto* gw = new NetGateway();
  ServiceId gw_svc = 0;
  const TileId gt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)tb.os.GrantSendToService(gt, kNetworkService);
  ServiceId echo_svc = 0;
  tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &echo_svc);
  gw->SetBackend(tb.os.GrantSendToService(gt, echo_svc));

  ClientConfig ccfg;
  ccfg.server_endpoint = tb.board.mac100g()->address();
  ccfg.dst_service = gw_svc;
  ccfg.open_loop = false;
  ccfg.concurrency = 4;
  ccfg.max_requests = 60;
  ccfg.retry_timeout_cycles = 10000;
  ClientHost client(ccfg, &tb.net, [](uint64_t, Rng&) {
    return ClientRequest{kOpEcho, {1, 2, 3}};
  });
  tb.sim.Register(&client);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return client.received() >= 60; }, 20'000'000));
  // Losses forced application-level timeouts — visible, unlike above.
  EXPECT_GT(client.timeouts(), 0u);
}

}  // namespace
}  // namespace apiary
