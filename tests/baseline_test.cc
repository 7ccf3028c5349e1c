// Tests for the comparison baselines: host-mediated (Coyote-style), raw
// queues, and AmorphOS-style time slicing.
#include <gtest/gtest.h>

#include "src/baseline/hosted.h"
#include "src/baseline/raw_queue.h"
#include "src/baseline/timesliced.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

struct ClientSink : ExternalEndpoint {
  std::vector<EthFrame> frames;
  std::vector<Cycle> at;
  void OnFrame(EthFrame f, Cycle now) override {
    frames.push_back(std::move(f));
    at.push_back(now);
  }
};

TEST(HostedTest, CompletesARequest) {
  Simulator sim;
  ExternalNetwork net(25);
  sim.Register(&net);
  HostedConfig cfg;
  HostedSystem hosted(cfg, sim, &net);
  ClientSink client;
  const uint32_t client_addr = net.RegisterEndpoint(&client);

  EthFrame req;
  req.src_endpoint = client_addr;
  req.dst_endpoint = 0;  // Hosted registered first.
  req.payload = {1, 2, 3};
  net.Send(std::move(req), sim.now());
  ASSERT_TRUE(sim.RunUntil([&] { return !client.frames.empty(); }, 100000));
  EXPECT_EQ(hosted.completed(), 1u);
  EXPECT_EQ(client.frames[0].payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(HostedTest, LatencyIncludesMediationCosts) {
  Simulator sim;
  ExternalNetwork net(25);
  sim.Register(&net);
  HostedConfig cfg;
  HostedSystem hosted(cfg, sim, &net);
  ClientSink client;
  const uint32_t client_addr = net.RegisterEndpoint(&client);
  EthFrame req;
  req.src_endpoint = client_addr;
  req.dst_endpoint = 0;
  req.payload.assign(64, 1);
  const Cycle start = sim.now();
  net.Send(std::move(req), sim.now());
  ASSERT_TRUE(sim.RunUntil([&] { return !client.frames.empty(); }, 100000));
  const Cycle latency = client.at[0] - start;
  // Lower bound: 2x fabric latency + CPU in + PCIe there and back + accel +
  // CPU out = 50 + 500 + ~352 + 200 + 375 > 1400.
  EXPECT_GT(latency, 1400u);
  EXPECT_GT(hosted.cpu_busy_cycles(), 800u);
}

TEST(HostedTest, SaturatesWhenOfferedLoadExceedsCpu) {
  Simulator sim;
  ExternalNetwork net(10);
  sim.Register(&net);
  HostedConfig cfg;
  HostedSystem hosted(cfg, sim, &net);
  ClientSink client;
  const uint32_t client_addr = net.RegisterEndpoint(&client);
  // Offer far more than the core can mediate (875 cycles of CPU per op).
  for (int i = 0; i < 500; ++i) {
    EthFrame req;
    req.src_endpoint = client_addr;
    req.dst_endpoint = 0;
    req.payload = {1};
    net.Send(std::move(req), sim.now());
  }
  sim.Run(100000);
  // Throughput is CPU-bound: ~100000/875 ~ 114 completions max.
  EXPECT_LT(hosted.completed(), 130u);
  EXPECT_GT(hosted.completed(), 80u);
}

TEST(RawQueueTest, TransfersAfterSerialization) {
  Simulator sim;
  RawQueue q(32, 16);
  sim.Register(&q);
  std::vector<uint8_t> data(96, 7);  // 3 cycles at 32 B/cycle.
  ASSERT_TRUE(q.Push(PayloadBuf(data), sim.now()));
  EXPECT_FALSE(q.Pop(sim.now()).has_value());  // Not yet transferred.
  sim.Run(5);
  auto got = q.Pop(sim.now());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST(RawQueueTest, DepthBound) {
  RawQueue q(32, 2);
  EXPECT_TRUE(q.Push({1}, 0));
  EXPECT_TRUE(q.Push({2}, 0));
  EXPECT_FALSE(q.Push({3}, 0));
}

TEST(RawQueueTest, Fifo) {
  Simulator sim;
  RawQueue q(32, 16);
  sim.Register(&q);
  q.Push({1}, sim.now());
  q.Push({2}, sim.now());
  sim.Run(10);
  EXPECT_EQ((*q.Pop(sim.now()))[0], 1);
  EXPECT_EQ((*q.Pop(sim.now()))[0], 2);
}

TEST(TimeSlicedTest, SingleAppRunsWithoutReconfig) {
  Simulator sim;
  TimeSlicedConfig cfg;
  cfg.num_apps = 1;
  cfg.service_cycles = 100;
  TimeSlicedFpga fpga(cfg);
  sim.Register(&fpga);
  for (int i = 0; i < 10; ++i) {
    fpga.Submit(0, sim.now());
  }
  sim.Run(2000);
  EXPECT_EQ(fpga.completed(0), 10u);
  EXPECT_EQ(fpga.reconfigurations(), 0u);
}

TEST(TimeSlicedTest, SwitchingPaysReconfiguration) {
  Simulator sim;
  TimeSlicedConfig cfg;
  cfg.num_apps = 2;
  cfg.slice_cycles = 1000;
  cfg.reconfig_cycles = 10000;
  cfg.service_cycles = 100;
  TimeSlicedFpga fpga(cfg);
  sim.Register(&fpga);
  // Both apps always have work.
  for (int i = 0; i < 200; ++i) {
    fpga.Submit(0, 0);
    fpga.Submit(1, 0);
  }
  sim.Run(100000);
  EXPECT_GT(fpga.reconfigurations(), 3u);
  EXPECT_GT(fpga.completed(0), 0u);
  EXPECT_GT(fpga.completed(1), 0u);
  // Useful throughput is badly diluted: each 1000-cycle slice costs a
  // 10000-cycle swap, so < 20% of ideal.
  EXPECT_LT(fpga.total_completed(), 200u);
}

TEST(TimeSlicedTest, WorkConservingWhenOthersIdle) {
  Simulator sim;
  TimeSlicedConfig cfg;
  cfg.num_apps = 2;
  cfg.slice_cycles = 1000;
  cfg.reconfig_cycles = 10000;
  cfg.service_cycles = 100;
  TimeSlicedFpga fpga(cfg);
  sim.Register(&fpga);
  for (int i = 0; i < 50; ++i) {
    fpga.Submit(0, 0);
  }
  sim.Run(20000);
  // App 1 never has work, so app 0 keeps the region without swaps.
  EXPECT_EQ(fpga.completed(0), 50u);
  EXPECT_EQ(fpga.reconfigurations(), 0u);
}

}  // namespace
}  // namespace apiary
