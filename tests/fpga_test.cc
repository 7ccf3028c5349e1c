// Tests for the FPGA board substrate: part catalog (Table 1 data), resource
// budgeting, Ethernet MAC models with their divergent bring-up protocols,
// PCIe timing and board assembly.
#include <gtest/gtest.h>

#include "src/fpga/board.h"
#include "src/fpga/ethernet.h"
#include "src/fpga/part_catalog.h"
#include "src/fpga/pcie.h"
#include "src/fpga/resource_model.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

TEST(PartCatalogTest, ContainsPaperTable1Rows) {
  // The four rows of the paper's Table 1, verbatim.
  auto v585 = FindPart("XC7V585T");
  ASSERT_TRUE(v585.has_value());
  EXPECT_EQ(v585->logic_cells, 582720u);
  EXPECT_EQ(v585->family, "Virtex 7");
  EXPECT_EQ(v585->year_released, 2010u);

  auto v870 = FindPart("XC7VH870T");
  ASSERT_TRUE(v870.has_value());
  EXPECT_EQ(v870->logic_cells, 876160u);

  auto vu3p = FindPart("VU3P");
  ASSERT_TRUE(vu3p.has_value());
  EXPECT_EQ(vu3p->logic_cells, 862000u);
  EXPECT_EQ(vu3p->year_released, 2016u);

  auto vu29p = FindPart("VU29P");
  ASSERT_TRUE(vu29p.has_value());
  EXPECT_EQ(vu29p->logic_cells, 3780000u);
}

TEST(PartCatalogTest, PaperScalingClaimsHold) {
  // "Comparing the smallest parts, the number of logic cells has increased
  // by about 50%, while the largest parts have scaled up by 3x."
  const double smallest_ratio = 862000.0 / 582720.0;
  EXPECT_NEAR(smallest_ratio, 1.5, 0.08);
  const double largest_ratio = 3780000.0 / 876160.0;
  EXPECT_GT(largest_ratio, 3.0);
}

TEST(PartCatalogTest, UnknownPartReturnsNullopt) {
  EXPECT_FALSE(FindPart("NOT_A_PART").has_value());
}

TEST(ResourceBudgetTest, ChargesAndRefusesOversubscription) {
  ResourceBudget budget(*FindPart("XC7V585T"));
  EXPECT_TRUE(budget.ChargeStatic("a", 500000));
  EXPECT_FALSE(budget.ChargeStatic("b", 100000));
  EXPECT_EQ(budget.static_cells(), 500000u);
  EXPECT_EQ(budget.free_cells(), 82720u);
}

TEST(ResourceBudgetTest, TileRegionsAccountedSeparately) {
  ResourceBudget budget(*FindPart("VU9P"));
  EXPECT_TRUE(budget.ChargeStatic("shell", 100000));
  EXPECT_TRUE(budget.ReserveTileRegion(200000));
  EXPECT_EQ(budget.tile_region_cells(), 200000u);
  EXPECT_EQ(budget.free_cells(), 2586000u - 300000u);
  EXPECT_NEAR(budget.StaticFraction(), 100000.0 / 2586000.0, 1e-9);
}

TEST(ResourceBudgetTest, BreakdownTracksLabels) {
  ResourceBudget budget(*FindPart("VU9P"));
  budget.ChargeStatic("noc", 1000);
  budget.ChargeStatic("noc", 500);
  budget.ChargeStatic("mac", 9000);
  EXPECT_EQ(budget.static_breakdown().at("noc"), 1500u);
  EXPECT_EQ(budget.static_breakdown().at("mac"), 9000u);
}

TEST(ResourceModelTest, MonitorCostGrowsWithCapEntries) {
  ResourceCosts costs;
  EXPECT_GT(MonitorCellCost(costs, 128), MonitorCellCost(costs, 16));
  EXPECT_EQ(MonitorCellCost(costs, 0), costs.monitor);
}

TEST(ExternalNetworkTest, DeliversAfterLatency) {
  Simulator sim;
  ExternalNetwork net(10);
  sim.Register(&net);
  struct Sink : ExternalEndpoint {
    int got = 0;
    Cycle at = 0;
    void OnFrame(EthFrame, Cycle now) override {
      ++got;
      at = now;
    }
  } sink;
  const uint32_t addr = net.RegisterEndpoint(&sink);
  EthFrame f;
  f.dst_endpoint = addr;
  f.payload = {1, 2, 3};
  net.Send(std::move(f), sim.now());
  sim.Run(20);
  EXPECT_EQ(sink.got, 1);
  EXPECT_EQ(sink.at, 10u);
}

TEST(ExternalNetworkTest, DropsUnknownDestination) {
  Simulator sim;
  ExternalNetwork net(1);
  sim.Register(&net);
  EthFrame f;
  f.dst_endpoint = 99;
  net.Send(std::move(f), sim.now());
  sim.Run(5);
  EXPECT_EQ(net.counters().Get("extnet.dropped_unknown_dst"), 1u);
}

TEST(EthMac10GTest, RequiresResetHandshakeBeforeTx) {
  Simulator sim(250.0);
  EthMac10G mac(250.0);
  sim.Register(&mac);
  // TX before bring-up is dropped.
  EXPECT_FALSE(mac.TxFrame(EthFrame{}, sim.now()));
  // Release without assert is a protocol violation and is ignored.
  mac.ReleaseCoreReset(sim.now());
  sim.Run(1000);
  EXPECT_FALSE(mac.RxBlockLock(sim.now()));
  // Proper sequence: assert, release, wait for lock.
  mac.AssertCoreReset();
  mac.ReleaseCoreReset(sim.now());
  EXPECT_FALSE(mac.RxBlockLock(sim.now()));
  sim.Run(600);
  EXPECT_TRUE(mac.RxBlockLock(sim.now()));
  EXPECT_TRUE(mac.TxFrame(EthFrame{}, sim.now()));
}

TEST(EthMac100GTest, RequiresInitAlignmentAndFlowControl) {
  Simulator sim(250.0);
  EthMac100G mac(250.0);
  sim.Register(&mac);
  EXPECT_FALSE(mac.EnqueueTxSegment(EthFrame{}, sim.now()));
  mac.InitCmac(sim.now());
  sim.Run(2500);
  EXPECT_TRUE(mac.RxAligned(sim.now()));
  // Aligned but flow control still off: the CMAC idiom requires it.
  EXPECT_FALSE(mac.EnqueueTxSegment(EthFrame{}, sim.now()));
  mac.EnableTxFlowControl();
  EXPECT_TRUE(mac.EnqueueTxSegment(EthFrame{}, sim.now()));
}

TEST(EthMacTest, FramesCrossBetweenMacs) {
  Simulator sim(250.0);
  ExternalNetwork net(25);
  sim.Register(&net);
  EthMac100G a(250.0);
  EthMac100G b(250.0);
  sim.Register(&a);
  sim.Register(&b);
  a.AttachNetwork(&net, net.RegisterEndpoint(&a));
  b.AttachNetwork(&net, net.RegisterEndpoint(&b));
  a.InitCmac(sim.now());
  b.InitCmac(sim.now());
  sim.Run(2500);
  a.EnableTxFlowControl();
  b.EnableTxFlowControl();
  ASSERT_TRUE(a.RxAligned(sim.now()));
  ASSERT_TRUE(b.RxAligned(sim.now()));
  EthFrame f;
  f.dst_endpoint = b.address();
  f.payload.assign(1000, 0x5a);
  ASSERT_TRUE(a.EnqueueTxSegment(std::move(f), sim.now()));
  sim.Run(200);
  ASSERT_TRUE(b.HasRxSegment());
  EXPECT_EQ(b.DequeueRxSegment().payload.size(), 1000u);
}

// The same frame must take ~10x longer to serialize on the 10G MAC than on
// the 100G MAC — the interface-diversity *and* speed gap the network service
// hides behind one API.
TEST(EthMacTest, TxSerializationRespectsLineRate) {
  struct Sink : ExternalEndpoint {
    Cycle at = 0;
    void OnFrame(EthFrame, Cycle now) override { at = now; }
  };
  auto run_10g = [] {
    Simulator sim(250.0);
    ExternalNetwork net(0);
    sim.Register(&net);
    Sink sink;
    const uint32_t sink_addr = net.RegisterEndpoint(&sink);
    EthMac10G mac(250.0);
    sim.Register(&mac);
    mac.AttachNetwork(&net, net.RegisterEndpoint(&mac));
    mac.AssertCoreReset();
    mac.ReleaseCoreReset(sim.now());
    sim.Run(600);
    const Cycle start = sim.now();
    EthFrame f;
    f.dst_endpoint = sink_addr;
    f.payload.assign(10000, 1);
    EXPECT_TRUE(mac.TxFrame(std::move(f), sim.now()));
    sim.RunUntil([&] { return sink.at != 0; }, 100000);
    return sink.at - start;
  };
  auto run_100g = [] {
    Simulator sim(250.0);
    ExternalNetwork net(0);
    sim.Register(&net);
    Sink sink;
    const uint32_t sink_addr = net.RegisterEndpoint(&sink);
    EthMac100G mac(250.0);
    sim.Register(&mac);
    mac.AttachNetwork(&net, net.RegisterEndpoint(&mac));
    mac.InitCmac(sim.now());
    sim.Run(2500);
    mac.EnableTxFlowControl();
    const Cycle start = sim.now();
    EthFrame f;
    f.dst_endpoint = sink_addr;
    f.payload.assign(10000, 1);
    EXPECT_TRUE(mac.EnqueueTxSegment(std::move(f), sim.now()));
    sim.RunUntil([&] { return sink.at != 0; }, 100000);
    return sink.at - start;
  };
  const Cycle t10 = run_10g();
  const Cycle t100 = run_100g();
  ASSERT_GT(t10, 0u);
  ASSERT_GT(t100, 0u);
  // 10000 B at 5 B/cycle ~ 2000 cycles vs at 50 B/cycle ~ 200 cycles.
  EXPECT_NEAR(static_cast<double>(t10) / static_cast<double>(t100), 10.0, 1.5);
}

TEST(PcieTest, LatencyIncludesCrossingAndSerialization) {
  Simulator sim;
  PcieEndpoint pcie;
  sim.Register(&pcie);
  Cycle done = 0;
  ASSERT_TRUE(pcie.Submit(4800, [&](Cycle c) { done = c; }));
  sim.Run(1000);
  ASSERT_GT(done, 0u);
  // 4800 B at 48 B/cycle = 100 cycles + 175 one-way = ~275.
  EXPECT_NEAR(static_cast<double>(done), 276.0, 8.0);
}

TEST(PcieTest, TransfersSerializeOnLink) {
  Simulator sim;
  PcieEndpoint pcie;
  sim.Register(&pcie);
  Cycle first = 0;
  Cycle second = 0;
  ASSERT_TRUE(pcie.Submit(4800, [&](Cycle c) { first = c; }));
  ASSERT_TRUE(pcie.Submit(4800, [&](Cycle c) { second = c; }));
  sim.Run(2000);
  ASSERT_GT(first, 0u);
  ASSERT_GT(second, first);
  // The second waits for the first's serialization (100 cycles).
  EXPECT_NEAR(static_cast<double>(second - first), 100.0, 6.0);
}

TEST(PcieTest, QueueDepthEnforced) {
  PcieEndpoint pcie;
  for (uint32_t i = 0; i < kPcieQueueDepth; ++i) {
    EXPECT_TRUE(pcie.Submit(64, nullptr));
  }
  EXPECT_FALSE(pcie.Submit(64, nullptr));
}

TEST(BoardTest, BuildsWithDefaults) {
  Simulator sim;
  ExternalNetwork net(25);
  sim.Register(&net);
  BoardConfig cfg;
  cfg.dram.capacity_bytes = 16 << 20;
  cfg.mesh = MeshConfig{4, 4, 8, 64};
  Board board(cfg, sim, &net);
  ASSERT_TRUE(board.ok()) << board.build_error();
  EXPECT_EQ(board.num_tiles(), 16u);
  EXPECT_NE(board.mac100g(), nullptr);
  EXPECT_EQ(board.mac10g(), nullptr);
  EXPECT_GT(board.budget().static_cells(), 0u);
}

TEST(BoardTest, RejectsUnknownPart) {
  Simulator sim;
  BoardConfig cfg;
  cfg.dram.capacity_bytes = 16 << 20;
  cfg.part_number = "BOGUS";
  Board board(cfg, sim, nullptr);
  EXPECT_FALSE(board.ok());
}

TEST(BoardTest, RejectsOversizedConfiguration) {
  Simulator sim;
  BoardConfig cfg;
  cfg.dram.capacity_bytes = 16 << 20;
  cfg.part_number = "XC7V585T";  // Small part.
  cfg.mesh = MeshConfig{8, 8, 8, 64};
  cfg.tile_region_cells = 100000;  // 64 x 100k >> 582k cells.
  Board board(cfg, sim, nullptr);
  EXPECT_FALSE(board.ok());
  EXPECT_FALSE(board.build_error().empty());
}

TEST(BoardTest, MacKindSelectsCore) {
  Simulator sim;
  BoardConfig cfg;
  cfg.dram.capacity_bytes = 16 << 20;
  cfg.mesh = MeshConfig{2, 2, 8, 64};
  cfg.mac_kind = MacKind::k10G;
  Board board(cfg, sim, nullptr);
  ASSERT_TRUE(board.ok());
  EXPECT_NE(board.mac10g(), nullptr);
  EXPECT_EQ(board.mac100g(), nullptr);
}

TEST(BoardTest, PcieOptional) {
  Simulator sim;
  BoardConfig cfg;
  cfg.dram.capacity_bytes = 16 << 20;
  cfg.mesh = MeshConfig{2, 2, 8, 64};
  cfg.with_pcie = true;
  Board board(cfg, sim, nullptr);
  ASSERT_TRUE(board.ok());
  EXPECT_NE(board.pcie(), nullptr);
}

}  // namespace
}  // namespace apiary
