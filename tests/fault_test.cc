// Tests for the fault-injection subsystem (src/fault) and the self-healing
// machinery it exercises: monitor fail-stop edge cases, the capability
// lifecycle across reconfiguration, NoC link faults (drop + detected
// corruption), DRAM upsets with and without ECC, ethernet loss bursts, and
// the Supervisor's recovery policies (restart, backoff, quarantine,
// hot-standby failover, watchdog-driven wedge recovery), including a
// parked supervisor checked against the reference engine.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/core/service_ids.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/mem/interleaved_memory.h"
#include "src/services/mgmt_service.h"
#include "src/services/supervisor.h"
#include "src/sim/logging.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// Like TestBoard but with a short partial-reconfiguration latency so
// supervisor recoveries complete within test budgets.
struct FaultBoard {
  explicit FaultBoard(Cycle reconfig_cycles)
      : net(25), board(MakeConfig(reconfig_cycles), sim, &net), os(board) {
    sim.Register(&net);
  }

  static BoardConfig MakeConfig(Cycle reconfig_cycles) {
    BoardConfig cfg;
    cfg.mesh = MeshConfig{4, 4, 8, 512};
    // The same board size as TestBoard: capacity costs no host memory until
    // written, but the kernel's segment allocator is built over it.
    cfg.dram.capacity_bytes = 64ull << 20;
    cfg.partial_reconfig_cycles = reconfig_cycles;
    return cfg;
  }

  Simulator sim{250.0};
  ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

// Crash-loops: dies shortly after every boot (the unrecoverable-firmware
// case the quarantine policy exists for).
class CrashLooper : public Accelerator {
 public:
  void OnBoot(TileApi& api) override { crash_at_ = api.now() + 500; }
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

Message EchoRequest(std::vector<uint8_t> payload = {0xAB}) {
  Message msg;
  msg.opcode = kOpEcho;
  msg.payload = std::move(payload);
  return msg;
}

// ------------------------------------------------------------------
// Monitor fail-stop edge cases.
// ------------------------------------------------------------------

TEST(MonitorFailStopTest, BouncesQueuedInFlightRequests) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc = 0;
  const TileId st = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);

  // Wedge the service tile first: the request reaches its monitor's inbox
  // but the dead accelerator never consumes it. (Boot the tile before the
  // wedge — completing a configuration clears the SEU state.)
  tb.sim.Run(10);
  tb.os.tile(st).InjectSeuWedge();
  probe->EnqueueSend(EchoRequest(), cap);
  tb.sim.Run(2000);
  ASSERT_GE(tb.os.monitor(st).counters().Get("monitor.delivered"), 1u);
  ASSERT_TRUE(probe->received.empty());

  // Fail-stop must drain the inbox by *bouncing* the queued request, so the
  // client fails fast instead of timing out.
  tb.os.FailStop(st, "operator kill");
  tb.sim.Run(2000);
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].status, MsgStatus::kDestFailed);
  EXPECT_GE(tb.os.monitor(st).counters().Get("monitor.drained_inbox"), 1u);
}

TEST(MonitorFailStopTest, DoubleFailStopIsIdempotent) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  const TileId t = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  tb.sim.Run(10);

  tb.os.FailStop(t, "first");
  tb.os.FailStop(t, "second");
  const Monitor& m = tb.os.monitor(t);
  EXPECT_EQ(m.fault_state(), TileFaultState::kStopped);
  EXPECT_EQ(m.counters().Get("monitor.fail_stops"), 1u);
  // The original diagnosis survives; the redundant stop is a no-op.
  EXPECT_EQ(m.fault_reason(), "first");
}

// ------------------------------------------------------------------
// Capability lifecycle across reconfiguration.
// ------------------------------------------------------------------

TEST(ReconfigureCapsTest, ReconfigureRevokesAndReinstallRestores) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc_a = 0;
  ServiceId svc_b = 0;
  const TileId ta = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc_a);
  tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc_b);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef client_cap = tb.os.GrantSendToService(ct, svc_a);
  ASSERT_NE(tb.os.GrantSendToService(ta, svc_b), kInvalidCapRef);
  tb.sim.Run(10);

  // Tearing a tile down for fresh logic revokes every capability it held —
  // the new bitstream must not inherit the old accelerator's authority by
  // accident.
  ASSERT_TRUE(tb.os.Reconfigure(ta, std::make_unique<EchoAccelerator>(0),
                                /*immediate=*/true));
  tb.sim.Run(10);
  EXPECT_EQ(tb.os.monitor(ta).cap_table().FindEndpointForService(svc_b),
            kInvalidCapRef);

  // ...and the kernel's grant log can put it back, deliberately.
  tb.os.ReinstallTileCaps(ta);
  EXPECT_NE(tb.os.monitor(ta).cap_table().FindEndpointForService(svc_b),
            kInvalidCapRef);

  // Clients of the reconfigured tile were never touched: the old endpoint
  // capability still reaches the (new) accelerator behind the same name.
  probe->EnqueueSend(EchoRequest(), client_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

// ------------------------------------------------------------------
// NoC link faults.
// ------------------------------------------------------------------

TEST(NocFaultTest, LinkDropWindowLosesPacketsThenHeals) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc = 0;
  auto* echo = new EchoAccelerator(0);
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);

  FaultPlan plan;
  plan.seed = 5;
  plan.LinkDrop(/*at=*/0, /*duration=*/20'000, /*rate=*/1.0);
  FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});

  probe->EnqueueSend(EchoRequest(), cap);
  tb.sim.Run(10'000);
  // The request was swallowed on a link: no delivery, no reply, but the loss
  // is visible in counters at every layer it crossed.
  EXPECT_TRUE(probe->received.empty());
  EXPECT_EQ(echo->served(), 0u);
  EXPECT_GE(injector.counters().Get("fault.link_drops_applied"), 1u);
  const CounterSet noc = tb.board.mesh().AggregateCounters();
  EXPECT_GE(noc.Get("router.fault_dropped_packets"), 1u);
  EXPECT_GE(noc.Get("ni.packets_dropped_fault"), 1u);

  // Past the window the same path works again.
  tb.sim.Run(15'000);
  ASSERT_TRUE(injector.Exhausted(tb.sim.now()));
  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(NocFaultTest, LinkCorruptionIsDetectedNotConsumed) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc = 0;
  auto* echo = new EchoAccelerator(0);
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);

  FaultPlan plan;
  plan.seed = 6;
  plan.LinkCorrupt(/*at=*/0, /*duration=*/20'000, /*rate=*/1.0);
  FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});

  probe->EnqueueSend(EchoRequest({1, 2, 3, 4}), cap);
  tb.sim.Run(10'000);
  // The checksum catches the garbled payload at the ejecting NI: the packet
  // is discarded, never delivered as a (corrupt) message.
  EXPECT_GE(injector.counters().Get("fault.link_corruptions_applied"), 1u);
  EXPECT_GE(tb.board.mesh().AggregateCounters().Get("ni.checksum_drops"), 1u);
  EXPECT_EQ(echo->served(), 0u);
  EXPECT_TRUE(probe->received.empty());
}

// Flips scripted (index, mask) pairs into each packet's wire image, the
// n-th pair on the n-th link the packet crosses, through the mutator the
// fault injector uses.
class ScriptedFlips : public NocFaultModel {
 public:
  explicit ScriptedFlips(std::vector<std::pair<size_t, uint8_t>> flips)
      : flips_(std::move(flips)) {}
  bool OnLinkTraverse(TileId, const Flit& flit, Cycle) override {
    size_t& crossed = crossed_[flit.packet->packet_id];
    if (crossed < flips_.size()) {
      flit.packet->CorruptWireBit(flips_[crossed].first, flips_[crossed].second);
    }
    ++crossed;
    return false;
  }
  bool RouterStalled(TileId, Cycle) override { return false; }

 private:
  std::vector<std::pair<size_t, uint8_t>> flips_;
  std::map<uint64_t, size_t> crossed_;
};

// A standalone 4x4 mesh whose packets cross three links from tile 0 to 3.
struct FlipMesh {
  explicit FlipMesh(NocFaultModel* model) {
    sim.Register(&mesh);
    mesh.SetFaultModel(model);
  }
  ~FlipMesh() { mesh.SetFaultModel(nullptr); }

  PacketRef Serialized(uint64_t id, Message msg) {
    PacketRef p = mesh.pool().Acquire();
    p->src = 0;
    p->dst = 3;
    p->packet_id = id;
    SerializeMessageInto(std::move(msg), *p);
    return p;
  }
  uint64_t ChecksumDrops() const { return mesh.AggregateCounters().Get("ni.checksum_drops"); }

  Simulator sim;
  Mesh mesh{MeshConfig{4, 4, 8, 64}};
};

TEST(NocFaultTest, SameBitFlippedTwiceIsDeliveredIntact) {
  // The second flip undoes the first; the NI still re-hashes the touched
  // image in full, finds it intact and delivers it.
  ScriptedFlips flips({{72, 0x10}, {72, 0x10}});
  FlipMesh fm(&flips);
  Message sent = EchoRequest({9, 8, 7, 6, 5, 4, 3, 2, 1});
  sent.request_id = 42;
  ASSERT_TRUE(fm.mesh.ni(0).Inject(fm.Serialized(1, sent), fm.sim.now()));
  ASSERT_TRUE(fm.sim.RunUntil([&] { return fm.mesh.ni(3).HasDeliverable(); }, 1'000));
  PacketRef got = fm.mesh.ni(3).Retrieve();
  EXPECT_TRUE(got->wire_touched);
  EXPECT_EQ(got->checksum, PacketWireChecksum(*got));
  const std::optional<Message> msg = DeserializeMessage(*got);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->opcode, sent.opcode);
  EXPECT_EQ(msg->request_id, 42u);
  EXPECT_EQ(msg->payload, sent.payload);
  EXPECT_EQ(fm.ChecksumDrops(), 0u);
}

TEST(NocFaultTest, TwoDifferentFlipsAreEachDropped) {
  // Two bits of one header byte, then a header byte and a payload byte:
  // neither pair cancels, so both packets are discarded and counted.
  ScriptedFlips flips({{3, 0x01}, {3, 0x80}});
  FlipMesh fm(&flips);
  ASSERT_TRUE(fm.mesh.ni(0).Inject(fm.Serialized(1, EchoRequest({1, 2, 3})), fm.sim.now()));
  fm.sim.Run(1'000);
  EXPECT_EQ(fm.ChecksumDrops(), 1u);

  ScriptedFlips spread({{3, 0x01}, {kMessageHeaderBytes + 1, 0x02}});
  fm.mesh.SetFaultModel(&spread);
  ASSERT_TRUE(fm.mesh.ni(0).Inject(fm.Serialized(2, EchoRequest({1, 2, 3})), fm.sim.now()));
  fm.sim.Run(1'000);
  EXPECT_EQ(fm.ChecksumDrops(), 2u);
  EXPECT_FALSE(fm.mesh.ni(3).HasDeliverable());
}

TEST(NocFaultTest, CorruptedHandBuiltPacketIsStillDropped) {
  // A hand-built packet (head_len == 0) carries no stamp from serialization
  // or injection: the fault's first flip stamps the intact image.
  Simulator sim;
  Mesh mesh(MeshConfig{4, 4, 8, 64});
  sim.Register(&mesh);
  FaultPlan plan;
  plan.seed = 6;
  plan.LinkCorrupt(/*at=*/0, /*duration=*/1'000, /*rate=*/1.0);
  FaultInjector injector(plan, FaultHooks{.mesh = &mesh});
  sim.Register(&injector);
  auto hand_built = [&mesh](TileId dst, uint64_t id) {
    PacketRef p = mesh.pool().Acquire();
    p->src = 0;
    p->dst = dst;
    p->packet_id = id;
    p->payload.assign(64, 0x5A);
    return p;
  };
  // One link, so exactly one flip.
  ASSERT_TRUE(mesh.ni(0).Inject(hand_built(1, 1), sim.now()));
  sim.Run(500);
  EXPECT_EQ(injector.counters().Get("fault.link_corruptions_applied"), 1u);
  EXPECT_EQ(mesh.AggregateCounters().Get("ni.checksum_drops"), 1u);
  EXPECT_FALSE(mesh.ni(1).HasDeliverable());
  sim.Run(1'000);
  ASSERT_TRUE(injector.Exhausted(sim.now()));

  // The stamp is the intact image's: a cancelling double flip delivers.
  ScriptedFlips flips({{10, 0x04}, {10, 0x04}});
  mesh.SetFaultModel(&flips);
  ASSERT_TRUE(mesh.ni(0).Inject(hand_built(3, 2), sim.now()));
  ASSERT_TRUE(sim.RunUntil([&] { return mesh.ni(3).HasDeliverable(); }, 1'000));
  PacketRef got = mesh.ni(3).Retrieve();
  EXPECT_TRUE(got->wire_touched);
  EXPECT_EQ(got->payload, PayloadBuf(std::vector<uint8_t>(64, 0x5A)));
  EXPECT_EQ(mesh.AggregateCounters().Get("ni.checksum_drops"), 1u);
  mesh.SetFaultModel(nullptr);
}

// ------------------------------------------------------------------
// DRAM upsets and ECC.
// ------------------------------------------------------------------

TEST(DramFaultTest, BitFlipCorruptsWithoutEccAndEccCorrects) {
  TestBoard tb;
  MemoryBackend& mem = tb.board.memory();
  const uint64_t addr = 4096;
  const uint8_t original = 0xFF;
  mem.DebugWrite(addr, std::span<const uint8_t>(&original, 1));

  EXPECT_EQ(mem.InjectBitFlip(addr, 3), BitFlipResult::kCorrupted);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xF7);

  mem.SetEccEnabled(true);
  EXPECT_EQ(mem.InjectBitFlip(addr, 2), BitFlipResult::kCorrectedByEcc);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xF7);  // SECDED: data bus unaffected.

  EXPECT_EQ(mem.InjectBitFlip(mem.capacity(), 0), BitFlipResult::kOutOfRange);
}

TEST(DramFaultTest, InterleavedMemoryFlipsChannelLocalByte) {
  DramConfig per_channel;
  per_channel.capacity_bytes = 1ull << 20;
  InterleavedMemory mem(per_channel, /*channels=*/4);

  // An address deep in a non-zero channel's stripe.
  const uint64_t addr = kInterleaveStripeBytes * 5 + 7;
  const uint8_t original = 0xA5;
  mem.DebugWrite(addr, std::span<const uint8_t>(&original, 1));

  EXPECT_EQ(mem.InjectBitFlip(addr, 0), BitFlipResult::kCorrupted);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xA4);

  mem.SetEccEnabled(true);
  EXPECT_EQ(mem.InjectBitFlip(addr, 1), BitFlipResult::kCorrectedByEcc);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xA4);

  EXPECT_EQ(mem.InjectBitFlip(mem.capacity() + 10, 0), BitFlipResult::kOutOfRange);
}

// Each fault kind draws from its own stream: packets rolled against a drop
// window do not move the DRAM flip addresses that follow it.
TEST(DramFaultTest, LinkTrafficDoesNotMoveFlipAddresses) {
  auto run = [](int traversals) {
    DramConfig cfg;
    cfg.capacity_bytes = 1ull << 20;
    MemoryController memory(cfg);
    FaultPlan plan;
    plan.seed = 11;
    plan.LinkDrop(/*at=*/0, /*duration=*/50, /*rate=*/0.5);
    plan.DramBitFlips(/*at=*/100, /*count=*/4);
    FaultInjector injector(plan, FaultHooks{.memory = &memory});
    injector.Tick(0);
    const Flit flit{};
    for (int i = 0; i < traversals; ++i) {
      injector.OnLinkTraverse(/*router_tile=*/0, flit, /*now=*/1);
    }
    injector.Tick(100);
    EXPECT_EQ(injector.counters().Get("fault.dram_corrupted"), 4u);
    return std::make_pair(injector.TraceString(),
                          injector.counters().Get("fault.link_drops_applied"));
  };
  const auto [quiet_trace, quiet_drops] = run(0);
  const auto [busy_trace, busy_drops] = run(40);
  EXPECT_EQ(quiet_drops, 0u);
  EXPECT_GT(busy_drops, 0u);
  EXPECT_EQ(busy_trace, quiet_trace);
}

// ------------------------------------------------------------------
// Ethernet loss bursts.
// ------------------------------------------------------------------

TEST(EthFaultTest, LossBurstDropsFramesOnlyInsideWindow) {
  struct Sink : ExternalEndpoint {
    void OnFrame(EthFrame, Cycle) override { ++received; }
    uint64_t received = 0;
  };
  Simulator sim(250.0);
  ExternalNetwork net(10);
  sim.Register(&net);
  Sink sink;
  const uint32_t src = net.RegisterEndpoint(&sink);
  const uint32_t dst = net.RegisterEndpoint(&sink);

  net.StartLossBurst(/*now=*/0, /*duration=*/1000, /*rate=*/1.0, /*seed=*/7);
  EXPECT_TRUE(net.InLossBurst(0));

  uint64_t sent_in_window = 0;
  uint64_t sent_after = 0;
  for (int i = 0; i < 200; ++i) {
    EthFrame frame;
    frame.src_endpoint = src;
    frame.dst_endpoint = dst;
    frame.payload.assign(64, 0x5A);
    const bool in_window = net.InLossBurst(sim.now());
    net.Send(std::move(frame), sim.now());
    (in_window ? sent_in_window : sent_after) += 1;
    sim.Run(10);
  }
  sim.Run(100);  // Flush frames still in flight.

  ASSERT_GT(sent_in_window, 0u);
  ASSERT_GT(sent_after, 0u);
  // rate=1.0: every frame inside the window dropped, every one after it
  // delivered.
  EXPECT_EQ(net.counters().Get("extnet.dropped_burst"), sent_in_window);
  EXPECT_EQ(sink.received, sent_after);
  EXPECT_FALSE(net.InLossBurst(sim.now()));
}

// ------------------------------------------------------------------
// Supervisor recovery policies.
// ------------------------------------------------------------------

TEST(SupervisorTest, CrashRecoveryReinstallsCapsAndResumesService) {
  FaultBoard fb(/*reconfig_cycles=*/10'000);
  AppId app = fb.os.CreateApp("app");
  ServiceId svc = 0;
  ServiceId peer_svc = 0;
  const TileId st = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &peer_svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = fb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = fb.os.GrantSendToService(ct, svc);
  // The service tile also holds a client capability of its own, which the
  // recovery path must bring back.
  ASSERT_NE(fb.os.GrantSendToService(st, peer_svc), kInvalidCapRef);

  Supervisor sup(&fb.os);
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(0); });

  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  probe->received.clear();

  // Crash: the accelerator raises a fault, the tile fail-stops itself, and
  // the supervisor's poll picks it up — no operator call anywhere below.
  fb.os.monitor(st).RaiseFault("injected SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.restarts(st) == 1 && sup.AllHealthy(); }, 100'000));

  EXPECT_EQ(sup.counters().Get("supervisor.faults_detected"), 1u);
  EXPECT_EQ(sup.counters().Get("supervisor.faults_recovered"), 1u);
  EXPECT_EQ(sup.recovery_cycles().count(), 1u);
  EXPECT_EQ(fb.os.monitor(st).fault_state(), TileFaultState::kHealthy);
  EXPECT_NE(fb.os.monitor(st).cap_table().FindEndpointForService(peer_svc),
            kInvalidCapRef);

  // The healed tile serves again through the client's original capability.
  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 20'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(SupervisorTest, BacksOffThenQuarantinesCrashLooper) {
  FaultBoard fb(/*reconfig_cycles=*/2000);
  AppId app = fb.os.CreateApp("app");
  const TileId t = fb.os.Deploy(app, std::make_unique<CrashLooper>());

  SupervisorConfig scfg;
  scfg.quarantine_after = 3;
  scfg.crash_loop_window = 10'000'000;
  Supervisor sup(&fb.os, scfg);
  sup.Manage(t, [] { return std::make_unique<CrashLooper>(); });

  fb.sim.Run(200'000);

  // Initial crash + 3 restarts (each crashing again) exhausts the policy:
  // the 4th fault quarantines instead of reconfiguring forever.
  EXPECT_TRUE(sup.quarantined(t));
  EXPECT_EQ(sup.restarts(t), 3u);
  EXPECT_EQ(sup.counters().Get("supervisor.faults_detected"), 4u);
  EXPECT_EQ(sup.counters().Get("supervisor.quarantines"), 1u);
  // Restart 1 is immediate; restarts 2 and 3 waited out a backoff.
  EXPECT_EQ(sup.counters().Get("supervisor.backoff_delays"), 2u);
  EXPECT_EQ(fb.os.monitor(t).fault_state(), TileFaultState::kStopped);
  EXPECT_FALSE(sup.AllHealthy());
}

TEST(SupervisorTest, HotStandbyFailoverRepointsServiceAndRearms) {
  FaultBoard fb(/*reconfig_cycles=*/10'000);
  AppId app = fb.os.CreateApp("app");
  ServiceId svc = 0;
  ServiceId spare_svc = 0;
  auto* primary = new EchoAccelerator(0);
  const TileId pt = fb.os.Deploy(app, std::unique_ptr<Accelerator>(primary), &svc);
  auto* standby = new EchoAccelerator(0);
  const TileId st = fb.os.Deploy(app, std::unique_ptr<Accelerator>(standby), &spare_svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = fb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = fb.os.GrantSendToService(ct, svc);

  Supervisor sup(&fb.os);
  sup.Manage(pt, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.SetStandby(svc, st);

  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(primary->served(), 1u);
  probe->received.clear();

  // Primary dies; the supervisor repoints the logical name at the spare and
  // re-grants every client, so service resumes without waiting out the
  // reconfiguration.
  fb.os.monitor(pt).RaiseFault("injected SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.counters().Get("supervisor.failovers") == 1; }, 10'000));
  EXPECT_EQ(fb.os.LookupServiceTile(svc), st);

  const CapRef fresh = fb.os.monitor(ct).cap_table().FindEndpointForService(svc);
  ASSERT_NE(fresh, kInvalidCapRef);
  probe->EnqueueSend(EchoRequest(), fresh);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(probe->received[0].src_service, svc);
  EXPECT_EQ(standby->served(), 1u);
  probe->received.clear();

  // The recovered primary re-arms as the service's next spare: a second
  // crash fails over again instead of taking the cold path.
  ASSERT_TRUE(fb.sim.RunUntil([&] { return sup.AllHealthy(); }, 100'000));
  fb.os.monitor(st).RaiseFault("injected SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.counters().Get("supervisor.failovers") == 2; }, 10'000));
  EXPECT_EQ(fb.os.LookupServiceTile(svc), pt);

  const CapRef fresh2 = fb.os.monitor(ct).cap_table().FindEndpointForService(svc);
  ASSERT_NE(fresh2, kInvalidCapRef);
  probe->EnqueueSend(EchoRequest(), fresh2);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(SupervisorTest, StandbyMidReconfigurationIsNeverAFailoverTarget) {
  FaultBoard fb(/*reconfig_cycles=*/20'000);
  AppId app = fb.os.CreateApp("app");
  ServiceId svc = 0;
  ServiceId spare_svc = 0;
  const TileId pt = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  const TileId st = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &spare_svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = fb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = fb.os.GrantSendToService(ct, svc);

  Supervisor sup(&fb.os);
  sup.Manage(pt, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.SetStandby(svc, st);
  fb.sim.Run(10);  // Let both tiles boot.

  // The standby crashes first and enters its (long) recovery
  // reconfiguration...
  fb.os.monitor(st).RaiseFault("standby SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.tile_state(st) == Supervisor::TileState::kReconfiguring; },
      100'000));

  // ...and while its bitstream is mid-load, the primary dies too. Failing
  // over onto a half-configured region would strand the service; the
  // supervisor must take the cold path instead.
  fb.os.monitor(pt).RaiseFault("primary SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.counters().Get("supervisor.standby_unavailable") == 1; },
      100'000));
  EXPECT_EQ(sup.counters().Get("supervisor.failovers"), 0u);
  EXPECT_EQ(fb.os.LookupServiceTile(svc), pt);

  // Both tiles heal through reconfiguration and the service answers again
  // from its original region, through the client's original capability.
  ASSERT_TRUE(fb.sim.RunUntil([&] { return sup.AllHealthy(); }, 500'000));
  EXPECT_EQ(fb.os.LookupServiceTile(svc), pt);
  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 50'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(SupervisorTest, WatchdogWedgeDetectionFeedsRecovery) {
  FaultBoard fb(/*reconfig_cycles=*/5000);
  auto* mgmt = new MgmtService(&fb.os);
  fb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  AppId app = fb.os.CreateApp("app");
  // Heartbeats every 100 cycles; the accelerator sets its own 4x watch
  // deadline when it boots.
  const TileId wt = fb.os.Deploy(
      app, std::make_unique<WedgeAccelerator>(~0ull, kInvalidCapRef, 100));
  (void)fb.os.GrantSendToService(wt, kMgmtService);

  Supervisor sup(&fb.os);
  sup.Manage(wt, [] {
    return std::make_unique<WedgeAccelerator>(~0ull, kInvalidCapRef, 100);
  });
  mgmt->SetSupervisor(&sup);

  fb.sim.Run(2000);  // Boot, register with the watchdog, heartbeat a while.
  ASSERT_EQ(fb.os.monitor(wt).fault_state(), TileFaultState::kHealthy);

  // An SEU silently wedges the logic: the tile looks alive but goes quiet.
  // Only the watchdog can see this, and it must route through the
  // supervisor so containment comes with a recovery attached.
  fb.os.tile(wt).InjectSeuWedge();
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.restarts(wt) == 1 && sup.AllHealthy(); }, 100'000));

  EXPECT_FALSE(fb.os.tile(wt).seu_wedged());  // Reconfiguration cleared it.
  EXPECT_EQ(fb.os.monitor(wt).fault_state(), TileFaultState::kHealthy);
  EXPECT_EQ(sup.counters().Get("supervisor.faults_recovered"), 1u);

  // The rebooted accelerator re-registered with the watchdog (its mgmt
  // capability came back via the grant log), so a second wedge is caught too.
  fb.sim.Run(2000);
  fb.os.tile(wt).InjectSeuWedge();
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.restarts(wt) == 2 && sup.AllHealthy(); }, 200'000));
}

// Crashes once, kCrashAfter cycles after booting, and parks its tile until
// then, so the crash lands in a stretch the optimized engine fast-forwards.
class TimedCrasher : public Accelerator {
 public:
  static constexpr Cycle kCrashAfter = 7'000;

  void OnBoot(TileApi& api) override { crash_at_ = api.now() + kCrashAfter; }
  void OnMessage(const Message&, TileApi&) override {}
  void Tick(TileApi& api) override {
    if (api.now() >= crash_at_) {
      api.RaiseFault("timed crash");
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return crash_at_ > now ? crash_at_ : now;
  }
  std::string name() const override { return "timed_crasher"; }
  uint32_t LogicCellCost() const override { return 1000; }

 private:
  Cycle crash_at_ = ~0ull;
};

// Appends each log line to the std::string passed as `user`.
void AppendLogLine(LogLevel level, const std::string& line, void* user) {
  *static_cast<std::string*>(user) += std::to_string(static_cast<int>(level)) + ' ' + line + '\n';
}

struct ParkedSupervisorRun {
  std::string transcript;
  uint64_t skipped_cycles = 0;
};

// The supervisor parks while its fleet is healthy and is woken by the
// managed tiles' monitors: a crash inside an idle stretch (the fail-stop
// comes from the tile's own tick), harness fail-stops between runs (the
// second one waits out a backoff), and each reconfiguration landing.
ParkedSupervisorRun RunParkedSupervisor(bool optimized) {
  FaultBoard fb(/*reconfig_cycles=*/3'000);
  fb.sim.SetSkipEnabled(optimized);
  fb.board.mesh().SetExpressEnabled(optimized);
  AppId app = fb.os.CreateApp("app");
  const TileId crash_tile = fb.os.Deploy(app, std::make_unique<TimedCrasher>());
  const TileId stop_tile = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  Supervisor sup(&fb.os);
  sup.Manage(crash_tile, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.Manage(stop_tile, [] { return std::make_unique<EchoAccelerator>(0); });

  std::string log;
  const LogLevel prev_level = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  SetLogSink(AppendLogLine, &log);
  std::ostringstream out;
  const auto run_until = [&](const char* what, const std::function<bool()>& pred) {
    const bool fired = fb.sim.RunUntil(pred, 200'000);
    out << what << (fired ? " @" : " never, @") << fb.sim.now() << '\n';
  };
  const auto faults = [&] { return sup.counters().Get("supervisor.faults_detected"); };

  run_until("crash detected", [&] { return faults() == 1; });
  run_until("crash healed", [&] { return sup.AllHealthy(); });
  fb.sim.Run(20'000);
  fb.os.FailStop(stop_tile, "harness stop 1");
  run_until("stop 1 detected", [&] { return faults() == 2; });
  run_until("stop 1 healed", [&] { return sup.AllHealthy(); });
  fb.sim.Run(10'000);
  fb.os.FailStop(stop_tile, "harness stop 2");
  run_until("stop 2 backoff", [&] {
    return sup.tile_state(stop_tile) == Supervisor::TileState::kBackoff;
  });
  run_until("stop 2 healed", [&] { return sup.AllHealthy(); });
  fb.sim.Run(10'000);

  SetLogSink(nullptr, nullptr);
  SetLogLevel(prev_level);
  out << "end @" << fb.sim.now() << '\n';
  out << "supervisor: " << sup.counters().ToString() << '\n';
  out << "recovery: " << sup.recovery_cycles().Summary() << '\n';
  out << "restarts: " << sup.restarts(crash_tile) << ' ' << sup.restarts(stop_tile) << '\n';
  out << "monitors: " << fb.os.AggregateMonitorCounters().ToString() << '\n';
  out << "log:\n" << log;
  return ParkedSupervisorRun{out.str(), fb.sim.skipped_cycles()};
}

TEST(SupervisorTest, ParkedSupervisorMatchesReferenceEngine) {
  const ParkedSupervisorRun want = RunParkedSupervisor(/*optimized=*/false);
  const ParkedSupervisorRun got = RunParkedSupervisor(/*optimized=*/true);
  EXPECT_EQ(want.transcript, got.transcript);
  // Every step happened, the second stop backed off, and the optimized
  // engine fast-forwarded the idle stretches around them.
  EXPECT_EQ(want.transcript.find("never"), std::string::npos) << want.transcript;
  EXPECT_NE(want.transcript.find("supervisor.backoff_delays=1"), std::string::npos)
      << want.transcript;
  EXPECT_NE(want.transcript.find("supervisor.faults_recovered=3"), std::string::npos)
      << want.transcript;
  EXPECT_EQ(want.skipped_cycles, 0u);
  EXPECT_GT(got.skipped_cycles, 40'000u);
}

// ------------------------------------------------------------------
// FaultPlan mechanics.
// ------------------------------------------------------------------

TEST(FaultPlanTest, SortIsStableByFireCycle) {
  FaultPlan plan;
  plan.AccelCrash(500, 3).LinkDrop(100, 50, 1.0).DramBitFlips(100, 2);
  plan.Sort();
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDrop);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDramBitFlip);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kAccelCrash);
}

TEST(FaultPlanTest, EventsWithoutHooksAreSkippedNotFatal) {
  TestBoard tb;
  FaultPlan plan;
  plan.DramBitFlips(10, 1).EthLossBurst(20, 100, 0.5);
  // No memory / network hooks: the injector must count, not crash.
  FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});
  tb.sim.Run(200);
  EXPECT_EQ(injector.counters().Get("fault.skipped_no_hook"), 2u);
  EXPECT_TRUE(injector.Exhausted(tb.sim.now()));
}

}  // namespace
}  // namespace apiary
