// Express-corridor unit and materialization edge-case tests.
//
// Every scenario runs twice — express enabled vs the `--no-express` escape
// hatch (SetExpressEnabled(false)) — and every observable (end cycle, flit
// counts, per-NI counters, latency histograms, delivered payloads, executed
// cycles) must match byte for byte. The express run must also actually use
// corridors, so a regression that quietly refuses every launch cannot pass.
//
// Edge cases covered:
//   * a fault window opening mid-corridor (FaultInjector::Fire materializes
//     before the window exists);
//   * crossing traffic on other links (both packets stay corridors) and a
//     second flow sharing a corridor's link (it materializes);
//   * a real head queued behind another packet's tail on a held link, which
//     only the resident-head count sees;
//   * a same-route follower launched as the leader's tail leaves the source;
//   * a real head queued for the destination's Local output on the
//     corridor's due cycle (the check runs before completions);
//   * a new injection on the corridor's source tile (queue-order preserving);
//   * weighted-arbitration contention (the 8:1 share must not move).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/noc/mesh.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/sim/payload_arena.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

PacketPool& TestPool() {
  FallbackPayloadArena();
  static PacketPool pool;
  return pool;
}

PacketRef MakePacket(TileId src, TileId dst, size_t payload_bytes, uint64_t id = 0,
                     Vc vc = Vc::kRequest, PacketPool* pool = nullptr) {
  PacketRef p = (pool != nullptr ? *pool : TestPool()).Acquire();
  p->src = src;
  p->dst = dst;
  p->vc = vc;
  p->packet_id = id;
  p->payload.assign(payload_bytes, static_cast<uint8_t>(id));
  return p;
}

// Everything a mesh scenario can observe, stringified for byte comparison.
struct MeshObservables {
  Cycle end_cycle = 0;
  uint64_t skipped_cycles = 0;
  uint64_t flits_routed = 0;
  std::string counters;
  std::string latency;
  std::string deliveries;  // "tile:id:len\n" in retrieval order.

  bool operator==(const MeshObservables& o) const {
    return end_cycle == o.end_cycle && skipped_cycles == o.skipped_cycles &&
           flits_routed == o.flits_routed && counters == o.counters && latency == o.latency &&
           deliveries == o.deliveries;
  }
};

MeshObservables Observe(Simulator& sim, Mesh& mesh) {
  MeshObservables r;
  r.end_cycle = sim.now();
  r.skipped_cycles = sim.skipped_cycles();
  r.flits_routed = mesh.TotalFlitsRouted();
  r.counters = mesh.AggregateCounters().ToString();
  r.latency = mesh.AggregateLatency().Summary();
  for (uint32_t t = 0; t < mesh.num_tiles(); ++t) {
    while (auto p = mesh.ni(t).Retrieve()) {
      r.deliveries += std::to_string(t) + ':' + std::to_string(p->packet_id) + ':' +
                      std::to_string(p->payload.size()) + '\n';
    }
  }
  return r;
}

TEST(ExpressTest, SinglePacketMatchesBaselineAndDelivers) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 8, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 63, 100, 42), sim.now()));
    sim.Run(200);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off);
  EXPECT_NE(on.deliveries.find("63:42:100"), std::string::npos);
  // The corridor really ran the traversal: 14 hops, analytically.
  EXPECT_EQ(stats.launches, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.materializations, 0u);
  EXPECT_EQ(stats.hops_sum, 14u);
}

TEST(ExpressTest, SelfSendCorridorMatchesBaseline) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{2, 2, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    EXPECT_TRUE(mesh.ni(3).Inject(MakePacket(3, 3, 48, 5), sim.now()));
    sim.Run(100);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.hops_sum, 0u);
}

// Random many-to-many traffic: corridors launch in the quiet stretches,
// materialize when flows collide, and nothing may diverge from the
// cycle-accurate baseline.
TEST(ExpressTest, RandomTrafficMatchesBaselineByteForByte) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 8, 4, 128});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    Rng rng(99);
    uint64_t next_id = 1;
    for (int round = 0; round < 400; ++round) {
      const TileId src = static_cast<TileId>(rng.NextBelow(mesh.num_tiles()));
      const TileId dst = static_cast<TileId>(rng.NextBelow(mesh.num_tiles()));
      (void)mesh.ni(src).Inject(
          MakePacket(src, dst, rng.NextBelow(200), next_id++,
                     rng.NextBool(0.5) ? Vc::kRequest : Vc::kResponse),
          sim.now());
      // Mixed gaps: back-to-back bursts (contention) and long idles
      // (corridor territory).
      sim.Run(rng.NextBool(0.3) ? 1 : 40);
    }
    sim.Run(5'000);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off) << "express diverged:\n"
                         << on.counters << "\nvs\n"
                         << off.counters;
  EXPECT_GT(stats.launches, 50u);
  EXPECT_GT(stats.delivered, 50u);
}

// Crossing traffic on other links: a north->south packet crosses a
// west->east corridor's row at one router, but the two use different input
// ports and outputs there, so both run as corridors and neither
// materializes.
TEST(ExpressTest, CrossingTrafficOnOtherLinksRunsAsTwoCorridors) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 8, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    // Long west->east corridor along row y=3 (22 flits, 7 hops).
    EXPECT_TRUE(mesh.ni(3 * 8 + 0).Inject(MakePacket(24, 31, 640, 1), sim.now()));
    sim.Run(3);
    // North->south flow through column x=4 crosses the corridor's row.
    EXPECT_TRUE(mesh.ni(0 * 8 + 4).Inject(MakePacket(4, 60, 200, 2), sim.now()));
    sim.Run(2'000);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off) << on.counters << "\nvs\n" << off.counters;
  EXPECT_EQ(stats.launches, 2u);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.materializations, 0u);
}

// A second flow that needs a link the corridor holds: its head, injected
// for real on the corridor's path, is resident and routed to the held link,
// so the next check materializes the corridor before the two can contend.
TEST(ExpressTest, SharedLinkMaterializesMidCorridor) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 8, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    // West->east corridor along row y=3 (22 flits, 7 hops).
    EXPECT_TRUE(mesh.ni(24).Inject(MakePacket(24, 31, 640, 1), sim.now()));
    sim.Run(3);
    // Tile 26 sits on the corridor and sends east along the same links; the
    // corridor holds 26's east output, so this packet cannot launch.
    EXPECT_TRUE(mesh.ni(26).Inject(MakePacket(26, 31, 200, 2, Vc::kResponse), sim.now()));
    sim.Run(2'000);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off) << on.counters << "\nvs\n" << off.counters;
  EXPECT_EQ(stats.launches, 1u);
  EXPECT_EQ(stats.materializations, 1u);
}

// A real head queued behind another packet's tail in a path router: the
// tail leaves through a lower-numbered output, and in that same cycle the
// head reaches the front and may take the corridor's output. Only the
// resident-head count (not the front-of-buffer request bits) sees it
// beforehand. Tile 35 sends A north (sharing that link with G, so A's flits
// back up in its local input) and then B one hop south; corridor C runs down
// column 3 through tile 35 and on past B's destination, so a cycle B or C
// loses at tile 35 is not absorbed further on. C's start sweeps across the
// window in which B waits behind A's tail.
TEST(ExpressTest, HeadQueuedBehindTailMaterializesCorridor) {
  uint64_t materializations = 0;
  for (Cycle start = 0; start < 48; ++start) {
    ExpressStats stats;
    auto run = [&stats, start](bool express) {
      Simulator sim;
      Mesh mesh(MeshConfig{8, 8, 4, 128});
      mesh.SetExpressEnabled(express);
      sim.Register(&mesh);
      EXPECT_TRUE(mesh.ni(32).Inject(MakePacket(32, 3, 600, 1, Vc::kRequest), sim.now()));
      EXPECT_TRUE(mesh.ni(35).Inject(MakePacket(35, 3, 600, 2, Vc::kResponse), sim.now()));
      EXPECT_TRUE(mesh.ni(35).Inject(MakePacket(35, 43, 32, 3, Vc::kResponse), sim.now()));
      sim.Run(start);
      EXPECT_TRUE(mesh.ni(3).Inject(MakePacket(3, 59, 640, 4, Vc::kRequest), sim.now()));
      sim.Run(400);
      if (express) {
        stats = mesh.AggregateExpressStats();
      }
      return Observe(sim, mesh);
    };
    const MeshObservables on = run(true);
    const MeshObservables off = run(false);
    EXPECT_TRUE(on == off) << "corridor start " << start << ":\n"
                           << on.counters << "\nvs\n"
                           << off.counters;
    materializations += stats.materializations;
  }
  EXPECT_GT(materializations, 0u);
}

// Prefix release at the source: once the leader's tail has (virtually) left
// the source NI, a follower on the same route queues behind nothing. It
// launches the cycle the leader's tail leaves R_0, and reserves R_0's
// output as the leader releases it. One cycle earlier the leader's queue
// still holds its tail, so the follower's Inject materializes it.
TEST(ExpressTest, FollowerLaunchesAsLeaderTailLeavesSource) {
  for (const Cycle lag : {Cycle{0}, Cycle{1}}) {
    ExpressStats stats;
    auto run = [&stats, lag](bool express) {
      Simulator sim;
      Mesh mesh(MeshConfig{8, 1, 8, 64});
      mesh.SetExpressEnabled(express);
      sim.Register(&mesh);
      PacketRef leader = MakePacket(0, 7, 300, 1);  // 11 flits.
      const uint32_t flits = ComputeFlitCount(*leader);
      EXPECT_TRUE(mesh.ni(0).Inject(std::move(leader), sim.now()));
      sim.Run(flits - lag);
      EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 300, 2), sim.now()));
      sim.Run(200);
      if (express) {
        stats = mesh.AggregateExpressStats();
      }
      return Observe(sim, mesh);
    };
    const MeshObservables on = run(true);
    const MeshObservables off = run(false);
    EXPECT_TRUE(on == off) << "lag " << lag << ":\n" << on.counters << "\nvs\n" << off.counters;
    if (lag == 0) {
      EXPECT_EQ(stats.launches, 2u);
      EXPECT_EQ(stats.delivered, 2u);
      EXPECT_EQ(stats.materializations, 0u);
    } else {
      EXPECT_EQ(stats.launches, 1u);
      EXPECT_EQ(stats.materializations, 1u);
    }
  }
}

// A real head queued for the destination's Local output on the corridor's
// due cycle competes with the corridor's tail for the ejection port that
// cycle. The check runs before completions, so the corridor materializes
// instead of delivering ahead of arbitration.
TEST(ExpressTest, ForeignHeadAtDestinationOnDueCycleMaterializes) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    PacketRef corridor = MakePacket(0, 7, 300, 1);
    const Cycle due = ComputeFlitCount(*corridor) + 7;  // D + F + H, D = 0.
    EXPECT_TRUE(mesh.ni(0).Inject(std::move(corridor), sim.now()));
    sim.Run(due - 1);
    // A self-send at the destination: its head enters tile 7's local input
    // at due - 1, routed to the Local output the corridor's tail needs.
    EXPECT_TRUE(mesh.ni(7).Inject(MakePacket(7, 7, 64, 2, Vc::kResponse), sim.now()));
    sim.Run(200);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off) << on.latency << "\nvs\n" << off.latency;
  EXPECT_EQ(stats.launches, 1u);
  EXPECT_EQ(stats.materializations, 1u);
  EXPECT_EQ(stats.delivered, 0u);
}

// A second injection on the corridor's source tile: the corridor's
// unlaunched flits must requeue ahead of the new packet, preserving FIFO
// order per VC.
TEST(ExpressTest, SourceReinjectionMaterializesAndPreservesOrder) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 500, 1), sim.now()));
    sim.Run(4);  // Mid-drain: several flits still queued.
    EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 80, 2), sim.now()));
    sim.Run(1'000);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off);
  // Packet 1 first, then packet 2, both at tile 7.
  const size_t first = on.deliveries.find("7:1:500");
  const size_t second = on.deliveries.find("7:2:80");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_GE(stats.materializations, 1u);
}

// CanInject must report the virtual (draining) queue occupancy while a
// corridor holds the source queue's packet, matching the real run's
// backpressure decisions cycle for cycle.
TEST(ExpressTest, CanInjectSeesVirtualQueueOccupancy) {
  Simulator sim;
  Mesh mesh(MeshConfig{8, 1, 8, 16});  // 16-flit injection queues.
  mesh.SetExpressEnabled(true);
  sim.Register(&mesh);
  // 12 flits: after launch the virtual queue drains one per cycle.
  EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 350, 1), sim.now()));
  sim.Run(1);
  ASSERT_TRUE(mesh.AggregateExpressStats().launches == 1u);
  // 11 virtual flits outstanding: a 6-flit packet must not fit...
  EXPECT_FALSE(mesh.ni(0).CanInject(6, Vc::kRequest));
  // ...but 5 do, and the other VC is genuinely empty.
  EXPECT_TRUE(mesh.ni(0).CanInject(5, Vc::kRequest));
  EXPECT_TRUE(mesh.ni(0).CanInject(16, Vc::kResponse));
  sim.Run(6);
  // 7 cycles after launch: 5 virtual flits left, 11 slots free.
  EXPECT_TRUE(mesh.ni(0).CanInject(11, Vc::kRequest));
  EXPECT_FALSE(mesh.ni(0).CanInject(12, Vc::kRequest));
}

// Fault window opening mid-corridor: FaultInjector::Fire materializes every
// corridor before the window exists, so the drop lands on real flits at the
// exact cycle the baseline drops them.
TEST(ExpressTest, FaultWindowMidCorridorMatchesBaseline) {
  ExpressStats stats;
  std::string fault_trace_on;
  std::string fault_trace_off;
  auto run = [&](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    FaultPlan plan;
    plan.seed = 7;
    plan.LinkDrop(/*at=*/6, /*duration=*/30, /*rate=*/1.0);
    FaultInjector injector(plan, FaultHooks{.mesh = &mesh});
    sim.Register(&injector);
    // 17 flits, 7 hops: in flight well past cycle 6.
    EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 512, 9), sim.now()));
    sim.Run(500);
    (express ? fault_trace_on : fault_trace_off) = injector.TraceString();
    if (express) {
      stats = mesh.AggregateExpressStats();
      EXPECT_GE(injector.counters().Get("fault.link_drops_applied"), 1u);
    }
    auto r = Observe(sim, mesh);
    r.counters += injector.counters().ToString();
    return r;
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off) << on.counters << "\nvs\n" << off.counters;
  EXPECT_EQ(fault_trace_on, fault_trace_off);
  EXPECT_EQ(stats.launches, 1u);
  EXPECT_EQ(stats.materializations, 1u);
  // The window also blocks new launches while open (NocQuiet is false).
  EXPECT_EQ(stats.delivered, 0u);
}

// No corridor may launch while a fault window is open; once every window
// closes, launches resume.
TEST(ExpressTest, LaunchesRefusedWhileFaultWindowOpen) {
  Simulator sim;
  Mesh mesh(MeshConfig{8, 1, 8, 64});
  mesh.SetExpressEnabled(true);
  sim.Register(&mesh);
  FaultPlan plan;
  plan.seed = 3;
  plan.LinkCorrupt(/*at=*/0, /*duration=*/100, /*rate=*/0.0);  // Open, harmless.
  FaultInjector injector(plan, FaultHooks{.mesh = &mesh});
  sim.Register(&injector);
  sim.Run(2);
  EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 64, 1), sim.now()));
  sim.Run(200);  // Past the window close at cycle 100.
  EXPECT_EQ(mesh.AggregateExpressStats().launches, 0u);
  EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 64, 2), sim.now()));
  sim.Run(200);
  EXPECT_EQ(mesh.AggregateExpressStats().launches, 1u);
}

// Weighted-arbitration contention (the tenants' 8:1 NoC share): express must
// neither distort the converged split nor diverge from the baseline. The
// two classes share every link to tile 3, so a corridor that launches in a
// gap meets the other class's head and materializes.
TEST(ExpressTest, WeightedShareUnchangedWithExpressEnabled) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{4, 1, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    mesh.SetArbClassWeight(1, 8);
    mesh.SetArbClassWeight(2, 1);
    uint64_t next_id = 1;
    uint64_t heavy = 0;
    uint64_t light = 0;
    for (Cycle c = 0; c < 20000; ++c) {
      auto a = MakePacket(0, 3, 256, next_id++);
      a->arb_class = 1;
      (void)mesh.ni(0).Inject(a, sim.now());
      auto b = MakePacket(1, 3, 256, next_id++);
      b->arb_class = 2;
      (void)mesh.ni(1).Inject(b, sim.now());
      sim.Run(1);
      while (mesh.ni(3).HasDeliverable()) {
        auto got = mesh.ni(3).Retrieve();
        (got->arb_class == 1 ? heavy : light) += 1;
      }
    }
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    MeshObservables r = Observe(sim, mesh);
    r.deliveries += "heavy=" + std::to_string(heavy) + " light=" + std::to_string(light);
    return r;
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off) << on.deliveries << "\nvs\n" << off.deliveries;
  // Saturated contention start to finish: no corridor survives it.
  EXPECT_EQ(stats.materializations, stats.launches);
  EXPECT_EQ(stats.delivered, 0u);
}

// SetArbClassWeight mid-run is a reconfiguration: in-flight corridors
// materialize first (deficit resets must land on real state), and the run
// stays byte-identical.
TEST(ExpressTest, WeightReconfigMidCorridorMatchesBaseline) {
  ExpressStats stats;
  auto run = [&stats](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 512, 3), sim.now()));
    sim.Run(4);
    mesh.SetArbClassWeight(1, 4);  // Mid-corridor reconfiguration.
    sim.Run(1'000);
    if (express) {
      stats = mesh.AggregateExpressStats();
    }
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off);
  EXPECT_EQ(stats.launches, 1u);
  EXPECT_EQ(stats.materializations, 1u);
}

TEST(ExpressTest, DisableMidRunMaterializesInFlightCorridors) {
  auto run = [](bool express) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 64});
    mesh.SetExpressEnabled(express);
    sim.Register(&mesh);
    EXPECT_TRUE(mesh.ni(0).Inject(MakePacket(0, 7, 512, 4), sim.now()));
    sim.Run(5);
    mesh.SetExpressEnabled(false);
    sim.Run(1'000);
    return Observe(sim, mesh);
  };
  const MeshObservables on = run(true);
  const MeshObservables off = run(false);
  EXPECT_TRUE(on == off);
}

}  // namespace
}  // namespace apiary
