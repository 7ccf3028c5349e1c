// Express-lane event paths: the push-marked held-link check, the second
// fixpoint pass a mark forces, and the live-slot mask.
//
// Every scenario runs express on vs off (SetExpressEnabled(false)) and
// compares what the mesh exposes between ticks (flits routed, arbitration
// probes, aggregate counters) after every cycle, plus the deliveries, byte
// for byte. The express run also pins the cycle in which the lane acts, so
// a check that fires a cycle late, or not at all, fails here even where the
// final state would still match.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/noc/mesh.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/sim/payload_arena.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

PacketPool& TestPool() {
  FallbackPayloadArena();
  static PacketPool pool;
  return pool;
}

PacketRef MakePacket(TileId src, TileId dst, size_t payload_bytes, uint64_t id,
                     Vc vc = Vc::kRequest) {
  PacketRef p = TestPool().Acquire();
  p->src = src;
  p->dst = dst;
  p->vc = vc;
  p->packet_id = id;
  p->payload.assign(payload_bytes, static_cast<uint8_t>(id));
  return p;
}

uint32_t Flits(size_t payload_bytes) {
  return ComputeFlitCount(*MakePacket(0, 0, payload_bytes, 0));
}

// One scenario run, stepped a cycle at a time.
class SteppedRun {
 public:
  SteppedRun(MeshConfig config, bool express) : mesh_(config) {
    mesh_.SetExpressEnabled(express);
    sim_.Register(&mesh_);
  }

  Mesh& mesh() { return mesh_; }

  void Inject(PacketRef packet) {
    const TileId src = packet->src;
    EXPECT_TRUE(mesh_.ni(src).Inject(std::move(packet), sim_.now()));
  }

  // Runs `cycles` cycles, recording after each one what an observer between
  // ticks sees and the lane's statistics.
  void Step(uint32_t cycles = 1) {
    for (uint32_t i = 0; i < cycles; ++i) {
      sim_.Run(1);
      trace_ += std::to_string(mesh_.TotalFlitsRouted()) + ' ' +
                std::to_string(mesh_.TotalArbProbes()) + ' ' +
                mesh_.AggregateCounters().ToString() + '\n';
      stats_.push_back(mesh_.AggregateExpressStats());
    }
  }

  // The trace plus every delivery, in retrieval order.
  std::string Observables() {
    std::string out = trace_;
    for (uint32_t t = 0; t < mesh_.num_tiles(); ++t) {
      while (auto p = mesh_.ni(t).Retrieve()) {
        out += std::to_string(t) + ':' + std::to_string(p->packet_id) + ':' +
               std::to_string(p->payload.size()) + '\n';
      }
    }
    return out;
  }

  // Lane statistics after step `i` (0-based).
  const ExpressStats& stats(size_t i) const { return stats_.at(i); }
  const ExpressStats& last() const { return stats_.back(); }
  size_t steps() const { return stats_.size(); }

 private:
  Simulator sim_;
  Mesh mesh_;
  std::string trace_;
  std::vector<ExpressStats> stats_;
};

// A real head injected mid-corridor onto a link the corridor holds: the
// router marks the corridor as it accepts the head, and the next tick
// materializes it — the cycle the head could first compete for the link.
TEST(ExpressEventTest, HeadOnHeldLinkMaterializesTheNextCycle) {
  size_t accepted_step = 0;
  auto run = [&accepted_step](bool express) {
    SteppedRun r(MeshConfig{8, 1, 8, 64}, express);
    r.Inject(MakePacket(0, 7, 1000, 1));  // Holds each link for ~36 cycles.
    r.Step(10);
    // Tile 3 sends east through the held (3, East) link. The corridor's tail
    // is far behind, so this packet cannot launch and is injected for real:
    // its head enters router 3 in the next tick.
    r.Inject(MakePacket(3, 7, 64, 2, Vc::kResponse));
    r.Step(1);
    accepted_step = r.steps() - 1;
    r.Step(200);
    if (express) {
      EXPECT_EQ(r.last().launches, 1u);
      EXPECT_EQ(r.last().materializations, 1u);
      EXPECT_EQ(r.stats(accepted_step).materializations, 0u);
      EXPECT_EQ(r.stats(accepted_step + 1).materializations, 1u);
    }
    return r.Observables();
  };
  const std::string on = run(true);
  const std::string off = run(false);
  EXPECT_EQ(on, off);
}

// A mark on a link released before the check is stale. A real head chases
// a corridor's tail along its row: one cycle behind it, the head arrives in
// router 3 as the tail leaves, and every router it reaches marks the
// corridor, whose link there is released at the next tick top. The check
// reads the held links, finds nothing, and the corridor completes. One
// cycle earlier the head arrives while the tail is still in router 3 and
// can compete for the link, so the corridor materializes.
TEST(ExpressEventTest, StaleMarkOnReleasedLinkDoesNotMaterialize) {
  const uint32_t flits = Flits(1000);
  ExpressStats quiet;
  {
    SteppedRun r(MeshConfig{8, 1, 8, 64}, true);
    r.Inject(MakePacket(0, 7, 1000, 1));
    r.Step(200);
    quiet = r.last();
    ASSERT_EQ(quiet.delivered, 1u);
  }
  // The corridor launches in step 1 (cycle D), and its tail leaves router 3
  // at D + F + 3, in step F + 4. Injecting after `wait` steps puts the real
  // head into router 3 in step wait + 1.
  for (uint32_t wait = flits; wait <= flits + 5; ++wait) {
    ExpressStats stats;
    auto run = [&stats, wait](bool express) {
      SteppedRun r(MeshConfig{8, 1, 8, 64}, express);
      r.Inject(MakePacket(0, 7, 1000, 1));
      r.Step(wait);
      // Two packets queued at tile 3, so neither launches.
      r.Inject(MakePacket(3, 7, 64, 2));
      r.Inject(MakePacket(3, 7, 64, 3));
      r.Step(200);
      if (express) {
        stats = r.last();
      }
      return r.Observables();
    };
    const std::string on = run(true);
    const std::string off = run(false);
    EXPECT_EQ(on, off) << "wait " << wait;
    if (wait + 1 < flits + 4) {
      EXPECT_EQ(stats.materializations, 1u) << "wait " << wait;
    } else {
      EXPECT_EQ(stats.materializations, 0u) << "wait " << wait;
      EXPECT_EQ(stats.delivered, 1u) << "wait " << wait;
    }
    if (wait + 1 == flits + 4) {
      // The head marked the corridor at routers it reached behind the tail;
      // a corridor whose head has ejected is checked only when marked.
      EXPECT_GT(stats.checks, quiet.checks);
    }
  }
}

// Corridor A (slot 0, tile 5 -> 4) holds router 4's Local output while its
// body ejects; its head ejected long ago, so only a mark gets it checked.
// Corridor B (slot 1, tile 0 -> 4) launched before A reserved that output,
// fails to reserve it, and materializes: its head, now real in router 4 and
// routed Local, marks A. A lies below the cursor, so the fixpoint's second
// pass materializes it, in the same tick.
TEST(ExpressEventTest, HigherSlotMaterializationForcesSecondPass) {
  auto run = [](bool express) {
    SteppedRun r(MeshConfig{8, 1, 8, 64}, express);
    r.Inject(MakePacket(5, 4, 1000, 1));
    r.Step(1);  // A launches at D.
    r.Inject(MakePacket(0, 4, 64, 2, Vc::kResponse));
    r.Step(1);  // B launches at D + 1; A reserves (4, Local) at D + 2.
    r.Step(200);
    if (express) {
      EXPECT_EQ(r.last().launches, 2u);
      EXPECT_EQ(r.last().materializations, 2u);
      EXPECT_EQ(r.last().delivered, 0u);
      // B wants (4, Local) at D + 6, in step 7: both materialize there, B
      // in the first pass and A, checked for its mark alone, in the second.
      EXPECT_EQ(r.stats(5).materializations, 0u);
      EXPECT_EQ(r.stats(6).materializations, 2u);
      EXPECT_EQ(r.stats(6).checks - r.stats(5).checks, 2u);
    }
    return r.Observables();
  };
  const std::string on = run(true);
  const std::string off = run(false);
  EXPECT_EQ(on, off);
}

// Sixteen self-send corridors fill every slot, so a seventeenth packet is
// injected for real; slots freed by completions are reused lowest first.
TEST(ExpressEventTest, SeventeenthLaunchRefusedAndSlotsReusedLowestFirst) {
  static constexpr uint32_t kAllSlots = 0xFFFF;  // Sixteen corridor slots.
  auto run = [](bool express) {
    SteppedRun r(MeshConfig{5, 4, 8, 64}, express);
    // Tiles 0..16 each send themselves a packet; tiles 3 and 9 send short
    // ones. The inject walk visits tiles in ascending order, so tile t
    // takes slot t.
    for (TileId t = 0; t <= 16; ++t) {
      r.Inject(MakePacket(t, t, t == 3 || t == 9 ? 16 : 1000, t + 1));
    }
    r.Step(1);
    if (express) {
      EXPECT_EQ(r.last().launches, 16u);
      EXPECT_EQ(r.mesh().ExpressLiveSlots(), kAllSlots);
    }
    // The short corridors complete, freeing slots 3 and 9.
    r.Step(Flits(16) + 1);
    if (express) {
      EXPECT_EQ(r.last().delivered, 2u);
      EXPECT_EQ(r.mesh().ExpressLiveSlots(), kAllSlots & ~(1u << 3) & ~(1u << 9));
    }
    r.Inject(MakePacket(17, 17, 64, 18));
    r.Step(1);
    if (express) {
      EXPECT_EQ(r.last().launches, 17u);
      EXPECT_EQ(r.mesh().ExpressLiveSlots(), kAllSlots & ~(1u << 9));
    }
    r.Inject(MakePacket(18, 18, 64, 19));
    r.Step(1);
    if (express) {
      EXPECT_EQ(r.last().launches, 18u);
      EXPECT_EQ(r.mesh().ExpressLiveSlots(), kAllSlots);
    }
    // Full again: the next packet is refused and injected for real.
    r.Inject(MakePacket(19, 19, 64, 20));
    r.Step(200);
    if (express) {
      EXPECT_EQ(r.last().launches, 18u);
      EXPECT_EQ(r.last().delivered, 18u);
      EXPECT_EQ(r.mesh().ExpressLiveSlots(), 0u);
    }
    return r.Observables();
  };
  const std::string on = run(true);
  const std::string off = run(false);
  EXPECT_EQ(on, off);
}

}  // namespace
}  // namespace apiary
