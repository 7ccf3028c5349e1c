// Seeded express differential, stopped mid-flight.
//
// Each seed builds an 8x8 mesh (input buffers 2-8 flits deep, weighted
// arbitration on odd seeds) with two clocked injectors: one registered
// before the mesh and one after it, so packets enter both ahead of and
// behind the mesh's tick in a cycle. They send the corner-to-corner
// perimeter legs 0->63->7->56->7->63->0 plus random traffic, on both VCs and
// three arbitration classes. The run stops at a fixed cycle with packets in
// flight (no drain phase), and everything observable must match the same
// seed with express off: TotalFlitsRouted, TotalArbProbes,
// AggregateCounters, the latency histogram and the deliveries at the stop
// cycle, and the flit and ejection counts the injectors read at every one
// of their ticks. Reads that land mid-corridor are the point: the mesh must
// add in-flight corridor progress to its totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/noc/mesh.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/sim/payload_arena.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

// Test-local pool for injected packets; outlives every mesh.
PacketPool& TestPool() {
  FallbackPayloadArena();
  static PacketPool pool;
  return pool;
}

constexpr TileId kLegs[6][2] = {{0, 63}, {63, 7}, {7, 56}, {56, 7}, {7, 63}, {63, 0}};

// Sends one packet every 1..max_gap cycles, from a seeded schedule, and
// folds the mesh totals it sees at each of its ticks into a digest.
class Injector : public Clocked {
 public:
  Injector(Mesh* mesh, uint64_t seed, uint32_t max_gap)
      : mesh_(mesh), rng_(seed), max_gap_(max_gap) {}

  void Tick(Cycle now) override {
    if (now < next_) {
      return;
    }
    seen_ = (seen_ ^ mesh_->TotalFlitsRouted()) * 1099511628211ull;
    if (++ticks_ % 8 == 0) {
      seen_ = (seen_ ^ mesh_->AggregateCounters().Get("ni.flits_ejected")) * 1099511628211ull;
    }
    TileId src = 0;
    TileId dst = 0;
    if (rng_.NextBool(0.5)) {
      const auto& leg = kLegs[leg_++ % 6];
      src = leg[0];
      dst = leg[1];
    } else {
      src = static_cast<TileId>(rng_.NextBelow(mesh_->num_tiles()));
      dst = static_cast<TileId>(rng_.NextBelow(mesh_->num_tiles()));
    }
    PacketRef p = TestPool().Acquire();
    p->src = src;
    p->dst = dst;
    p->vc = rng_.NextBool(0.5) ? Vc::kRequest : Vc::kResponse;
    p->arb_class = static_cast<uint8_t>(rng_.NextBelow(3));
    p->packet_id = ++sent_;
    p->payload.assign(rng_.NextBelow(320), static_cast<uint8_t>(sent_));
    (void)mesh_->ni(src).Inject(std::move(p), now);
    next_ = now + 1 + rng_.NextBelow(max_gap_);
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return next_ > now ? next_ : now;
  }
  std::string DebugName() const override { return "injector"; }

  uint64_t seen() const { return seen_; }

 private:
  Mesh* mesh_;
  Rng rng_;
  uint32_t max_gap_;
  Cycle next_ = 0;
  uint64_t sent_ = 0;
  uint64_t ticks_ = 0;
  uint32_t leg_ = 0;
  uint64_t seen_ = 14695981039346656037ull;
};

std::string RunSeed(uint64_t seed, bool express, ExpressStats* stats) {
  Simulator sim;
  Mesh mesh(MeshConfig{8, 8, static_cast<uint32_t>(2 + seed % 7), 128});
  mesh.SetExpressEnabled(express);
  if (seed % 2 == 1) {
    mesh.SetArbClassWeight(1, 4);
    mesh.SetArbClassWeight(2, 1);
  }
  // Gaps from near-saturating to sparse, so corridors launch, collide and
  // materialize.
  const uint32_t max_gap = static_cast<uint32_t>(4 + (seed * 7) % 60);
  Injector before(&mesh, seed * 2 + 1, max_gap);
  Injector after(&mesh, seed * 2 + 2, max_gap);
  sim.Register(&before);
  sim.Register(&mesh);
  sim.Register(&after);
  sim.Run(1'500 + seed % 97);
  *stats = mesh.AggregateExpressStats();
  std::string r = "end=" + std::to_string(sim.now()) +
                  " flits=" + std::to_string(mesh.TotalFlitsRouted()) +
                  " probes=" + std::to_string(mesh.TotalArbProbes()) +
                  " seen=" + std::to_string(before.seen()) + "/" + std::to_string(after.seen()) +
                  "\n" + mesh.AggregateCounters().ToString() + "\n" +
                  mesh.AggregateLatency().Summary() + "\n";
  for (uint32_t t = 0; t < mesh.num_tiles(); ++t) {
    while (PacketRef p = mesh.ni(t).Retrieve()) {
      r += std::to_string(t) + ':' + std::to_string(p->packet_id) + ' ';
    }
  }
  return r;
}

TEST(ExpressSeededTest, InjectorsOnBothSidesMatchMidFlight) {
  ExpressStats total;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    ExpressStats on_stats;
    ExpressStats off_stats;
    const std::string on = RunSeed(seed, /*express=*/true, &on_stats);
    const std::string off = RunSeed(seed, /*express=*/false, &off_stats);
    ASSERT_EQ(on, off) << "seed " << seed;
    EXPECT_EQ(off_stats.launches, 0u);
    total.launches += on_stats.launches;
    total.delivered += on_stats.delivered;
    total.materializations += on_stats.materializations;
  }
  // Corridors engaged: many delivered, and many materialized against real
  // traffic, so both paths were exercised.
  EXPECT_GT(total.delivered, 1'000u);
  EXPECT_GT(total.materializations, 1'000u);
}

}  // namespace
}  // namespace apiary
