// Lifecycle tests for the PacketPool that backs the executed-cycle message
// path: freelist recycling, field scrubbing on release, the exhaustion
// fallback to plain heap packets, and — the load-bearing property — that a
// full chaos campaign (link drops, corruption, router stalls) leaves the
// acquire/release ledger balanced. Dropped and corrupted packets are
// discarded mid-path by routers and NIs; if any of those paths forgot a
// PacketRef, the pool's live count would show the leak here.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/accel/echo.h"
#include "src/accel/probe.h"
#include "src/core/service_ids.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/noc/packet_pool.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

Message EchoRequest(std::vector<uint8_t> payload = {0xAB}) {
  Message msg;
  msg.opcode = kOpEcho;
  msg.payload = std::move(payload);
  return msg;
}

// ------------------------------------------------------------------
// Pool unit behavior.
// ------------------------------------------------------------------

TEST(PacketPoolTest, RecyclesThroughFreelist) {
  PacketPool pool;
  NocPacket* first = nullptr;
  {
    PacketRef p = pool.Acquire();
    first = p.get();
    EXPECT_EQ(p->pool, &pool);
    EXPECT_EQ(pool.stats().heap_allocs, 1u);
    EXPECT_EQ(pool.stats().live, 1u);
    EXPECT_EQ(pool.stats().high_water, 1u);
  }
  // Last reference dropped: back on the freelist, not freed.
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.stats().free_size, 1u);

  PacketRef again = pool.Acquire();
  EXPECT_EQ(again.get(), first);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);  // No second heap trip.
  EXPECT_EQ(pool.stats().acquires, pool.stats().pool_hits + pool.stats().heap_allocs);
}

TEST(PacketPoolTest, ReleaseScrubsSimulationVisibleState) {
  PacketPool pool;
  NocPacket* raw = nullptr;
  {
    PacketRef p = pool.Acquire();
    raw = p.get();
    p->src = 3;
    p->dst = 7;
    p->vc = Vc::kResponse;
    p->packet_id = 42;
    p->inject_cycle = 1000;
    p->head_len = 70;
    p->payload.assign(200, 0xEE);
    p->checksum = 0xDEADBEEF;
    p->wire_touched = true;
    p->flit_count = ComputeFlitCount(*p);
    p->dropped = true;
  }
  PacketRef again = pool.Acquire();
  ASSERT_EQ(again.get(), raw);
  EXPECT_EQ(again->src, kInvalidTile);
  EXPECT_EQ(again->dst, kInvalidTile);
  EXPECT_EQ(again->vc, Vc::kRequest);
  EXPECT_EQ(again->packet_id, 0u);
  EXPECT_EQ(again->inject_cycle, 0u);
  EXPECT_EQ(again->head_len, 0u);
  EXPECT_TRUE(again->payload.empty());
  EXPECT_EQ(again->checksum, 0u);
  EXPECT_FALSE(again->wire_touched);
  EXPECT_EQ(again->flit_count, 1u);
  EXPECT_FALSE(again->dropped);
  // The payload's backing capacity survives the scrub — that reuse is the
  // whole point of pooling.
  EXPECT_GE(again->payload.capacity(), 200u);
}

TEST(PacketPoolTest, SharedRefsReleaseExactlyOnce) {
  PacketPool pool;
  {
    PacketRef a = pool.Acquire();
    EXPECT_EQ(a->refs, 1u);
    PacketRef b = a;               // Copy bumps the count.
    PacketRef c = std::move(a);    // Move transfers it.
    EXPECT_EQ(c->refs, 2u);
    EXPECT_FALSE(static_cast<bool>(a));
    b.Reset();
    EXPECT_EQ(c->refs, 1u);
    EXPECT_EQ(pool.stats().live, 1u);  // Still held by c.
  }
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().releases, 1u);
}

TEST(PacketPoolTest, ResetStatsPreservesOccupancy) {
  PacketPool pool;
  PacketRef held = pool.Acquire();
  { PacketRef parked = pool.Acquire(); }  // One on the freelist.
  pool.ResetStats();
  EXPECT_EQ(pool.stats().acquires, 0u);
  EXPECT_EQ(pool.stats().releases, 0u);
  EXPECT_EQ(pool.stats().live, 1u);
  EXPECT_EQ(pool.stats().high_water, 1u);
  EXPECT_EQ(pool.stats().free_size, 1u);
}

// ------------------------------------------------------------------
// End-to-end: acquire/release balance across a chaos campaign.
// ------------------------------------------------------------------

TEST(PacketPoolChaosTest, CampaignLeavesLedgerBalanced) {
  {
    TestBoard tb;
    // The pool is per-mesh state: this board's mesh owns it, and it dies
    // with the TestBoard below.
    PacketPool& pool = tb.board.mesh().pool();
    pool.ResetStats();
    const uint32_t live_before = pool.stats().live;
    AppId app = tb.os.CreateApp("app");
    ServiceId svc = 0;
    auto* echo = new EchoAccelerator(0);
    tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
    auto* probe = new ProbeAccelerator();
    const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
    const CapRef cap = tb.os.GrantSendToService(ct, svc);

    // Overlapping fault windows that exercise every mid-path discard:
    // link drops (router-side flit loss), corruption (ejecting-NI checksum
    // discard) and a router stall (packets parked in wormhole buffers).
    FaultPlan plan;
    plan.seed = 77;
    plan.LinkDrop(/*at=*/5'000, /*duration=*/15'000, /*rate=*/0.5);
    plan.LinkCorrupt(/*at=*/25'000, /*duration=*/15'000, /*rate=*/0.5);
    plan.RouterStall(/*at=*/45'000, /*duration=*/5'000, /*router=*/5);
    FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});

    // Keep traffic flowing before, during and after every window.
    for (int burst = 0; burst < 40; ++burst) {
      for (int i = 0; i < 5; ++i) {
        probe->EnqueueSend(EchoRequest({static_cast<uint8_t>(burst), static_cast<uint8_t>(i)}),
                           cap);
      }
      tb.sim.Run(2'000);
    }
    // Drain: windows are over, let everything in flight land or be dropped.
    tb.sim.Run(100'000);
    ASSERT_TRUE(injector.Exhausted(tb.sim.now()));

    // The campaign actually bit: some requests died, some survived.
    EXPECT_GE(injector.counters().Get("fault.link_drops_applied"), 1u);
    EXPECT_GE(injector.counters().Get("fault.link_corruptions_applied"), 1u);
    EXPECT_FALSE(probe->received.empty());
    EXPECT_LT(probe->received.size(), 200u);

    // Every acquired packet came back — delivered, dropped, or discarded.
    const PacketPoolStats& s = pool.stats();
    EXPECT_EQ(s.acquires, s.pool_hits + s.heap_allocs);
    EXPECT_EQ(s.live, live_before);
    EXPECT_EQ(s.releases, s.acquires);
    // Steady state reuses the freelist instead of the heap.
    EXPECT_GT(s.pool_hits, s.heap_allocs);
  }
  // TestBoard destruction tears down the pool with its owning mesh; a
  // leaked PacketRef would have shown up as live > live_before above.
}

}  // namespace
}  // namespace apiary
