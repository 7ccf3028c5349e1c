// Unit tests for the simulation kernel: RNG and the simulator loop.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.NextInRange(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(50.0);
  }
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextZipf(100, 0.99), 100u);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(29);
  uint64_t low = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 0.99) < 10) {
      ++low;
    }
  }
  // Under theta=0.99 the top-10 keys should absorb a large chunk of mass.
  EXPECT_GT(low, static_cast<uint64_t>(n) / 4);
}

TEST(RngTest, ZipfDegenerateSizes) {
  Rng rng(31);
  EXPECT_EQ(rng.NextZipf(0, 0.99), 0u);
  EXPECT_EQ(rng.NextZipf(1, 0.99), 0u);
}

class CountingBlock : public Clocked {
 public:
  void Tick(Cycle) override { ++ticks; }
  std::string DebugName() const override { return "counting_block"; }
  int ticks = 0;
};

TEST(SimulatorTest, TicksRegisteredBlocks) {
  Simulator sim;
  CountingBlock a;
  CountingBlock b;
  sim.Register(&a);
  sim.Register(&b);
  sim.Run(25);
  EXPECT_EQ(a.ticks, 25);
  EXPECT_EQ(b.ticks, 25);
  EXPECT_EQ(sim.now(), 25u);
}

TEST(SimulatorTest, UnregisterStopsTicking) {
  Simulator sim;
  CountingBlock a;
  sim.Register(&a);
  sim.Run(10);
  sim.Unregister(&a);
  sim.Run(10);
  // One extra tick may occur in the removal cycle itself; bound it tightly.
  EXPECT_LE(a.ticks, 11);
  EXPECT_GE(a.ticks, 10);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  CountingBlock a;
  sim.Register(&a);
  const bool fired = sim.RunUntil([&] { return a.ticks >= 7; }, 100);
  EXPECT_TRUE(fired);
  EXPECT_LE(sim.now(), 10u);
}

TEST(SimulatorTest, RunUntilTimesOut) {
  Simulator sim;
  const bool fired = sim.RunUntil([] { return false; }, 50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(SimulatorTest, CyclesToNsUsesFrequency) {
  Simulator sim(250.0);
  EXPECT_DOUBLE_EQ(sim.CyclesToNs(250), 1000.0);
  Simulator sim2(100.0);
  EXPECT_DOUBLE_EQ(sim2.CyclesToNs(100), 1000.0);
}

// --- Quiescence skipping. ---

// A block that is idle until work is pushed into it (pending), recording
// every cycle it was actually ticked.
class SleepyBlock : public Clocked {
 public:
  void Tick(Cycle now) override {
    ticked_at.push_back(now);
    if (pending) {
      pending = false;
      processed_at.push_back(now);
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return pending ? now : kNoActivity;
  }
  std::string DebugName() const override { return "sleepy_block"; }

  bool pending = false;
  std::vector<Cycle> ticked_at;
  std::vector<Cycle> processed_at;
};

TEST(SimulatorSkipTest, IdleBlocksAreFastForwarded) {
  Simulator sim;
  SleepyBlock a;
  sim.Register(&a);
  sim.Run(1000);
  EXPECT_EQ(sim.now(), 1000u);
  // Cycle 0 executes (Step runs before the first skip opportunity), then one
  // jump covers the rest.
  EXPECT_EQ(a.ticked_at, (std::vector<Cycle>{0}));
  EXPECT_EQ(sim.skips(), 1u);
  EXPECT_EQ(sim.skipped_cycles(), 999u);
}

TEST(SimulatorSkipTest, NoSkipEscapeHatchTicksEveryCycle) {
  Simulator sim;
  sim.SetSkipEnabled(false);
  SleepyBlock a;
  sim.Register(&a);
  sim.Run(1000);
  EXPECT_EQ(sim.now(), 1000u);
  EXPECT_EQ(a.ticked_at.size(), 1000u);
  EXPECT_EQ(sim.skips(), 0u);
  EXPECT_EQ(sim.skipped_cycles(), 0u);
}

TEST(SimulatorSkipTest, HarnessWakeInsideSkippedWindowRunsAtItsExactCycle) {
  Simulator sim;
  SleepyBlock a;
  sim.Register(&a);
  // Harness code hands the parked block work between runs, at cycles the
  // optimized engine would otherwise jump over; each wake must tick the
  // block on the very next executed cycle.
  sim.Run(500);
  a.pending = true;
  a.RequestWake();
  sim.Run(250);
  a.pending = true;
  a.RequestWake();
  sim.Run(250);
  EXPECT_EQ(a.processed_at, (std::vector<Cycle>{500, 750}));
  // Only cycle 0 and the two wake cycles executed; the rest was skipped.
  EXPECT_EQ(a.ticked_at, (std::vector<Cycle>{0, 500, 750}));
  EXPECT_EQ(sim.now(), 1000u);
  EXPECT_EQ(sim.skipped_cycles(), 997u);
}

// A block that re-arms its own timer from inside Tick: fires every 100
// cycles starting at 50, sleeping in between.
class TimerBlock : public Clocked {
 public:
  void Tick(Cycle now) override {
    if (now >= wake_at_) {
      fired_at.push_back(now);
      wake_at_ = now + 100;
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return wake_at_ > now ? wake_at_ : now;
  }
  std::string DebugName() const override { return "timer_block"; }

  std::vector<Cycle> fired_at;

 private:
  Cycle wake_at_ = 50;
};

TEST(SimulatorSkipTest, BlockReArmsItselfFromInsideTick) {
  Simulator sim;
  TimerBlock t;
  sim.Register(&t);
  sim.Run(1000);
  std::vector<Cycle> expected;
  for (Cycle c = 50; c < 1000; c += 100) {
    expected.push_back(c);
  }
  EXPECT_EQ(t.fired_at, expected);
  EXPECT_GT(sim.skipped_cycles(), 900u);
}

TEST(SimulatorSkipTest, SkippedPlusExecutedEqualsNow) {
  Simulator sim;
  TimerBlock t;
  sim.Register(&t);
  sim.Run(5000);
  // Every simulated cycle was either executed or skipped; no double counting.
  EXPECT_EQ(sim.now(), 5000u);
  EXPECT_LT(sim.skipped_cycles(), 5000u);
  EXPECT_GT(sim.skipped_cycles(), 0u);
}

TEST(SimulatorSkipTest, RunUntilStopsAtTheSatisfyingBoundary) {
  Simulator sim;
  TimerBlock t;
  sim.Register(&t);
  // The predicate flips when the timer fires at cycle 250; RunUntil must
  // report the boundary right after that executed cycle, not the far side of
  // a subsequent jump.
  const bool fired = sim.RunUntil([&] { return t.fired_at.size() >= 3; }, 10'000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 251u);
}

TEST(SimulatorTest, DoubleUnregisterIsHarmless) {
  Simulator sim;
  CountingBlock a;
  CountingBlock b;
  sim.Register(&a);
  sim.Register(&b);
  sim.Run(5);
  sim.Unregister(&a);
  sim.Unregister(&a);  // Duplicate removal of the same block.
  sim.Run(5);
  EXPECT_LE(a.ticks, 6);
  // The survivor keeps ticking: the duplicate entry must not eat `b`.
  EXPECT_EQ(b.ticks, 10);
}

// Register/unregister churn regression: slot identities must stay stable
// while other blocks come and go, recycled slots must never alias their
// previous tenant, and the optimized engine must agree with the reference
// engine (skipping off: every block, every cycle) on every block's tick
// count.
TEST(SimulatorTest, RegisterUnregisterChurnTicksExactlyTheRightBlocks) {
  auto run = [](bool skip) {
    Simulator sim;
    sim.SetSkipEnabled(skip);
    CountingBlock anchor;  // Always busy: pins the clock, no fast-forwards.
    sim.Register(&anchor);

    std::vector<std::unique_ptr<CountingBlock>> churn;
    std::vector<int> final_ticks;
    // 40 rounds: add two busy blocks, run, remove the older one (plus a
    // harmless double-unregister), run again. Slot ids get freed and
    // recycled continuously while the anchor keeps every cycle executing.
    for (int round = 0; round < 40; ++round) {
      churn.push_back(std::make_unique<CountingBlock>());
      sim.Register(churn.back().get());
      churn.push_back(std::make_unique<CountingBlock>());
      sim.Register(churn.back().get());
      sim.Run(3);
      CountingBlock* oldest = churn.front().get();
      sim.Unregister(oldest);
      sim.Unregister(oldest);  // Double-unregister must be harmless.
      sim.Run(3);
      final_ticks.push_back(oldest->ticks);
      churn.erase(churn.begin());
    }
    for (const auto& block : churn) {
      final_ticks.push_back(block->ticks);
    }
    final_ticks.push_back(anchor.ticks);
    return final_ticks;
  };

  const std::vector<int> optimized = run(true);
  const std::vector<int> reference = run(false);
  EXPECT_EQ(optimized, reference);
  // The anchor saw every cycle: 40 rounds of 6 cycles each.
  EXPECT_EQ(optimized.back(), 240);
}

// A parked block's slot is removed and immediately recycled by a new
// registration; a stale wake aimed at the old registration must not
// activate (or tick) the slot's new tenant.
TEST(SimulatorTest, RecycledSlotDoesNotAliasStaleWakes) {
  Simulator sim;
  CountingBlock anchor;
  sim.Register(&anchor);
  SleepyBlock old_tenant;
  sim.Register(&old_tenant);
  sim.Run(2);  // old_tenant parks after its first boundary.
  sim.Unregister(&old_tenant);
  sim.Run(1);  // Removal applies; the slot returns to the free list.

  SleepyBlock new_tenant;
  sim.Register(&new_tenant);  // Recycles the freed slot (LIFO free list).
  sim.Run(2);
  const size_t ticks_before = new_tenant.ticked_at.size();
  // The old registration's wake channel was unbound at removal: this is a
  // no-op, not a wake of whoever now owns the slot.
  old_tenant.RequestWake();
  sim.Run(3);
  EXPECT_EQ(new_tenant.ticked_at.size(), ticks_before);

  // The new tenant's own wake still lands.
  new_tenant.pending = true;
  new_tenant.RequestWake();
  sim.Run(3);
  ASSERT_EQ(new_tenant.processed_at.size(), 1u);
}

// A block whose SchedulingPolicy changes mid-run (a tile's policy follows
// the accelerator loaded onto it) announces it via RequestPolicyRefresh.
class PolicySwitchBlock : public Clocked {
 public:
  void Tick(Cycle now) override { ticked_at.push_back(now); }
  [[nodiscard]] Cycle NextActivity(Cycle) const override { return kNoActivity; }
  [[nodiscard]] SchedPolicy SchedulingPolicy() const override { return policy; }
  std::string DebugName() const override { return "policy_switch"; }

  SchedPolicy policy = SchedPolicy::kActiveSet;
  std::vector<Cycle> ticked_at;
};

TEST(SimulatorTest, PolicyRefreshMidRunIsFollowed) {
  Simulator sim;
  CountingBlock anchor;
  sim.Register(&anchor);
  PolicySwitchBlock block;
  sim.Register(&block);
  sim.Run(5);
  // kActiveSet + kNoActivity: parked after the first boundary.
  const size_t parked_ticks = block.ticked_at.size();
  EXPECT_LE(parked_ticks, 1u);

  block.policy = Clocked::SchedPolicy::kEveryCycle;
  block.RequestPolicyRefresh();
  sim.Run(5);
  // Pinned now: every executed cycle ticks it despite the idle declaration.
  EXPECT_EQ(block.ticked_at.size(), parked_ticks + 5);

  block.policy = Clocked::SchedPolicy::kActiveSet;
  block.RequestPolicyRefresh();
  sim.Run(5);
  // Back to parkable: at most the conservative re-activation tick.
  EXPECT_LE(block.ticked_at.size(), parked_ticks + 5 + 1);
}

}  // namespace
}  // namespace apiary
