// Unit tests for the simulation kernel: RNG and the simulator loop.
#include <gtest/gtest.h>

#include <memory>
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

// --- Active-set wake order across bitset words. ---

// A block that sleeps until it holds a token. Each tick with a token
// consumes it and, while it has sends left, hands a token to a peer 1 or 64
// slots away on either side (wrapping), waking it from inside the tick. The
// reference engine sees a token handed to a later slot this cycle and one
// handed to an earlier slot next cycle; the optimized engine must agree.
class RelayBlock : public Clocked {
 public:
  void Tick(Cycle now) override {
    if (tokens == 0) {
      return;
    }
    --tokens;
    worked_at.push_back(now);
    if (sends_left == 0) {
      return;
    }
    --sends_left;
    static constexpr int kHops[] = {1, -1, 64, -64};
    const int n = static_cast<int>(ring->size());
    const int peer = ((index + kHops[(index + sends_left) % 4]) % n + n) % n;
    RelayBlock& next = *(*ring)[peer];
    ++next.tokens;
    next.RequestWake();
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return tokens > 0 ? now : kNoActivity;
  }
  std::string DebugName() const override { return "relay_block"; }

  int index = 0;
  const std::vector<std::unique_ptr<RelayBlock>>* ring = nullptr;
  int tokens = 0;
  int sends_left = 6;
  std::vector<Cycle> worked_at;
};

struct RelayRun {
  std::vector<std::vector<Cycle>> worked_at;  // Per block.
  uint64_t skips = 0;
  uint64_t ticked_blocks = 0;
};

RelayRun RunRelay(bool skip) {
  constexpr int kBlocks = 130;  // Three 64-bit words of the active set.
  Simulator sim;
  sim.SetSkipEnabled(skip);
  std::vector<std::unique_ptr<RelayBlock>> ring;
  for (int i = 0; i < kBlocks; ++i) {
    ring.push_back(std::make_unique<RelayBlock>());
    ring.back()->index = i;
    ring.back()->ring = &ring;
    sim.Register(ring.back().get());
  }
  for (const int seed : {0, 63, 64, 100, 129}) {
    ring[seed]->tokens = 1;
  }
  sim.Run(200);
  // Harness code hands a parked block a token between runs.
  RelayBlock& parked = *ring[70];
  EXPECT_EQ(parked.tokens, 0);
  parked.tokens = 1;
  parked.sends_left = 6;
  parked.RequestWake();
  sim.Run(200);

  RelayRun run;
  for (const auto& block : ring) {
    run.worked_at.push_back(block->worked_at);
  }
  run.skips = sim.skips();
  run.ticked_blocks = sim.ticked_blocks();
  return run;
}

TEST(ActiveScheduleTest, CrossWordWakeOrderMatchesReferenceEngine) {
  const RelayRun optimized = RunRelay(true);
  const RelayRun reference = RunRelay(false);
  EXPECT_EQ(optimized.worked_at, reference.worked_at);
  // The relays died out before the harness wake and after it: both quiet
  // stretches were skipped, and parked blocks were not ticked.
  EXPECT_GE(optimized.skips, 2u);
  EXPECT_LT(optimized.ticked_blocks, reference.ticked_blocks / 10);
  size_t work = 0;
  for (const auto& cycles : reference.worked_at) {
    work += cycles.size();
  }
  EXPECT_GT(work, 30u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
// Registers a fresh block from inside its own tick.
class RegisteringBlock : public Clocked {
 public:
  explicit RegisteringBlock(Simulator* sim) : sim_(sim) {}
  void Tick(Cycle) override { sim_->Register(&spawned_); }
  std::string DebugName() const override { return "registering_block"; }

 private:
  Simulator* sim_;
  CountingBlock spawned_;
};

void RegisterInsideATick(bool skip) {
  Simulator sim;
  sim.SetSkipEnabled(skip);
  RegisteringBlock block(&sim);
  sim.Register(&block);
  sim.Run(1);
}

// Blocks register for life, between runs, under either engine.
TEST(SimulatorDeathTest, RegisterInsideATickAsserts) {
  EXPECT_DEATH(RegisterInsideATick(true), "inside a tick");
  EXPECT_DEATH(RegisterInsideATick(false), "inside a tick");
}
#endif

}  // namespace
}  // namespace apiary
