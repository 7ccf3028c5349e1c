// Unit tests for RingBuffer, the single-owner queue on the flit hot path.
#include <gtest/gtest.h>

#include <memory>

#include "src/sim/ring_buffer.h"

namespace apiary {
namespace {

TEST(RingBufferTest, FifoOrderAcrossWraparound) {
  RingBuffer<int> ring(3);  // Rounds slot storage to 4; logical capacity stays 3.
  EXPECT_EQ(ring.capacity(), 3u);
  int next_push = 0;
  int next_pop = 0;
  // Push/pop enough to wrap the index mask many times.
  for (int round = 0; round < 100; ++round) {
    while (!ring.full()) {
      ring.push_back(next_push++);
    }
    EXPECT_EQ(ring.size(), 3u);
    while (!ring.empty()) {
      EXPECT_EQ(ring.take_front(), next_pop++);
    }
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(RingBufferTest, PopResetsSlotImmediately) {
  // Reference-holding elements must release their target the moment they
  // leave the queue — the packet pool's acquire/release balance depends on
  // this, not on the slot being overwritten later.
  RingBuffer<std::shared_ptr<int>> ring(4);
  auto value = std::make_shared<int>(42);
  ring.push_back(value);
  EXPECT_EQ(value.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(value.use_count(), 1);

  ring.push_back(value);
  auto taken = ring.take_front();
  EXPECT_EQ(value.use_count(), 2);  // `value` + `taken`, nothing in the ring.
  taken.reset();
  EXPECT_EQ(value.use_count(), 1);
}

TEST(RingBufferTest, ClearReleasesEverything) {
  RingBuffer<std::shared_ptr<int>> ring(8);
  auto value = std::make_shared<int>(7);
  for (int i = 0; i < 5; ++i) {
    ring.push_back(value);
  }
  EXPECT_EQ(value.use_count(), 6);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(value.use_count(), 1);
}

}  // namespace
}  // namespace apiary
