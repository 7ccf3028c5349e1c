// Unit and property tests for the memory substrate: segment allocator,
// page allocator, page table and DRAM model.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/mem/dram.h"
#include "src/mem/memory_controller.h"
#include "src/mem/page_allocator.h"
#include "src/mem/page_table.h"
#include "src/mem/segment_allocator.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace apiary {
namespace {

TEST(SegmentTest, ContainsBounds) {
  Segment s{100, 50};
  EXPECT_TRUE(s.Contains(100, 50));
  EXPECT_TRUE(s.Contains(120, 10));
  EXPECT_FALSE(s.Contains(99, 1));
  EXPECT_FALSE(s.Contains(100, 51));
  EXPECT_FALSE(s.Contains(150, 1));
  // Overflow-safe: enormous length must not wrap.
  EXPECT_FALSE(s.Contains(149, ~0ull));
}

TEST(SegmentAllocatorTest, AllocatesAlignedSegments) {
  SegmentAllocator alloc(0, 1 << 20);
  auto seg = alloc.Allocate(1000, 256);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(seg->base % 256, 0u);
  EXPECT_EQ(seg->length, 1000u);
  EXPECT_EQ(alloc.bytes_allocated(), 1000u);
}

TEST(SegmentAllocatorTest, RejectsZeroAndBadAlignment) {
  SegmentAllocator alloc(0, 4096);
  EXPECT_FALSE(alloc.Allocate(0).has_value());
  EXPECT_FALSE(alloc.Allocate(64, 3).has_value());
}

TEST(SegmentAllocatorTest, FailsWhenFull) {
  SegmentAllocator alloc(0, 4096);
  EXPECT_TRUE(alloc.Allocate(4096, 1).has_value());
  EXPECT_FALSE(alloc.Allocate(1, 1).has_value());
  EXPECT_EQ(alloc.counters().Get("segalloc.failures"), 1u);
}

TEST(SegmentAllocatorTest, FreeAndCoalesce) {
  SegmentAllocator alloc(0, 4096);
  auto a = alloc.Allocate(1024, 1);
  auto b = alloc.Allocate(1024, 1);
  auto c = alloc.Allocate(1024, 1);
  ASSERT_TRUE(a && b && c);
  EXPECT_TRUE(alloc.Free(*b));
  EXPECT_TRUE(alloc.Free(*a));
  EXPECT_TRUE(alloc.Free(*c));
  // Everything freed and coalesced back into one chunk.
  EXPECT_EQ(alloc.free_chunks(), 1u);
  EXPECT_EQ(alloc.LargestFreeChunk(), 4096u);
  EXPECT_DOUBLE_EQ(alloc.ExternalFragmentation(), 0.0);
}

TEST(SegmentAllocatorTest, DoubleFreeRejected) {
  SegmentAllocator alloc(0, 4096);
  auto a = alloc.Allocate(128, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(alloc.Free(*a));
  EXPECT_FALSE(alloc.Free(*a));
  EXPECT_EQ(alloc.counters().Get("segalloc.bad_free"), 1u);
}

TEST(SegmentAllocatorTest, ForeignFreeRejected) {
  SegmentAllocator alloc(0, 4096);
  EXPECT_FALSE(alloc.Free(Segment{10, 20}));
}

TEST(SegmentAllocatorTest, BestFitPrefersSmallestChunk) {
  SegmentAllocator alloc(0, 10000, FitPolicy::kBestFit);
  auto a = alloc.Allocate(2000, 1);
  auto b = alloc.Allocate(500, 1);
  auto c = alloc.Allocate(3000, 1);
  ASSERT_TRUE(a && b && c);
  alloc.Free(*a);  // Hole of 2000 at base 0.
  alloc.Free(*c);  // Hole of 3000 + tail.
  // A 1800-byte request should carve the 2000-byte hole, not the big one.
  auto d = alloc.Allocate(1800, 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->base, a->base);
}

TEST(SegmentAllocatorTest, FirstFitTakesLowestAddress) {
  SegmentAllocator alloc(0, 10000, FitPolicy::kFirstFit);
  auto a = alloc.Allocate(2000, 1);
  auto b = alloc.Allocate(500, 1);
  ASSERT_TRUE(a && b);
  alloc.Free(*a);
  auto c = alloc.Allocate(100, 1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->base, 0u);
}

TEST(SegmentAllocatorTest, FragmentationMetricReflectsHoles) {
  SegmentAllocator alloc(0, 4096);
  auto a = alloc.Allocate(1024, 1);
  auto b = alloc.Allocate(1024, 1);
  auto c = alloc.Allocate(1024, 1);
  ASSERT_TRUE(a && b && c);
  alloc.Free(*a);
  alloc.Free(*c);
  // Free = 1024 + 1024 + 1024 (tail); largest = 2048 (c + tail coalesced).
  EXPECT_GT(alloc.ExternalFragmentation(), 0.0);
}

// Property: a random alloc/free storm preserves the accounting invariants
// (allocated + free == capacity; no overlapping live segments).
class SegmentAllocatorStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentAllocatorStressTest, InvariantsHoldUnderRandomStorm) {
  const uint64_t capacity = 1 << 20;
  SegmentAllocator alloc(0, capacity);
  Rng rng(GetParam());
  std::vector<Segment> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const uint64_t bytes = rng.NextInRange(1, 8192);
      auto seg = alloc.Allocate(bytes, 64);
      if (seg.has_value()) {
        live.push_back(*seg);
      }
    } else {
      const size_t idx = rng.NextBelow(live.size());
      ASSERT_TRUE(alloc.Free(live[idx]));
      live[idx] = live.back();
      live.pop_back();
    }
  }
  // Invariant 1: byte accounting.
  uint64_t live_bytes = 0;
  for (const auto& s : live) {
    live_bytes += s.length;
  }
  EXPECT_EQ(alloc.bytes_allocated(), live_bytes);
  EXPECT_EQ(alloc.bytes_free(), capacity - live_bytes);
  // Invariant 2: live segments are disjoint.
  std::map<uint64_t, uint64_t> sorted;
  for (const auto& s : live) {
    sorted[s.base] = s.length;
  }
  uint64_t prev_end = 0;
  for (const auto& [base, len] : sorted) {
    EXPECT_GE(base, prev_end);
    prev_end = base + len;
    EXPECT_LE(prev_end, capacity);
  }
  // Invariant 3: freeing everything coalesces to a single chunk.
  for (const auto& s : live) {
    ASSERT_TRUE(alloc.Free(s));
  }
  EXPECT_EQ(alloc.free_chunks(), 1u);
  EXPECT_EQ(alloc.LargestFreeChunk(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentAllocatorStressTest,
                         ::testing::Values(1, 2, 3, 42, 1337, 99991));

TEST(PageAllocatorTest, RoundsUpToPages) {
  PageAllocator alloc(1 << 20, 4096);
  auto frames = alloc.Allocate(5000);
  ASSERT_TRUE(frames.has_value());
  EXPECT_EQ(frames->size(), 2u);
  EXPECT_EQ(alloc.bytes_requested(), 5000u);
  EXPECT_EQ(alloc.bytes_granted(), 8192u);
  EXPECT_EQ(alloc.InternalFragmentationBytes(), 3192u);
}

TEST(PageAllocatorTest, ExhaustionFails) {
  PageAllocator alloc(8192, 4096);
  EXPECT_TRUE(alloc.Allocate(8192).has_value());
  EXPECT_FALSE(alloc.Allocate(1).has_value());
}

TEST(PageAllocatorTest, FreeReturnsPagesAndAccounting) {
  PageAllocator alloc(1 << 20, 4096);
  auto frames = alloc.Allocate(10000);
  ASSERT_TRUE(frames.has_value());
  alloc.Free(*frames);
  EXPECT_EQ(alloc.free_pages(), alloc.total_pages());
  EXPECT_EQ(alloc.bytes_requested(), 0u);
  EXPECT_EQ(alloc.bytes_granted(), 0u);
}

TEST(PageAllocatorTest, ZeroByteRequestRejected) {
  PageAllocator alloc(1 << 20, 4096);
  EXPECT_FALSE(alloc.Allocate(0).has_value());
}

TEST(PageTableTest, TranslateMappedPage) {
  PageTable pt;
  pt.Map(5, 9);
  auto t = pt.Translate(5 * 4096 + 123);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->physical_addr, 9u * 4096 + 123);
}

TEST(PageTableTest, UnmappedFaults) {
  PageTable pt;
  EXPECT_FALSE(pt.Translate(0).has_value());
  EXPECT_EQ(pt.counters().Get("pt.faults"), 1u);
}

TEST(PageTableTest, TlbMissThenHit) {
  PageTable pt;
  pt.Map(1, 2);
  auto miss = pt.Translate(4096);
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(miss->tlb_hit);
  EXPECT_EQ(miss->latency, kTlbHitCycles + kPageTableLevels * kPageWalkCyclesPerLevel);
  auto hit = pt.Translate(4096 + 8);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->tlb_hit);
  EXPECT_EQ(hit->latency, kTlbHitCycles);
}

TEST(PageTableTest, TlbEvictsLru) {
  PageTable pt;
  // Touch one page more than the TLB holds: the last evicts page 0, the
  // least recently used.
  for (uint64_t vpn = 0; vpn <= kTlbEntries; ++vpn) {
    pt.Map(vpn, vpn);
    pt.Translate(vpn * kPageTablePageBytes);
  }
  auto first = pt.Translate(0);
  EXPECT_FALSE(first->tlb_hit);
  auto last = pt.Translate(kTlbEntries * kPageTablePageBytes);
  EXPECT_TRUE(last->tlb_hit);
}

TEST(PageTableTest, UnmapInvalidatesTlb) {
  PageTable pt;
  pt.Map(1, 1);
  pt.Translate(4096);
  pt.Unmap(1);
  EXPECT_FALSE(pt.Translate(4096).has_value());
}

TEST(DramTest, RowHitFasterThanMiss) {
  Simulator sim;
  DramChannel dram;
  sim.Register(&dram);
  Cycle first_done = 0;
  Cycle second_done = 0;
  // Two accesses to the same row: first pays the miss, second hits.
  ASSERT_TRUE(dram.Enqueue(0, 64, false, [&](Cycle c) { first_done = c; }));
  ASSERT_TRUE(dram.Enqueue(64, 64, false, [&](Cycle c) { second_done = c; }));
  sim.Run(200);
  ASSERT_GT(first_done, 0u);
  ASSERT_GT(second_done, first_done);
  EXPECT_EQ(second_done - first_done, kDramRowHitCycles);
  EXPECT_EQ(dram.counters().Get("dram.row_hits"), 1u);
  EXPECT_EQ(dram.counters().Get("dram.row_misses"), 1u);
}

TEST(DramTest, BanksServiceInParallel) {
  Simulator sim;
  DramChannel dram;
  sim.Register(&dram);
  int completed = 0;
  // One request per bank: they should all complete around the same time.
  for (uint32_t b = 0; b < kDramBanks; ++b) {
    ASSERT_TRUE(dram.Enqueue(static_cast<uint64_t>(b) * kDramRowBytes, 64, false,
                             [&](Cycle) { ++completed; }));
  }
  sim.Run(kDramRowMissCycles + 5);
  EXPECT_EQ(completed, static_cast<int>(kDramBanks));
}

TEST(DramTest, QueueBackpressure) {
  DramChannel dram;
  for (uint32_t i = 0; i < kDramBankQueueDepth; ++i) {
    EXPECT_TRUE(dram.Enqueue(0, 64, false, nullptr));
  }
  EXPECT_FALSE(dram.Enqueue(0, 64, false, nullptr));
  EXPECT_EQ(dram.counters().Get("dram.backpressure"), 1u);
}

TEST(DramTest, LargeTransferTakesBurstCycles) {
  Simulator sim;
  DramChannel dram;
  sim.Register(&dram);
  Cycle small_done = 0;
  Cycle big_done = 0;
  ASSERT_TRUE(dram.Enqueue(0, 64, false, [&](Cycle c) { small_done = c; }));
  // Different bank so they run independently.
  ASSERT_TRUE(dram.Enqueue(kDramRowBytes, 1024, false, [&](Cycle c) { big_done = c; }));
  sim.Run(300);
  ASSERT_GT(small_done, 0u);
  ASSERT_GT(big_done, 0u);
  EXPECT_GT(big_done, small_done);
}

TEST(MemoryControllerTest, ReadBackWrittenData) {
  Simulator sim;
  DramConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  MemoryController mc(cfg);
  sim.Register(&mc);
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  bool wrote = false;
  ASSERT_TRUE(mc.SubmitWrite(100, data, [&](Cycle) { wrote = true; }));
  sim.Run(100);
  EXPECT_TRUE(wrote);
  std::vector<uint8_t> out(5);
  bool read = false;
  ASSERT_TRUE(mc.SubmitRead(100, out, [&](Cycle) { read = true; }));
  sim.Run(100);
  EXPECT_TRUE(read);
  EXPECT_EQ(out, data);
}

TEST(MemoryControllerTest, OutOfBoundsRejected) {
  DramConfig cfg;
  cfg.capacity_bytes = 4096;
  MemoryController mc(cfg);
  std::vector<uint8_t> buf(64);
  EXPECT_FALSE(mc.SubmitRead(4096 - 32, buf, nullptr));
  EXPECT_FALSE(mc.SubmitWrite(1ull << 40, buf, nullptr));
}

TEST(MemoryControllerTest, DebugAccessBypassesTiming) {
  DramConfig cfg;
  cfg.capacity_bytes = 4096;
  MemoryController mc(cfg);
  std::vector<uint8_t> data = {9, 8, 7};
  mc.DebugWrite(10, data);
  EXPECT_EQ(mc.DebugRead(10, 3), data);
  EXPECT_TRUE(mc.DebugRead(5000, 1).empty());
}

// The backing store is sparse: pages are allocated on first write and
// memory never written reads as zeros.
TEST(MemoryControllerTest, UnwrittenMemoryReadsAsZeros) {
  Simulator sim;
  DramConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  MemoryController mc(cfg);
  sim.Register(&mc);
  EXPECT_EQ(mc.DebugRead(1000, 100), std::vector<uint8_t>(100, 0));

  std::vector<uint8_t> out(256, 0xEE);
  bool read = false;
  ASSERT_TRUE(mc.SubmitRead(3 * kStorePageBytes + 17, out, [&](Cycle) { read = true; }));
  sim.Run(100);
  ASSERT_TRUE(read);
  EXPECT_EQ(out, std::vector<uint8_t>(256, 0));

  // A read from a written page into one never written: data, then zeros.
  const std::vector<uint8_t> data = {1, 2, 3, 4};
  mc.DebugWrite(kStorePageBytes - 4, data);
  std::vector<uint8_t> straddle(8, 0xEE);
  read = false;
  ASSERT_TRUE(mc.SubmitRead(kStorePageBytes - 4, straddle, [&](Cycle) { read = true; }));
  sim.Run(100);
  ASSERT_TRUE(read);
  EXPECT_EQ(straddle, (std::vector<uint8_t>{1, 2, 3, 4, 0, 0, 0, 0}));
  EXPECT_EQ(mc.DebugRead(kStorePageBytes - 4, 8), straddle);
}

TEST(MemoryControllerTest, WritesStraddlingPageBoundariesReadBackIntact) {
  Simulator sim;
  DramConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  MemoryController mc(cfg);
  sim.Register(&mc);

  // SubmitWrite across one boundary, read back through SubmitRead.
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i + 1);
  }
  const uint64_t addr = 2 * kStorePageBytes - 30;
  ASSERT_TRUE(mc.SubmitWrite(addr, data, nullptr));
  std::vector<uint8_t> out(data.size());
  bool read = false;
  ASSERT_TRUE(mc.SubmitRead(addr, out, [&](Cycle) { read = true; }));
  sim.Run(100);
  ASSERT_TRUE(read);
  EXPECT_EQ(out, data);
  EXPECT_EQ(mc.DebugRead(addr, data.size()), data);

  // DebugWrite spanning three pages, read back through DebugRead.
  std::vector<uint8_t> big(kStorePageBytes + 200);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint64_t big_addr = 5 * kStorePageBytes - 100;
  mc.DebugWrite(big_addr, big);
  EXPECT_EQ(mc.DebugRead(big_addr, big.size()), big);
  EXPECT_EQ(mc.DebugRead(big_addr - 1, 1)[0], 0);
  EXPECT_EQ(mc.DebugRead(big_addr + big.size(), 1)[0], 0);
}

TEST(MemoryControllerTest, BitFlipOnUnwrittenPageSetsOneBit) {
  DramConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  MemoryController mc(cfg);
  const uint64_t addr = 7 * kStorePageBytes + 1234;
  EXPECT_EQ(mc.InjectBitFlip(addr, 5), BitFlipResult::kCorrupted);

  const uint64_t page_base = addr - addr % kStorePageBytes;
  std::vector<uint8_t> expected(kStorePageBytes, 0);
  expected[addr - page_base] = 0x20;
  EXPECT_EQ(mc.DebugRead(page_base, kStorePageBytes), expected);
}

TEST(MemoryControllerTest, InBoundsEdgesAtCapacity) {
  Simulator sim;
  DramConfig cfg;
  cfg.capacity_bytes = 3 * kStorePageBytes + 100;  // Last page is partial.
  MemoryController mc(cfg);
  sim.Register(&mc);
  const uint64_t cap = mc.capacity();
  ASSERT_EQ(cap, cfg.capacity_bytes);

  const std::vector<uint8_t> last = {0x5A};
  mc.DebugWrite(cap - 1, last);
  EXPECT_EQ(mc.DebugRead(cap - 1, 1), last);
  // One byte past the end: refused, and the store is untouched.
  const std::vector<uint8_t> two = {1, 2};
  mc.DebugWrite(cap - 1, two);
  EXPECT_EQ(mc.DebugRead(cap - 1, 1), last);
  EXPECT_TRUE(mc.DebugRead(cap - 1, 2).empty());
  EXPECT_TRUE(mc.DebugRead(cap, 1).empty());

  std::vector<uint8_t> buf(4);
  EXPECT_TRUE(mc.SubmitRead(cap - 4, buf, nullptr));
  EXPECT_FALSE(mc.SubmitRead(cap - 3, buf, nullptr));
  EXPECT_FALSE(mc.SubmitRead(~0ull - 1, buf, nullptr));
  EXPECT_FALSE(mc.SubmitWrite(cap, last, nullptr));
  EXPECT_FALSE(mc.SubmitWrite(cap - 3, buf, nullptr));

  EXPECT_EQ(mc.InjectBitFlip(cap, 0), BitFlipResult::kOutOfRange);
  EXPECT_EQ(mc.InjectBitFlip(cap - 1, 0), BitFlipResult::kCorrupted);
  EXPECT_EQ(mc.DebugRead(cap - 1, 1)[0], 0x5B);
  sim.Run(100);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0, 0, 0, 0x5B}));
}

TEST(MemoryControllerTest, DefaultCapacityRoundTripsLastByte) {
  Simulator sim;
  MemoryController mc(DramConfig{});
  sim.Register(&mc);
  const uint64_t cap = mc.capacity();
  ASSERT_EQ(cap, 4ull << 30);

  const std::vector<uint8_t> data = {0xC3};
  bool wrote = false;
  ASSERT_TRUE(mc.SubmitWrite(cap - 1, data, [&](Cycle) { wrote = true; }));
  std::vector<uint8_t> out(1);
  bool read = false;
  ASSERT_TRUE(mc.SubmitRead(cap - 1, out, [&](Cycle) { read = true; }));
  sim.Run(100);
  EXPECT_TRUE(wrote);
  ASSERT_TRUE(read);
  EXPECT_EQ(out, data);
  EXPECT_EQ(mc.DebugRead(cap - 1, 1), data);
}

// Reads complete through reusable slots: a completion may submit the next
// read, and a read refused by a full bank queue leaves no slot behind.
TEST(MemoryControllerTest, ReadCompletionMaySubmitAndRefusedReadNeverRuns) {
  Simulator sim;
  DramConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  MemoryController mc(cfg);
  sim.Register(&mc);
  std::vector<uint8_t> data(16);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(0x40 + i);
  }
  mc.DebugWrite(0, data);

  // A chain of one-byte reads, each submitted from the previous completion.
  std::vector<uint8_t> out(data.size());
  std::function<void(Cycle)> next;
  size_t submitted = 0;
  next = [&](Cycle) {
    if (submitted < out.size()) {
      const size_t i = submitted++;
      ASSERT_TRUE(mc.SubmitRead(i, std::span<uint8_t>(&out[i], 1), next));
    }
  };
  next(0);
  sim.Run(1000);
  EXPECT_EQ(out, data);

  // Fill one bank's queue; the refused read must not leak its slot or run.
  std::vector<std::vector<uint8_t>> bufs(kDramBankQueueDepth + 1, std::vector<uint8_t>(1));
  int completed = 0;
  for (uint32_t i = 0; i < kDramBankQueueDepth; ++i) {
    ASSERT_TRUE(mc.SubmitRead(i, bufs[i], [&](Cycle) { ++completed; }));
  }
  bool refused_ran = false;
  EXPECT_FALSE(mc.SubmitRead(0, bufs.back(), [&](Cycle) { refused_ran = true; }));
  sim.Run(1000);
  EXPECT_EQ(completed, static_cast<int>(kDramBankQueueDepth));
  EXPECT_FALSE(refused_ran);
  for (uint32_t i = 0; i < kDramBankQueueDepth; ++i) {
    EXPECT_EQ(bufs[i][0], data[i]);
  }
}

}  // namespace
}  // namespace apiary
