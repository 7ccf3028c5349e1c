// Unit tests for PayloadBuf: the small-buffer tier (no allocation up to
// kInlineBytes), the pooled heap tier (chunk arena reuse), move semantics
// (chunk stealing — what lets payloads pass through the wire stack without
// copies), and the vector-compatible surface the call sites rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/payload_buf.h"

namespace apiary {
namespace {

// The arena is process-global; start each test from a clean ledger.
class PayloadBufTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PayloadBuf::TrimArena();
    PayloadBuf::ResetArenaStats();
  }
};

TEST_F(PayloadBufTest, SmallPayloadsStayInlineAndNeverTouchTheArena) {
  PayloadBuf buf;
  EXPECT_EQ(buf.capacity(), PayloadBuf::kInlineBytes);
  for (size_t i = 0; i < PayloadBuf::kInlineBytes; ++i) {
    buf.push_back(static_cast<uint8_t>(i));
  }
  EXPECT_EQ(buf.size(), PayloadBuf::kInlineBytes);
  EXPECT_EQ(buf.capacity(), PayloadBuf::kInlineBytes);
  EXPECT_EQ(buf[0], 0u);
  EXPECT_EQ(buf.back(), PayloadBuf::kInlineBytes - 1);
  EXPECT_EQ(PayloadBuf::ArenaStats().chunk_acquires, 0u);
}

TEST_F(PayloadBufTest, GrowingPastInlineMovesToHeapTierAndPreservesBytes) {
  PayloadBuf buf;
  std::vector<uint8_t> mirror;
  for (size_t i = 0; i < 200; ++i) {
    buf.push_back(static_cast<uint8_t>(i * 7));
    mirror.push_back(static_cast<uint8_t>(i * 7));
  }
  EXPECT_EQ(buf.size(), 200u);
  EXPECT_GT(buf.capacity(), PayloadBuf::kInlineBytes);
  EXPECT_TRUE(buf == mirror);
  EXPECT_GE(PayloadBuf::ArenaStats().chunk_acquires, 1u);
}

TEST_F(PayloadBufTest, ArenaReusesRetiredChunks) {
  {
    PayloadBuf buf(300, 0xAA);
    EXPECT_GE(PayloadBuf::ArenaStats().chunk_allocs, 1u);
  }
  const uint64_t allocs_after_first = PayloadBuf::ArenaStats().chunk_allocs;
  EXPECT_GE(PayloadBuf::ArenaStats().chunk_releases, 1u);
  EXPECT_GT(PayloadBuf::ArenaStats().freelist_bytes, 0u);

  // A second same-sized buffer is served from the freelist, not the heap.
  PayloadBuf again(300, 0xBB);
  EXPECT_GE(PayloadBuf::ArenaStats().chunk_reuses, 1u);
  EXPECT_EQ(PayloadBuf::ArenaStats().chunk_allocs, allocs_after_first);
}

TEST_F(PayloadBufTest, ClearKeepsBackingCapacityForReuse) {
  PayloadBuf buf(500, 0x01);
  const size_t cap = buf.capacity();
  const uint64_t acquires = PayloadBuf::ArenaStats().chunk_acquires;
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), cap);
  buf.resize(500, 0x02);
  EXPECT_EQ(PayloadBuf::ArenaStats().chunk_acquires, acquires);  // No new chunk.
  EXPECT_EQ(buf[499], 0x02);
}

TEST_F(PayloadBufTest, MoveStealsHeapChunk) {
  PayloadBuf src(1000, 0x5A);
  const uint8_t* backing = src.data();
  const uint64_t acquires = PayloadBuf::ArenaStats().chunk_acquires;

  PayloadBuf dst(std::move(src));
  EXPECT_EQ(dst.data(), backing);  // Pointer stolen, bytes not copied.
  EXPECT_EQ(dst.size(), 1000u);
  EXPECT_EQ(dst[999], 0x5A);
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move) — spec'd state.
  EXPECT_EQ(src.capacity(), PayloadBuf::kInlineBytes);
  EXPECT_EQ(PayloadBuf::ArenaStats().chunk_acquires, acquires);

  // Move-assign releases the destination's old chunk back to the arena.
  PayloadBuf other(2000, 0x11);
  other = std::move(dst);
  EXPECT_EQ(other.data(), backing);
  EXPECT_GE(PayloadBuf::ArenaStats().chunk_releases, 1u);
}

TEST_F(PayloadBufTest, MoveOfInlineBufferCopiesIntoDestinationInline) {
  PayloadBuf src{1, 2, 3};
  PayloadBuf dst(std::move(src));
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst[2], 3u);
  EXPECT_EQ(dst.capacity(), PayloadBuf::kInlineBytes);
  EXPECT_EQ(PayloadBuf::ArenaStats().chunk_acquires, 0u);
}

TEST_F(PayloadBufTest, VectorCompatibleSurface) {
  const std::vector<uint8_t> v{9, 8, 7, 6};
  PayloadBuf buf(v);  // Explicit vector ctor.
  EXPECT_TRUE(buf == v);
  EXPECT_TRUE(v == buf);
  EXPECT_EQ(buf.ToVector(), v);

  buf.insert(buf.end(), {5, 4});
  buf.insert(buf.begin(), v.begin(), v.begin() + 1);  // Mid-buffer shift.
  EXPECT_EQ(buf.ToVector(), (std::vector<uint8_t>{9, 9, 8, 7, 6, 5, 4}));

  buf.insert(buf.begin() + 1, 2, 0xFF);  // Fill insert.
  EXPECT_EQ(buf.ToVector(), (std::vector<uint8_t>{9, 0xFF, 0xFF, 9, 8, 7, 6, 5, 4}));

  buf.assign(3, 0x42);
  EXPECT_EQ(buf.ToVector(), (std::vector<uint8_t>{0x42, 0x42, 0x42}));

  buf.assign(v.begin(), v.end());  // Range assign.
  EXPECT_TRUE(buf == v);

  buf = std::vector<uint8_t>{1};
  EXPECT_EQ(buf.size(), 1u);
  buf = {2, 3};
  EXPECT_EQ(buf.ToVector(), (std::vector<uint8_t>{2, 3}));
}

TEST_F(PayloadBufTest, CopyIsDeepAndIndependent) {
  PayloadBuf a(500, 0x33);
  PayloadBuf b(a);
  ASSERT_NE(a.data(), b.data());
  b[0] = 0x44;
  EXPECT_EQ(a[0], 0x33);
  EXPECT_TRUE(a != b);
  b[0] = 0x33;
  EXPECT_TRUE(a == b);
}

TEST_F(PayloadBufTest, TrimFreesParkedChunks) {
  { PayloadBuf buf(4096, 0x01); }
  EXPECT_GT(PayloadBuf::ArenaStats().freelist_bytes, 0u);
  PayloadBuf::TrimArena();
  EXPECT_EQ(PayloadBuf::ArenaStats().freelist_bytes, 0u);
  EXPECT_EQ(PayloadBuf::ArenaStats().live_chunks, 0u);
}

}  // namespace
}  // namespace apiary
