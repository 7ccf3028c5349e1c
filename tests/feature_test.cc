// Tests for the second wave of extensions: capability delegation
// (kOpMemShare) and multi-channel interleaved memory.
#include <gtest/gtest.h>

#include "src/core/service_ids.h"
#include "src/mem/interleaved_memory.h"
#include "src/services/memory_service.h"
#include "src/sim/random.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// ---------------------------------------------------------------------
// Capability delegation through the memory service.
// ---------------------------------------------------------------------

struct ShareFixture {
  explicit ShareFixture(TestBoard& tb) {
    tb.os.DeployService(kMemoryService,
                        std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
    app = tb.os.CreateApp("sharing");
    owner = new ProbeAccelerator();
    owner_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(owner), &owner_svc);
    peer = new ProbeAccelerator();
    peer_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(peer), &peer_svc);
    owner_to_mem = tb.os.GrantSendToService(owner_tile, kMemoryService);
    peer_to_mem = tb.os.GrantSendToService(peer_tile, kMemoryService);
    // The owner holds a grant-right capability over 8KiB.
    owner_cap = *tb.os.GrantMemory(owner_tile, 8192,
                                   kRightRead | kRightWrite | kRightGrant);
  }

  AppId app = kInvalidApp;
  ProbeAccelerator* owner = nullptr;
  ProbeAccelerator* peer = nullptr;
  ServiceId owner_svc = 0;
  ServiceId peer_svc = 0;
  TileId owner_tile = kInvalidTile;
  TileId peer_tile = kInvalidTile;
  CapRef owner_to_mem = kInvalidCapRef;
  CapRef peer_to_mem = kInvalidCapRef;
  CapRef owner_cap = kInvalidCapRef;
};

TEST(DelegationTest, SharedSubRangeReadableByPeer) {
  TestBoard tb;
  ShareFixture fx(tb);
  // Owner writes a pattern at offset 1000.
  Message write;
  write.opcode = kOpMemWrite;
  PutU64(write.payload, 1000);
  const std::vector<uint8_t> pattern = {5, 6, 7, 8};
  write.payload.insert(write.payload.end(), pattern.begin(), pattern.end());
  fx.owner->EnqueueSend(write, fx.owner_to_mem, fx.owner_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.owner->received.empty(); }, 50000));
  fx.owner->received.clear();

  // Owner delegates a read-only view of [1000, 1000+64) to the peer.
  Message share;
  share.opcode = kOpMemShare;
  PutU64(share.payload, 1000);
  PutU64(share.payload, 64);
  PutU32(share.payload, fx.peer_svc);
  PutU32(share.payload, kRightRead);
  fx.owner->EnqueueSend(share, fx.owner_to_mem, fx.owner_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.owner->received.empty(); }, 50000));
  ASSERT_EQ(fx.owner->received[0].status, MsgStatus::kOk);
  const CapRef peer_cap = GetU32(fx.owner->received[0].payload, 0);

  // Peer reads through the delegated capability: offset is relative to the
  // shared sub-range.
  Message read;
  read.opcode = kOpMemRead;
  PutU64(read.payload, 0);
  PutU32(read.payload, 4);
  fx.peer->EnqueueSend(read, fx.peer_to_mem, peer_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.peer->received.empty(); }, 50000));
  EXPECT_EQ(fx.peer->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(fx.peer->received[0].payload, pattern);
}

TEST(DelegationTest, AttenuationEnforced) {
  TestBoard tb;
  ShareFixture fx(tb);
  // Delegate read-only, then the peer tries to write: kNoCapability.
  Message share;
  share.opcode = kOpMemShare;
  PutU64(share.payload, 0);
  PutU64(share.payload, 4096);
  PutU32(share.payload, fx.peer_svc);
  PutU32(share.payload, kRightRead | kRightWrite | kRightGrant);  // Asks too much...
  fx.owner->EnqueueSend(share, fx.owner_to_mem, fx.owner_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.owner->received.empty(); }, 50000));
  const CapRef peer_cap = GetU32(fx.owner->received[0].payload, 0);
  // ...but grant-right is never re-delegated through kOpMemShare: a further
  // share by the peer must fail.
  Message reshare;
  reshare.opcode = kOpMemShare;
  PutU64(reshare.payload, 0);
  PutU64(reshare.payload, 64);
  PutU32(reshare.payload, fx.owner_svc);
  PutU32(reshare.payload, kRightRead);
  fx.peer->EnqueueSend(reshare, fx.peer_to_mem, peer_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.peer->received.empty(); }, 50000));
  EXPECT_EQ(fx.peer->received[0].status, MsgStatus::kNoCapability);
}

TEST(DelegationTest, OutOfRangeShareRefused) {
  TestBoard tb;
  ShareFixture fx(tb);
  Message share;
  share.opcode = kOpMemShare;
  PutU64(share.payload, 8000);
  PutU64(share.payload, 1000);  // 8000+1000 > 8192.
  PutU32(share.payload, fx.peer_svc);
  PutU32(share.payload, kRightRead);
  fx.owner->EnqueueSend(share, fx.owner_to_mem, fx.owner_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.owner->received.empty(); }, 50000));
  EXPECT_EQ(fx.owner->received[0].status, MsgStatus::kSegFault);
}

TEST(DelegationTest, ShareWithoutGrantRightRefused) {
  TestBoard tb;
  ShareFixture fx(tb);
  // A capability without kRightGrant cannot delegate.
  const CapRef plain = *tb.os.GrantMemory(fx.owner_tile, 4096, kRightRead | kRightWrite);
  Message share;
  share.opcode = kOpMemShare;
  PutU64(share.payload, 0);
  PutU64(share.payload, 64);
  PutU32(share.payload, fx.peer_svc);
  PutU32(share.payload, kRightRead);
  fx.owner->EnqueueSend(share, fx.owner_to_mem, plain);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.owner->received.empty(); }, 50000));
  EXPECT_EQ(fx.owner->received[0].status, MsgStatus::kNoCapability);
}

// ---------------------------------------------------------------------
// Interleaved (multi-channel) memory.
// ---------------------------------------------------------------------

TEST(InterleavedMemoryTest, ReadBackAcrossStripes) {
  Simulator sim;
  DramConfig per_channel;
  per_channel.capacity_bytes = 1 << 20;
  InterleavedMemory mem(per_channel, 4);
  sim.Register(&mem);
  EXPECT_EQ(mem.capacity(), 4u << 20);

  // A write spanning several stripes (and thus several channels).
  std::vector<uint8_t> data(3 * kInterleaveStripeBytes);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13);
  }
  bool wrote = false;
  ASSERT_TRUE(mem.SubmitWrite(100, data, [&](Cycle) { wrote = true; }));
  ASSERT_TRUE(sim.RunUntil([&] { return wrote; }, 10000));
  std::vector<uint8_t> out(data.size());
  bool read = false;
  ASSERT_TRUE(mem.SubmitRead(100, out, [&](Cycle) { read = true; }));
  ASSERT_TRUE(sim.RunUntil([&] { return read; }, 10000));
  EXPECT_EQ(out, data);
}

TEST(InterleavedMemoryTest, DebugPathMatchesTimedPath) {
  Simulator sim;
  DramConfig per_channel;
  per_channel.capacity_bytes = 1 << 20;
  InterleavedMemory mem(per_channel, 3);
  sim.Register(&mem);
  std::vector<uint8_t> data(3 * kInterleaveStripeBytes, 0);
  Rng rng(3);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  mem.DebugWrite(777, data);
  EXPECT_EQ(mem.DebugRead(777, data.size()), data);
  std::vector<uint8_t> out(data.size());
  bool read = false;
  ASSERT_TRUE(mem.SubmitRead(777, out, [&](Cycle) { read = true; }));
  ASSERT_TRUE(sim.RunUntil([&] { return read; }, 10000));
  EXPECT_EQ(out, data);
}

TEST(InterleavedMemoryTest, OutOfBoundsRejected) {
  DramConfig per_channel;
  per_channel.capacity_bytes = 1 << 20;
  InterleavedMemory mem(per_channel, 2);
  std::vector<uint8_t> buf(64);
  EXPECT_FALSE(mem.SubmitRead((2u << 20) - 32, buf, nullptr));
  EXPECT_TRUE(mem.DebugRead(3u << 20, 4).empty());
}

TEST(InterleavedMemoryTest, MoreChannelsMoreBandwidth) {
  // Stream many independent 4KiB reads; wall-clock cycles to drain should
  // drop substantially with channel count.
  auto run = [](uint32_t channels) {
    Simulator sim;
    DramConfig per_channel;
    per_channel.capacity_bytes = 8 << 20;
    InterleavedMemory mem(per_channel, channels);
    sim.Register(&mem);
    int done = 0;
    std::vector<std::vector<uint8_t>> bufs(64, std::vector<uint8_t>(4096));
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(mem.SubmitRead(static_cast<uint64_t>(i) * 4096,
                                 std::span<uint8_t>(bufs[i]), [&](Cycle) { ++done; }));
    }
    sim.RunUntil([&] { return done == 64; }, 1'000'000);
    return sim.now();
  };
  const Cycle one = run(1);
  const Cycle four = run(4);
  EXPECT_LT(four * 2, one);  // At least 2x faster with 4 channels.
}

}  // namespace
}  // namespace apiary
