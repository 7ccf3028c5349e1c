// Property-based and model-based tests: randomized storms checked against
// reference models and invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/accel/kv_store.h"
#include "src/accel/probe.h"
#include "src/core/service_ids.h"
#include "src/services/memory_service.h"
#include "src/sim/random.h"
#include "src/workload/kv_workload.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// ---------------------------------------------------------------------
// Message wire-format fuzzing: arbitrary bytes must never crash the
// deserializer, and any accepted buffer must re-serialize to itself.
// ---------------------------------------------------------------------

class MessageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageFuzzTest, ArbitraryBytesSafeToParse) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBelow(200));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    auto msg = DeserializeMessage(bytes);
    if (msg.has_value()) {
      EXPECT_EQ(SerializeMessage(*msg), bytes);
    }
  }
}

TEST_P(MessageFuzzTest, MutatedValidMessagesNeverMisparse) {
  Rng rng(GetParam() + 100);
  Message base;
  base.opcode = 7;
  base.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto good = SerializeMessage(base);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = good;
    // Truncate or extend randomly.
    if (rng.NextBool(0.5) && !mutated.empty()) {
      mutated.resize(rng.NextBelow(mutated.size()));
    } else {
      mutated.resize(mutated.size() + rng.NextInRange(1, 16), 0xaa);
    }
    auto msg = DeserializeMessage(mutated);
    if (msg.has_value()) {
      // Only acceptable if the result is self-consistent.
      EXPECT_EQ(SerializeMessage(*msg).size(), mutated.size());
    }
  }
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> bytes(rng.NextBelow(max_len + 1));
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  return bytes;
}

// A well-formed message with every header field, both grants and a payload
// of up to 200 bytes drawn from `rng`.
Message RandomMessage(Rng& rng) {
  Message m;
  m.dst_service = static_cast<ServiceId>(rng.Next());
  m.kind = static_cast<MsgKind>(rng.NextBelow(2));
  m.opcode = static_cast<uint16_t>(rng.Next());
  m.status = static_cast<MsgStatus>(rng.NextBelow(13));
  m.request_id = rng.Next();
  m.dst_process = static_cast<ProcessId>(rng.Next());
  m.src_tile = static_cast<TileId>(rng.Next());
  m.src_service = static_cast<ServiceId>(rng.Next());
  m.src_app = static_cast<AppId>(rng.Next());
  for (SegmentGrant* grant : {&m.grant, &m.grant2}) {
    grant->segment.base = rng.Next();
    grant->segment.length = rng.Next();
    grant->valid = rng.NextBool(0.5);
    grant->can_read = rng.NextBool(0.5);
    grant->can_write = rng.NextBool(0.5);
    grant->can_grant = rng.NextBool(0.5);
  }
  const std::vector<uint8_t> payload = RandomBytes(rng, 200);
  m.payload.assign(payload.data(), payload.size());
  return m;
}

// Head region (the first head_len bytes) followed by the payload.
std::vector<uint8_t> WireImage(const NocPacket& packet) {
  std::vector<uint8_t> image(packet.head.begin(), packet.head.begin() + packet.head_len);
  image.insert(image.end(), packet.payload.begin(), packet.payload.end());
  return image;
}

// The split wire image (head region + payload) is the packet decode path:
// random head lengths, head bytes and payloads must never crash it, a
// rejected packet keeps its payload, and an accepted packet re-serializes to
// the same head and payload.
TEST_P(MessageFuzzTest, ArbitrarySplitWireImageSafeToParse) {
  Rng rng(GetParam() + 200);
  int accepted = 0;
  constexpr int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    NocPacket packet;
    Message seed_msg = RandomMessage(rng);
    switch (rng.NextBelow(5)) {
      case 0:  // Random head length over a well-formed image.
        SerializeMessageInto(std::move(seed_msg), packet);
        packet.head_len = static_cast<uint16_t>(rng.NextBelow(kPacketHeadBytes + 1));
        break;
      case 1:  // A few random head bytes.
        SerializeMessageInto(std::move(seed_msg), packet);
        for (uint64_t k = rng.NextInRange(1, 3); k > 0; --k) {
          packet.head[rng.NextBelow(kPacketHeadBytes)] = static_cast<uint8_t>(rng.NextBelow(256));
        }
        break;
      case 2: {  // Random payload under a well-formed head.
        SerializeMessageInto(std::move(seed_msg), packet);
        const std::vector<uint8_t> payload = RandomBytes(rng, 200);
        packet.payload.assign(payload.data(), payload.size());
        break;
      }
      case 3: {  // Header-less packet: the contiguous image rides in the payload.
        const std::vector<uint8_t> image = SerializeMessage(seed_msg);
        packet.payload.assign(image.data(), image.size());
        break;
      }
      default: {  // Everything random.
        packet.head_len = static_cast<uint16_t>(rng.NextBelow(kPacketHeadBytes + 1));
        for (auto& b : packet.head) {
          b = static_cast<uint8_t>(rng.NextBelow(256));
        }
        const std::vector<uint8_t> payload = RandomBytes(rng, 200);
        packet.payload.assign(payload.data(), payload.size());
        break;
      }
    }
    const uint16_t head_len = packet.head_len;
    const std::vector<uint8_t> image = WireImage(packet);
    const std::vector<uint8_t> payload = packet.payload.ToVector();

    std::optional<Message> msg = DeserializeMessage(packet);
    if (!msg.has_value()) {
      EXPECT_EQ(packet.payload, payload) << "trial " << trial;
      continue;
    }
    ++accepted;
    NocPacket again;
    SerializeMessageInto(std::move(*msg), again);
    if (head_len != 0) {
      EXPECT_EQ(again.head_len, head_len) << "trial " << trial;
    }
    EXPECT_EQ(WireImage(again), image) << "trial " << trial;
  }
  // Both outcomes were exercised.
  EXPECT_GT(accepted, kTrials / 4);
  EXPECT_LT(accepted, kTrials);
}

// The end-to-end check the ejecting NI relies on: any single corrupted byte
// of the head region or the payload, written through CorruptWireBit, makes
// the wire image disagree with the checksum that first write stamped.
TEST_P(MessageFuzzTest, EverySingleByteFlipChangesTheWireChecksum) {
  Rng rng(GetParam() + 300);
  int missed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    NocPacket packet;
    SerializeMessageInto(RandomMessage(rng), packet);
    if (rng.NextBool(0.5)) {
      packet.head_len = static_cast<uint16_t>(rng.NextBelow(kPacketHeadBytes + 1));
      // The image changed after serialization: restamp it the way injection
      // does, so asserts-on builds' eager stamp describes it.
      packet.checksum = PacketWireChecksum(packet);
    }
    const uint32_t sum = PacketWireChecksum(packet);
    for (size_t i = 0; i < packet.wire_bytes(); ++i) {
      const uint8_t mask = static_cast<uint8_t>(rng.NextInRange(1, 255));
      packet.CorruptWireBit(i, mask);
      if (PacketWireChecksum(packet) == packet.checksum) {
        ++missed;
      }
      packet.CorruptWireBit(i, mask);  // Restore the byte.
    }
    // The first write stamped the intact image, and every byte was restored.
    EXPECT_EQ(packet.wire_touched, packet.wire_bytes() > 0);
    if (packet.wire_touched) {
      EXPECT_EQ(packet.checksum, sum);
    }
    EXPECT_EQ(PacketWireChecksum(packet), sum);
  }
  EXPECT_EQ(missed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Capability-table storm: random install/revoke/lookup against a shadow
// model; stale references must always fail closed.
// ---------------------------------------------------------------------

class CapTableStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CapTableStormTest, MatchesShadowModel) {
  Rng rng(GetParam());
  CapabilityTable table(32);
  std::map<CapRef, ServiceId> live;      // ref -> dst_service for live caps.
  std::set<CapRef> revoked;
  for (int step = 0; step < 20000; ++step) {
    const double u = rng.NextDouble();
    if (u < 0.4) {
      Capability cap;
      cap.kind = CapKind::kEndpoint;
      cap.dst_service = static_cast<ServiceId>(rng.NextBelow(1000));
      const CapRef ref = table.Install(cap);
      if (live.size() < 32) {
        ASSERT_NE(ref, kInvalidCapRef);
        live[ref] = cap.dst_service;
      } else {
        EXPECT_EQ(ref, kInvalidCapRef);
      }
    } else if (u < 0.7 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      EXPECT_TRUE(table.Revoke(it->first));
      revoked.insert(it->first);
      live.erase(it);
    } else {
      // Lookup a mix of live, revoked and random refs.
      if (!live.empty() && rng.NextBool(0.5)) {
        auto it = live.begin();
        std::advance(it, rng.NextBelow(live.size()));
        const Capability* cap = table.Lookup(it->first);
        ASSERT_NE(cap, nullptr);
        EXPECT_EQ(cap->dst_service, it->second);
      } else if (!revoked.empty() && rng.NextBool(0.5)) {
        auto it = revoked.begin();
        std::advance(it, rng.NextBelow(revoked.size()));
        EXPECT_EQ(table.Lookup(*it), nullptr) << "stale reference resolved!";
      } else {
        table.Lookup(static_cast<CapRef>(rng.Next()));  // Must not crash.
      }
    }
    ASSERT_EQ(table.live_count(), live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapTableStormTest, ::testing::Values(7, 8, 9, 10));

// ---------------------------------------------------------------------
// Zero-load NoC latency obeys the pipeline model: per-hop cost is constant
// and per-flit serialization is additive.
// ---------------------------------------------------------------------

TEST(NocLatencyModelTest, ZeroLoadLatencyIsAffineInHopsAndFlits) {
  // Measure L(hops, payload) on an idle mesh and verify the pipeline model
  // empirically: equal hop increments add equal latency, and each extra
  // flit adds exactly one cycle of serialization.
  auto measure = [](TileId hops, uint32_t payload) {
    Simulator sim;
    Mesh mesh(MeshConfig{8, 1, 8, 512});
    sim.Register(&mesh);
    PacketRef p(new NocPacket());
    p->src = 0;
    p->dst = hops;
    p->payload.assign(payload, 1);
    mesh.ni(0).Inject(p, sim.now());
    EXPECT_TRUE(sim.RunUntil([&] { return mesh.ni(hops).HasDeliverable(); }, 10000));
    return sim.now();
  };
  // Affine in hops: L(5)-L(3) == L(3)-L(1), and strictly positive.
  const Cycle l1 = measure(1, 64);
  const Cycle l3 = measure(3, 64);
  const Cycle l5 = measure(5, 64);
  EXPECT_GT(l3, l1);
  EXPECT_EQ(l5 - l3, l3 - l1) << "per-hop latency is not constant";
  // Affine in flits: each additional flit beyond the head adds one cycle.
  const Cycle f1 = measure(3, 0);                   // 1 flit.
  const Cycle f3 = measure(3, 2 * kFlitBytes);      // 3 flits.
  const Cycle f9 = measure(3, 8 * kFlitBytes);      // 9 flits.
  EXPECT_EQ(f3 - f1, 2u);
  EXPECT_EQ(f9 - f3, 6u);
}

// ---------------------------------------------------------------------
// Model-based KV store test: a random op stream applied to the on-board KV
// store and to a std::map reference must agree on every response.
// ---------------------------------------------------------------------

class KvModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvModelTest, AgreesWithReferenceMap) {
  TestBoard tb;
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  AppId app = tb.os.CreateApp("kv");
  auto* kv = new KvStoreAccelerator(1 << 20);
  ServiceId svc = 0;
  const TileId kt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(kv), &svc);
  (void)tb.os.GrantSendToService(kt, kMemoryService);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return kv->ready(); }, 50000));

  Rng rng(GetParam());
  std::map<std::string, std::vector<uint8_t>> reference;
  for (int op = 0; op < 120; ++op) {
    const std::string key = KvKeyForIndex(rng.NextBelow(12));
    const double u = rng.NextDouble();
    Message msg;
    enum class Op { kPut, kGet, kDel } kind;
    std::vector<uint8_t> value;
    if (u < 0.45) {
      kind = Op::kPut;
      value.resize(rng.NextInRange(1, 100));
      for (auto& b : value) {
        b = static_cast<uint8_t>(rng.NextBelow(256));
      }
      msg.opcode = kOpKvPut;
      msg.payload = MakeKvPutPayload(key, value);
    } else if (u < 0.85) {
      kind = Op::kGet;
      msg.opcode = kOpKvGet;
      msg.payload = MakeKvGetPayload(key);
    } else {
      kind = Op::kDel;
      msg.opcode = kOpKvDelete;
      msg.payload = MakeKvGetPayload(key);
    }
    probe->EnqueueSend(msg, cap);
    const size_t want = probe->received.size() + 1;
    ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= want; }, 200000))
        << "op " << op << " timed out";
    const Message& reply = probe->received.back();
    switch (kind) {
      case Op::kPut:
        ASSERT_EQ(reply.status, MsgStatus::kOk);
        reference[key] = value;
        break;
      case Op::kGet:
        if (reference.count(key) != 0) {
          ASSERT_EQ(reply.status, MsgStatus::kOk) << "op " << op;
          EXPECT_EQ(reply.payload, reference[key]) << "op " << op;
        } else {
          EXPECT_EQ(reply.status, MsgStatus::kNotFound) << "op " << op;
        }
        break;
      case Op::kDel:
        EXPECT_EQ(reply.status, reference.erase(key) != 0 ? MsgStatus::kOk
                                                          : MsgStatus::kNotFound);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvModelTest, ::testing::Values(11, 12, 13, 14));

// ---------------------------------------------------------------------
// Authority invariant: under a random storm of grants, revocations and
// sends, a message is delivered iff the sender held a live endpoint
// capability for that destination when it sent.
// ---------------------------------------------------------------------

class AuthorityStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AuthorityStormTest, DeliveryImpliesAuthority) {
  TestBoard tb(TestBoardOptions{3, 3});
  ApiaryOs& os = tb.os;
  Rng rng(GetParam());
  // Probes on every tile, each its own app (mutual distrust).
  std::vector<ProbeAccelerator*> probes;
  std::vector<ServiceId> svcs;
  for (int i = 0; i < 9; ++i) {
    auto* probe = new ProbeAccelerator();
    ServiceId svc = 0;
    os.Deploy(os.CreateApp("p" + std::to_string(i)), std::unique_ptr<Accelerator>(probe),
              &svc);
    probes.push_back(probe);
    svcs.push_back(svc);
  }
  tb.sim.Run(3);

  // live_caps[(src,dst)] -> capref; deliveries carry a payload tag so we can
  // attribute them.
  std::map<std::pair<TileId, TileId>, CapRef> live_caps;
  std::map<uint32_t, std::pair<TileId, TileId>> tag_to_edge;
  std::set<uint32_t> authorized_tags;
  uint32_t next_tag = 1;

  for (int step = 0; step < 400; ++step) {
    const double u = rng.NextDouble();
    const TileId src = static_cast<TileId>(rng.NextBelow(9));
    const TileId dst = static_cast<TileId>(rng.NextBelow(9));
    if (u < 0.2 && src != dst && live_caps.count({src, dst}) == 0) {
      live_caps[{src, dst}] = os.GrantSendToService(src, svcs[dst]);
    } else if (u < 0.3 && !live_caps.empty()) {
      auto it = live_caps.begin();
      std::advance(it, rng.NextBelow(live_caps.size()));
      os.Revoke(it->first.first, it->second);
      // Also retract the accept-list entry, as the kernel would.
      os.monitor(it->first.second).DisallowSender(it->first.first);
      live_caps.erase(it);
    } else if (src != dst) {
      // Send with the live cap if held, else with a random (forged) ref.
      const uint32_t tag = next_tag++;
      Message msg;
      msg.opcode = kOpEcho;
      PutU32(msg.payload, tag);
      auto it = live_caps.find({src, dst});
      const bool authorized = it != live_caps.end();
      const CapRef ref =
          authorized ? it->second : MakeCapRef(rng.NextBelow(64), rng.NextBelow(16));
      // Guard against the forged ref accidentally matching a live cap to the
      // same destination (possible but then it IS authority).
      tag_to_edge[tag] = {src, dst};
      if (authorized) {
        authorized_tags.insert(tag);
      } else {
        const Capability* c = os.monitor(src).cap_table().Lookup(ref);
        if (c != nullptr && c->kind == CapKind::kEndpoint && c->dst_tile == dst) {
          authorized_tags.insert(tag);
        }
      }
      probes[src]->EnqueueSend(msg, ref);
    }
    tb.sim.Run(30);
  }
  tb.sim.Run(2000);

  // Every delivered request's tag must have been authorized, and must have
  // arrived at the edge's destination.
  for (TileId t = 0; t < 9; ++t) {
    for (const Message& msg : probes[t]->received) {
      if (msg.kind != MsgKind::kRequest || msg.payload.size() < 4) {
        continue;
      }
      const uint32_t tag = GetU32(msg.payload, 0);
      ASSERT_TRUE(tag_to_edge.count(tag));
      EXPECT_EQ(tag_to_edge[tag].second, t) << "delivered to the wrong tile";
      EXPECT_TRUE(authorized_tags.count(tag))
          << "tag " << tag << " delivered without authority";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuthorityStormTest, ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace apiary
