// Tests for the accelerator library: the video codec, LZ compressor, CRC32,
// the serial engine the fixed-function accelerators share, echo, the KV
// store (full IPC chain through the memory service), and the misbehaving
// accelerators used by the isolation experiments.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/accel/checksum.h"
#include "src/accel/compressor.h"
#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/accel/kv_store.h"
#include "src/accel/serial_engine.h"
#include "src/accel/video_encoder.h"
#include "src/core/service_ids.h"
#include "src/services/memory_service.h"
#include "src/workload/frame_source.h"
#include "src/workload/kv_workload.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

double Psnr(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  if (a.size() != b.size() || a.empty()) {
    return 0.0;
  }
  double mse = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.size());
  if (mse == 0) {
    return 99.0;
  }
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

// ---------------------------------------------------------------------
// Pure codec functions.
// ---------------------------------------------------------------------

TEST(VideoCodecTest, EncodeDecodeRoundTripDimensions) {
  const auto pixels = GenerateFrame(64, 48, 1, 0);
  const auto encoded = EncodeFrame(pixels.data(), 64, 48, 75);
  uint32_t w = 0;
  uint32_t h = 0;
  const auto decoded = DecodeFrame(encoded, &w, &h);
  EXPECT_EQ(w, 64u);
  EXPECT_EQ(h, 48u);
  EXPECT_EQ(decoded.size(), pixels.size());
}

class VideoQualityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(VideoQualityTest, PsnrReasonableForQuality) {
  const uint32_t quality = GetParam();
  const auto pixels = GenerateFrame(64, 64, 7, 3);
  const auto encoded = EncodeFrame(pixels.data(), 64, 64, quality);
  const auto decoded = DecodeFrame(encoded, nullptr, nullptr);
  ASSERT_EQ(decoded.size(), pixels.size());
  const double psnr = Psnr(pixels, decoded);
  // Even at low quality a DCT codec should beat 22 dB on synthetic scenes;
  // at high quality it should be visually lossless (> 35 dB).
  EXPECT_GT(psnr, quality >= 75 ? 35.0 : 22.0) << "quality=" << quality;
}

INSTANTIATE_TEST_SUITE_P(Qualities, VideoQualityTest, ::testing::Values(25, 50, 75, 95));

TEST(VideoCodecTest, HigherQualityMeansBiggerBitstream) {
  const auto pixels = GenerateFrame(64, 64, 7, 3);
  const auto low = EncodeFrame(pixels.data(), 64, 64, 20);
  const auto high = EncodeFrame(pixels.data(), 64, 64, 90);
  EXPECT_GT(high.size(), low.size());
}

TEST(VideoCodecTest, CompressesFlatFrames) {
  // A constant frame should compress dramatically below raw size.
  std::vector<uint8_t> flat(64 * 64, 128);
  const auto encoded = EncodeFrame(flat.data(), 64, 64, 50);
  EXPECT_LT(encoded.size(), flat.size() / 8);
  const auto decoded = DecodeFrame(encoded, nullptr, nullptr);
  EXPECT_GT(Psnr(flat, decoded), 45.0);
}

TEST(VideoCodecTest, NonMultipleOf8Dimensions) {
  const auto pixels = GenerateFrame(30, 22, 5, 0);
  const auto encoded = EncodeFrame(pixels.data(), 30, 22, 60);
  uint32_t w = 0;
  uint32_t h = 0;
  const auto decoded = DecodeFrame(encoded, &w, &h);
  EXPECT_EQ(w, 30u);
  EXPECT_EQ(h, 22u);
  EXPECT_GT(Psnr(pixels, decoded), 22.0);
}

TEST(VideoCodecTest, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodeFrame(std::vector<uint8_t>{}, nullptr, nullptr).empty());
  EXPECT_TRUE(DecodeFrame(std::vector<uint8_t>{1, 2, 3, 4, 5}, nullptr, nullptr).empty());
}

TEST(LzTest, RoundTripStructuredData) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 100; ++i) {
    const char* chunk = "the quick brown fox jumps over the lazy dog. ";
    input.insert(input.end(), chunk, chunk + 46);
  }
  const auto compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 3);  // Repetitive: big wins.
  EXPECT_EQ(LzDecompress(compressed), input);
}

class LzRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LzRoundTripTest, RandomAndMixedDataRoundTrips) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint8_t> input(rng.NextBelow(5000));
    // Mix random bytes with repeated runs to exercise both token paths.
    size_t i = 0;
    while (i < input.size()) {
      if (rng.NextBool(0.3)) {
        const size_t run = std::min(input.size() - i, rng.NextInRange(4, 64));
        const uint8_t b = static_cast<uint8_t>(rng.NextBelow(4));
        for (size_t k = 0; k < run; ++k) {
          input[i++] = b;
        }
      } else {
        input[i++] = static_cast<uint8_t>(rng.NextBelow(256));
      }
    }
    const auto compressed = LzCompress(input);
    EXPECT_EQ(LzDecompress(compressed), input) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzRoundTripTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(LzTest, EmptyInput) {
  const auto compressed = LzCompress(std::vector<uint8_t>{});
  EXPECT_EQ(LzDecompress(compressed), std::vector<uint8_t>{});
}

TEST(LzTest, IncompressibleDataSurvives) {
  Rng rng(99);
  std::vector<uint8_t> input(4096);
  for (auto& b : input) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  const auto compressed = LzCompress(input);
  EXPECT_EQ(LzDecompress(compressed), input);
}

TEST(LzTest, DecompressRejectsCorruptStreams) {
  EXPECT_TRUE(LzDecompress(std::vector<uint8_t>{}).empty());
  // Valid header claiming 100 bytes but bogus token stream.
  std::vector<uint8_t> bogus = {100, 0, 0, 0, 0xee};
  EXPECT_TRUE(LzDecompress(bogus).empty());
  // Match referencing before the start of output.
  std::vector<uint8_t> bad_match = {4, 0, 0, 0, 0x01, 4, 10, 0};
  EXPECT_TRUE(LzDecompress(bad_match).empty());
}

TEST(Crc32Test, KnownVectors) {
  const std::string s = "123456789";
  EXPECT_EQ(Crc32(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(s.data()), s.size())),
            0xcbf43926u);  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32(std::span<const uint8_t>()), 0u);
}

TEST(Crc32Test, SensitiveToSingleBit) {
  std::vector<uint8_t> a(100, 0);
  std::vector<uint8_t> b = a;
  b[50] ^= 1;
  EXPECT_NE(Crc32(a), Crc32(b));
}

// ---------------------------------------------------------------------
// SerialEngine against a scripted TileApi.
// ---------------------------------------------------------------------

// Records every Send/Reply and answers each with the next scripted status
// (kOk once the script runs out). Like the monitor, it consumes the message
// it is handed whether or not it accepts it.
class FakeTileApi : public TileApi {
 public:
  struct Sent {
    bool reply = false;
    CapRef endpoint = kInvalidCapRef;
    Message request;  // The replied-to request, as handed to Reply.
    Message msg;
  };

  SendResult Send(Message msg, CapRef endpoint, CapRef, CapRef) override {
    return Record(Sent{false, endpoint, Message{}, std::move(msg)});
  }
  SendResult Reply(const Message& request, Message response, CapRef) override {
    return Record(Sent{true, kInvalidCapRef, request, std::move(response)});
  }
  std::optional<Message> Receive() override { return std::nullopt; }
  CapRef LookupService(ServiceId) override { return kInvalidCapRef; }
  Cycle now() const override { return clock; }
  TileId tile() const override { return 0; }
  AppId app() const override { return kInvalidApp; }
  ServiceId service() const override { return kInvalidService; }
  void RaiseFault(const std::string&) override {}

  Cycle clock = 0;
  std::deque<MsgStatus> script;
  std::vector<Sent> accepted;
  size_t attempts = 0;

 private:
  SendResult Record(Sent sent) {
    ++attempts;
    MsgStatus status = MsgStatus::kOk;
    if (!script.empty()) {
      status = script.front();
      script.pop_front();
    }
    if (status == MsgStatus::kOk) {
      accepted.push_back(std::move(sent));
    }
    return SendResult{status};
  }
};

Message Request(uint64_t id) {
  Message msg;
  msg.opcode = kOpEcho;
  msg.request_id = id;
  msg.src_tile = 3;
  return msg;
}

TEST(SerialEngineTest, BackToBackSubmitsQueueBehindEachOther) {
  SerialEngine engine;
  engine.Submit(10, 5, Request(1), kOpEcho, PayloadBuf({1}));
  engine.Submit(11, 3, Request(2), kOpEcho, PayloadBuf({2}));
  EXPECT_EQ(engine.NextActivity(10), 15u);  // max(0, 10) + 5.
  FakeTileApi api;
  api.clock = 15;
  engine.Drain(api);
  ASSERT_EQ(api.accepted.size(), 1u);
  EXPECT_EQ(engine.NextActivity(15), 18u);  // max(15, 11) + 3, not 11 + 3.
  api.clock = 18;
  engine.Drain(api);
  EXPECT_EQ(api.accepted.size(), 2u);
  // An idle engine starts a new job at `now`.
  engine.Submit(30, 2, Request(3), kOpEcho, PayloadBuf({3}));
  EXPECT_EQ(engine.NextActivity(30), 32u);
  EXPECT_EQ(engine.submitted(), 3u);
}

TEST(SerialEngineTest, FinishedResultsLeaveInOrder) {
  SerialEngine engine;
  engine.Submit(0, 4, Request(1), kOpEcho, PayloadBuf({1}));
  engine.Submit(0, 4, Request(2), kOpEcho, PayloadBuf({2}));
  engine.Submit(0, 4, Request(3), kOpEcho, PayloadBuf({3}));
  FakeTileApi api;
  api.clock = 100;  // All three are due: one drain sends them all, in order.
  engine.Drain(api);
  ASSERT_EQ(api.accepted.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(api.accepted[i].request.request_id, i + 1);
    EXPECT_EQ(api.accepted[i].msg.payload, PayloadBuf({static_cast<uint8_t>(i + 1)}));
  }
  EXPECT_EQ(engine.done(), 3u);
}

TEST(SerialEngineTest, NextActivityCoversEmptyPendingAndOverdue) {
  SerialEngine engine;
  EXPECT_EQ(engine.NextActivity(7), kNoActivity);
  engine.Submit(7, 10, Request(1), kOpEcho, PayloadBuf());
  EXPECT_EQ(engine.NextActivity(7), 17u);   // Pending: the head's finish cycle.
  EXPECT_EQ(engine.NextActivity(40), 40u);  // Overdue: active now.
  FakeTileApi api;
  api.clock = 40;
  engine.Drain(api);
  EXPECT_EQ(engine.NextActivity(40), kNoActivity);
}

TEST(SerialEngineTest, ForwardsToTheNextStageOrRepliesToTheRequester) {
  SerialEngine engine;
  Message request = Request(42);
  request.src_tile = 9;
  request.dst_process = 2;
  request.payload = {7, 7, 7};
  engine.Submit(0, 1, request, kOpEcho, PayloadBuf({1, 2}));
  engine.Submit(0, 1, request, kOpAppBase + 77, PayloadBuf({3, 4}), /*forward_to=*/5);
  FakeTileApi api;
  api.clock = 2;
  engine.Drain(api);
  ASSERT_EQ(api.accepted.size(), 2u);
  const FakeTileApi::Sent& reply = api.accepted[0];
  EXPECT_TRUE(reply.reply);
  // The request header Reply routes by reaches it intact.
  EXPECT_EQ(reply.request.request_id, 42u);
  EXPECT_EQ(reply.request.src_tile, 9u);
  EXPECT_EQ(reply.request.dst_process, 2u);
  EXPECT_EQ(reply.msg.opcode, kOpEcho);
  EXPECT_EQ(reply.msg.payload, PayloadBuf({1, 2}));
  const FakeTileApi::Sent& fwd = api.accepted[1];
  EXPECT_FALSE(fwd.reply);
  EXPECT_EQ(fwd.endpoint, 5u);
  EXPECT_EQ(fwd.msg.opcode, kOpAppBase + 77);
  EXPECT_EQ(fwd.msg.payload, PayloadBuf({3, 4}));
}

TEST(SerialEngineTest, NonRetryableRefusalIsDroppedAndCounted) {
  SerialEngine engine;
  engine.Submit(0, 1, Request(1), kOpEcho, PayloadBuf({1}));
  engine.Submit(0, 1, Request(2), kOpEcho, PayloadBuf({2}));
  FakeTileApi api;
  api.clock = 5;
  api.script = {MsgStatus::kNoCapability};
  engine.Drain(api);
  // The refused head is dropped and the drain moves on to the next result.
  EXPECT_EQ(api.attempts, 2u);
  ASSERT_EQ(api.accepted.size(), 1u);
  EXPECT_EQ(api.accepted[0].request.request_id, 2u);
  EXPECT_EQ(engine.dropped(), 1u);
  EXPECT_EQ(engine.done(), 2u);
  EXPECT_EQ(engine.NextActivity(5), kNoActivity);
}

TEST(SerialEngineTest, BackpressureAndRateLimitRetryTheFullResult) {
  for (const MsgStatus refusal : {MsgStatus::kBackpressure, MsgStatus::kRateLimited}) {
    SerialEngine engine;
    engine.Submit(0, 1, Request(1), kOpEcho, PayloadBuf({1, 2, 3, 4, 5, 6, 7, 8}));
    engine.Submit(0, 1, Request(2), kOpEcho, PayloadBuf({9}), /*forward_to=*/6);
    FakeTileApi api;
    api.clock = 5;
    // The reply is refused once, then the forward behind it is refused once.
    api.script = {refusal, MsgStatus::kOk, refusal};
    engine.Drain(api);
    EXPECT_EQ(api.attempts, 1u);  // The refusal stops the drain.
    EXPECT_TRUE(api.accepted.empty());
    EXPECT_EQ(engine.NextActivity(5), 5u);  // Retries every cycle.
    api.clock = 6;
    engine.Drain(api);
    EXPECT_EQ(engine.NextActivity(6), 6u);
    api.clock = 7;
    engine.Drain(api);
    EXPECT_EQ(api.attempts, 4u);
    ASSERT_EQ(api.accepted.size(), 2u);
    // A refused send consumed its message; the retry still carries it whole.
    EXPECT_EQ(api.accepted[0].msg.payload, PayloadBuf({1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(api.accepted[0].msg.opcode, kOpEcho);
    EXPECT_EQ(api.accepted[1].msg.payload, PayloadBuf({9}));
    EXPECT_EQ(api.accepted[1].endpoint, 6u);
    EXPECT_EQ(engine.dropped(), 0u);
    EXPECT_EQ(engine.done(), 2u);
    EXPECT_EQ(engine.NextActivity(7), kNoActivity);
  }
}

// ---------------------------------------------------------------------
// Accelerators on a live board.
// ---------------------------------------------------------------------

TEST(EchoAcceleratorTest, EchoesWithServiceDelay) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("a");
  auto* echo = new EchoAccelerator(100);
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  Message msg;
  msg.opcode = kOpEcho;
  msg.payload = {1, 2, 3};
  probe->EnqueueSend(msg, cap);
  const Cycle start = tb.sim.now();
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(probe->received[0].payload, msg.payload);
  EXPECT_GE(tb.sim.now() - start, 100u);  // Service time respected.
}

TEST(VideoEncoderAcceleratorTest, EncodesFramesOverMessages) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("video");
  auto* enc = new VideoEncoderAccelerator(10, 60);
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(enc), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);

  const auto pixels = GenerateFrame(32, 32, 1, 0);
  Message msg;
  msg.opcode = kOpEncodeFrame;
  msg.payload = FrameToRequestPayload(32, 32, pixels);
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 100000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  const auto decoded = DecodeFrame(probe->received[0].payload, nullptr, nullptr);
  EXPECT_GT(Psnr(pixels, decoded), 22.0);
  EXPECT_EQ(enc->frames_encoded(), 1u);
}

TEST(VideoEncoderAcceleratorTest, MalformedFrameRejected) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("video");
  auto* enc = new VideoEncoderAccelerator();
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(enc), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  Message msg;
  msg.opcode = kOpEncodeFrame;
  PutU32(msg.payload, 1000);
  PutU32(msg.payload, 1000);  // Claims 1M pixels, provides none.
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kBadRequest);
}

TEST(CompressorAcceleratorTest, CompressDecompressOverMessages) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("z");
  auto* comp = new CompressorAccelerator(16);
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(comp), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);

  std::vector<uint8_t> data;
  for (int i = 0; i < 50; ++i) {
    data.insert(data.end(), {'a', 'b', 'a', 'b', 'a', 'b', 'c', 'd'});
  }
  Message msg;
  msg.opcode = kOpCompress;
  msg.payload = data;
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 100000));
  const auto compressed = probe->received[0].payload;
  EXPECT_LT(compressed.size(), data.size());
  probe->received.clear();

  Message back;
  back.opcode = kOpDecompress;
  back.payload = compressed;
  probe->EnqueueSend(back, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 100000));
  EXPECT_EQ(probe->received[0].payload, data);
}

TEST(ChecksumAcceleratorTest, MatchesPureFunction) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("crc");
  auto* crc = new ChecksumAccelerator();
  ServiceId svc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(crc), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  Message msg;
  msg.opcode = kOpChecksum;
  msg.payload = {'h', 'i', '!', 0, 255};
  probe->EnqueueSend(msg, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10000));
  EXPECT_EQ(GetU32(probe->received[0].payload, 0), Crc32(msg.payload));
}

// KV fixture: memory service + KV store + probe client.
struct KvFixture {
  explicit KvFixture(TestBoard& tb) : board(tb) {
    tb.os.DeployService(kMemoryService,
                        std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
    app = tb.os.CreateApp("kv");
    kv = new KvStoreAccelerator(1 << 16);
    kv_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(kv), &kv_svc);
    (void)tb.os.GrantSendToService(kv_tile, kMemoryService);
    probe = new ProbeAccelerator();
    probe_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
    cap = tb.os.GrantSendToService(probe_tile, kv_svc);
    // Let the KV provision its value log.
    tb.sim.RunUntil([&] { return kv->ready(); }, 20000);
  }

  TestBoard& board;
  AppId app = kInvalidApp;
  KvStoreAccelerator* kv = nullptr;
  ProbeAccelerator* probe = nullptr;
  ServiceId kv_svc = 0;
  TileId kv_tile = kInvalidTile;
  TileId probe_tile = kInvalidTile;
  CapRef cap = kInvalidCapRef;
};

TEST(KvStoreTest, PutGetDeleteLifecycle) {
  TestBoard tb;
  KvFixture fx(tb);
  ASSERT_TRUE(fx.kv->ready());

  Message put;
  put.opcode = kOpKvPut;
  const std::vector<uint8_t> value = {9, 8, 7, 6};
  put.payload = MakeKvPutPayload("alpha", value);
  fx.probe->EnqueueSend(put, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  fx.probe->received.clear();

  Message get;
  get.opcode = kOpKvGet;
  get.payload = MakeKvGetPayload("alpha");
  fx.probe->EnqueueSend(get, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(fx.probe->received[0].payload, value);
  fx.probe->received.clear();

  Message del;
  del.opcode = kOpKvDelete;
  del.payload = MakeKvGetPayload("alpha");
  fx.probe->EnqueueSend(del, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  fx.probe->received.clear();

  Message get2;
  get2.opcode = kOpKvGet;
  get2.payload = MakeKvGetPayload("alpha");
  fx.probe->EnqueueSend(get2, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNotFound);
}

TEST(KvStoreTest, GetMissingKeyNotFound) {
  TestBoard tb;
  KvFixture fx(tb);
  Message get;
  get.opcode = kOpKvGet;
  get.payload = MakeKvGetPayload("never-put");
  fx.probe->EnqueueSend(get, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kNotFound);
}

TEST(KvStoreTest, OverwriteReturnsLatestValue) {
  TestBoard tb;
  KvFixture fx(tb);
  for (uint8_t round = 1; round <= 3; ++round) {
    Message put;
    put.opcode = kOpKvPut;
    put.payload = MakeKvPutPayload("k", {round, round});
    fx.probe->EnqueueSend(put, fx.cap);
    ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
    fx.probe->received.clear();
  }
  Message get;
  get.opcode = kOpKvGet;
  get.payload = MakeKvGetPayload("k");
  fx.probe->EnqueueSend(get, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].payload, (std::vector<uint8_t>{3, 3}));
}

TEST(KvStoreTest, LogExhaustionReportsNoMemory) {
  TestBoard tb;
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  AppId app = tb.os.CreateApp("kv");
  auto* kv = new KvStoreAccelerator(/*value_log_bytes=*/256);
  ServiceId svc = 0;
  const TileId kt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(kv), &svc);
  (void)tb.os.GrantSendToService(kt, kMemoryService);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  tb.sim.RunUntil([&] { return kv->ready(); }, 20000);

  Message put;
  put.opcode = kOpKvPut;
  put.payload = MakeKvPutPayload("big", std::vector<uint8_t>(300, 1));
  probe->EnqueueSend(put, cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 50000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kNoMemory);
}

TEST(KvStoreTest, StateSurvivesPreemption) {
  TestBoard tb;
  KvFixture fx(tb);
  Message put;
  put.opcode = kOpKvPut;
  put.payload = MakeKvPutPayload("persist", {42});
  fx.probe->EnqueueSend(put, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  fx.probe->received.clear();

  // Preempt-swap the KV store with a fresh instance: the externalized state
  // (index + capability refs) must carry over.
  auto* fresh = new KvStoreAccelerator(1 << 16);
  ASSERT_TRUE(tb.os.PreemptSwap(fx.kv_tile, std::unique_ptr<Accelerator>(fresh)));
  EXPECT_EQ(fresh->index_size(), 1u);

  Message get;
  get.opcode = kOpKvGet;
  get.payload = MakeKvGetPayload("persist");
  fx.probe->EnqueueSend(get, fx.cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !fx.probe->received.empty(); }, 50000));
  EXPECT_EQ(fx.probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(fx.probe->received[0].payload, (std::vector<uint8_t>{42}));
}

// ---------------------------------------------------------------------
// Misbehaving accelerators.
// ---------------------------------------------------------------------

TEST(FaultyTest, FlooderGetsRateLimited) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("bad");
  auto* victim = new EchoAccelerator(0);
  ServiceId vsvc = 0;
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(victim), &vsvc);
  auto* flooder = new FlooderAccelerator(kInvalidCapRef, 128);
  const TileId ft = tb.os.Deploy(app, std::unique_ptr<Accelerator>(flooder));
  flooder->SetVictim(tb.os.GrantSendToService(ft, vsvc));
  tb.os.SetRateLimit(ft, /*flits_per_1k=*/100, /*burst=*/16);
  tb.sim.Run(10000);
  EXPECT_GT(flooder->rate_limited(), 0u);
  // Sustained throughput ~0.1 flits/cycle; each message is 7 flits, so at
  // most ~150 messages in 10k cycles (plus burst).
  EXPECT_LT(flooder->sent(), 200u);
}

TEST(FaultyTest, SnooperGainsNothing) {
  TestBoard tb;
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  AppId victim_app = tb.os.CreateApp("victim");
  auto* victim = new ProbeAccelerator();
  tb.os.Deploy(victim_app, std::unique_ptr<Accelerator>(victim));
  AppId bad_app = tb.os.CreateApp("bad");
  auto* snoop = new SnooperAccelerator(tb.os.num_tiles(), 50);
  const TileId st = tb.os.Deploy(bad_app, std::unique_ptr<Accelerator>(snoop));
  // The snooper may legitimately talk to the memory service (as any tenant).
  (void)tb.os.GrantSendToService(st, kMemoryService);
  tb.sim.Run(20000);
  EXPECT_GT(snoop->attempts(), 100u);
  EXPECT_EQ(snoop->leaked(), 0u);  // The headline isolation property.
  EXPECT_GT(snoop->denied_local() + snoop->denied_remote(), 0u);
  EXPECT_TRUE(victim->received.empty());  // Nothing ever reached the victim.
}

TEST(FaultyTest, WildWriterContainedBySegments) {
  TestBoard tb;
  tb.os.DeployService(kMemoryService,
                      std::make_unique<MemoryService>(&tb.os, &tb.board.memory()));
  AppId app = tb.os.CreateApp("bad");
  auto* wild = new WildWriterAccelerator(4096, 100);
  const TileId wt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(wild));
  (void)tb.os.GrantSendToService(wt, kMemoryService);
  tb.sim.Run(30000);
  EXPECT_GT(wild->attempts(), 10u);
  EXPECT_GT(wild->seg_faults(), 0u);    // Out-of-bounds writes bounced.
  EXPECT_GT(wild->in_bounds_ok(), 0u);  // In-bounds writes still fine.
  // Out-of-segment bytes in DRAM remain untouched (zero).
  const auto outside = tb.board.memory().DebugRead(4096 * 16, 32);
  for (uint8_t b : outside) {
    EXPECT_EQ(b, 0);
  }
}

TEST(FaultyTest, CrashFailStopsViaRaiseFault) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("crashy");
  auto* crash = new CrashAccelerator(2);
  ServiceId svc = 0;
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(crash), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(pt, svc);
  for (int i = 0; i < 4; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    probe->EnqueueSend(msg, cap);
  }
  ASSERT_TRUE(tb.sim.RunUntil(
      [&] { return tb.os.monitor(ct).fault_state() == TileFaultState::kStopped; }, 50000));
  // The survivor keeps getting *answers* — error bounces, not silence.
  ASSERT_TRUE(tb.sim.RunUntil([&] { return probe->received.size() >= 3; }, 50000));
}

TEST(FrameSourceTest, DeterministicAndSized) {
  const auto a = GenerateFrame(64, 32, 9, 4);
  const auto b = GenerateFrame(64, 32, 9, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u * 32u);
  const auto c = GenerateFrame(64, 32, 9, 5);
  EXPECT_NE(a, c);  // Motion between frames.
}

TEST(KvWorkloadTest, FactoryProducesConfiguredMix) {
  KvWorkloadConfig cfg;
  cfg.read_fraction = 0.5;
  cfg.keyspace = 100;
  auto factory = MakeKvRequestFactory(cfg);
  Rng rng(1);
  int gets = 0;
  int puts = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    const ClientRequest r = factory(i, rng);
    if (r.opcode == kOpKvGet) {
      ++gets;
    } else if (r.opcode == kOpKvPut) {
      ++puts;
    }
  }
  EXPECT_NEAR(static_cast<double>(gets) / 2000.0, 0.5, 0.05);
  EXPECT_EQ(gets + puts, 2000);
}

}  // namespace
}  // namespace apiary
