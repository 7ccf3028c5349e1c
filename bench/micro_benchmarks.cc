// Google-benchmark microbenchmarks for Apiary's hot primitives: message
// serialization, capability lookups, segment allocation, translation, the
// codec kernels, and raw NoC stepping throughput. These measure *simulator*
// (host CPU) performance, complementing the cycle-accurate harnesses.
#include <benchmark/benchmark.h>

#include "src/accel/checksum.h"
#include "src/accel/compressor.h"
#include "src/accel/video_encoder.h"
#include "src/core/capability.h"
#include "src/core/message.h"
#include "src/mem/page_table.h"
#include "src/mem/segment_allocator.h"
#include "src/noc/mesh.h"
#include "src/noc/packet_pool.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/workload/frame_source.h"

namespace apiary {
namespace {

void BM_MessageSerialize(benchmark::State& state) {
  Message msg;
  msg.dst_service = 5;
  msg.opcode = 0x1234;
  msg.payload.assign(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeMessage(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * msg.WireBytes());
}
BENCHMARK(BM_MessageSerialize)->Arg(16)->Arg(256)->Arg(4096);

void BM_MessageRoundTrip(benchmark::State& state) {
  Message msg;
  msg.payload.assign(static_cast<size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    auto bytes = SerializeMessage(msg);
    benchmark::DoNotOptimize(DeserializeMessage(bytes));
  }
}
BENCHMARK(BM_MessageRoundTrip)->Arg(64)->Arg(1024);

// The actual executed-cycle path: acquire a pooled packet, serialize the
// message into it (header into the head region, payload moved), deserialize
// at the far end, release — the per-message cost bench/b2 measures end to
// end, isolated from the router model.
void BM_MessagePacketPath(benchmark::State& state) {
  PacketPool packet_pool;
  PayloadBuf payload(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    PacketRef packet = packet_pool.Acquire();
    Message msg;
    msg.dst_service = 5;
    msg.opcode = 0x1234;
    msg.payload = payload;
    SerializeMessageInto(std::move(msg), *packet);
    packet->flit_count = ComputeFlitCount(*packet);
    benchmark::DoNotOptimize(DeserializeMessage(*packet));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_MessagePacketPath)->Arg(48)->Arg(240)->Arg(4096);

void BM_CapabilityLookup(benchmark::State& state) {
  CapabilityTable table(256);
  std::vector<CapRef> refs;
  for (int i = 0; i < 256; ++i) {
    Capability cap;
    cap.kind = CapKind::kEndpoint;
    cap.dst_service = static_cast<ServiceId>(i);
    refs.push_back(table.Install(cap));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(refs[i++ % refs.size()]));
  }
}
BENCHMARK(BM_CapabilityLookup);

void BM_SegmentAllocateFree(benchmark::State& state) {
  SegmentAllocator alloc(0, 1ull << 30);
  Rng rng(1);
  for (auto _ : state) {
    auto seg = alloc.Allocate(rng.NextInRange(64, 65536), 64);
    if (seg.has_value()) {
      alloc.Free(*seg);
    }
  }
}
BENCHMARK(BM_SegmentAllocateFree);

void BM_PageTableTranslate(benchmark::State& state) {
  PageTable pt;
  for (uint64_t p = 0; p < 4096; ++p) {
    pt.Map(p, p);
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Translate(rng.NextBelow(4096ull * 4096)));
  }
}
BENCHMARK(BM_PageTableTranslate);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(65536);

void BM_LzCompress(benchmark::State& state) {
  const auto frame = GenerateFrame(128, 128, 3, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(frame));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_LzCompress);

void BM_DctEncodeFrame(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto frame = GenerateFrame(dim, dim, 3, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeFrame(frame.data(), dim, dim, 50));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_DctEncodeFrame)->Arg(32)->Arg(64);

// Simulator throughput: cycles/second the host can step an idle vs busy
// 4x4 NoC (useful for sizing bigger experiments).
void BM_MeshStepIdle(benchmark::State& state) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 4, 8, 512});
  sim.Register(&mesh);
  for (auto _ : state) {
    sim.Run(1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MeshStepIdle);

void BM_MeshStepBusy(benchmark::State& state) {
  Simulator sim;
  Mesh mesh(MeshConfig{4, 4, 8, 512});
  sim.Register(&mesh);
  Rng rng(4);
  for (auto _ : state) {
    // Keep injecting small packets to keep the routers saturated.
    const TileId src = static_cast<TileId>(rng.NextBelow(16));
    PacketRef p(new NocPacket());
    p->src = src;
    p->dst = static_cast<TileId>(rng.NextBelow(16));
    p->payload.assign(64, 1);
    mesh.ni(src).Inject(p, sim.now());
    sim.Run(1);
    for (uint32_t t = 0; t < 16; ++t) {
      while (mesh.ni(t).Retrieve() != nullptr) {
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MeshStepBusy);

}  // namespace
}  // namespace apiary
