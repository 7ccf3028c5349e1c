// Ablation A7: memory channel scaling — DDR (1 channel) vs HBM-style
// interleaving (2..16 pseudo-channels).
//
// Section 2 counts HBM among the modern board features an FPGA OS must
// make usable. The Apiary memory service runs unchanged on either backend;
// this bench measures the streaming bandwidth each configuration delivers
// to a single DMA engine, and the logic cost of the controllers.
#include <cstdio>

#include "src/fpga/resource_model.h"
#include "src/mem/interleaved_memory.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

struct Result {
  double read_bytes_per_cycle;
  double gb_per_s;  // At 250 MHz.
};

Result Run(uint32_t channels) {
  Simulator sim(250.0);
  DramConfig per_channel;
  per_channel.capacity_bytes = 64ull << 20;
  InterleavedMemory mem(per_channel, channels);
  sim.Register(&mem);

  // Stream 16MiB of reads in 4KiB blocks, keeping 256 in flight.
  constexpr uint32_t kBlock = 4096;
  constexpr uint32_t kBlocks = 4096;
  constexpr uint32_t kWindow = 256;
  std::vector<std::vector<uint8_t>> bufs(kWindow, std::vector<uint8_t>(kBlock));
  uint32_t issued = 0;
  uint32_t done = 0;
  const Cycle start = sim.now();
  while (done < kBlocks && sim.now() < start + 10'000'000) {
    while (issued < kBlocks && issued - done < kWindow) {
      auto& buf = bufs[issued % kWindow];
      if (!mem.SubmitRead(static_cast<uint64_t>(issued) * kBlock, std::span<uint8_t>(buf),
                          [&done](Cycle) { ++done; })) {
        break;
      }
      ++issued;
    }
    sim.Run(1);
  }
  const double cycles = static_cast<double>(sim.now() - start);
  Result r;
  r.read_bytes_per_cycle = static_cast<double>(done) * kBlock / cycles;
  r.gb_per_s = r.read_bytes_per_cycle * 250e6 / 1e9;
  return r;
}

}  // namespace

int main() {
  std::printf("A7: memory channel scaling (sequential 4KiB reads, window 256)\n");

  const ResourceCosts costs;
  Table table("A7: bandwidth and logic vs channels");
  table.SetHeader({"channels", "bytes/cycle", "GB/s @250MHz", "controller cells",
                   "speedup"});
  double base = 0;
  for (uint32_t channels : {1u, 2u, 4u, 8u, 16u}) {
    const Result r = Run(channels);
    if (channels == 1) {
      base = r.read_bytes_per_cycle;
    }
    const uint64_t cells = channels == 1
                               ? costs.memory_controller
                               : static_cast<uint64_t>(channels) * costs.hbm_controller;
    table.AddRow({Table::Int(channels), Table::Num(r.read_bytes_per_cycle, 1),
                  Table::Num(r.gb_per_s, 1), Table::Int(cells),
                  Table::Num(r.read_bytes_per_cycle / base, 2) + "x"});
  }
  table.Print();
  std::printf(
      "\nexpected shape: bandwidth scales with channels while the 256-deep window can\n"
      "cover the per-channel latency, then flattens — HBM's channel parallelism is\n"
      "usable through the unchanged memory-service/DMA interface, at a linear logic\n"
      "cost per pseudo-channel.\n");
  return 0;
}
