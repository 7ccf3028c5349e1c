// Experiment E5: segment+capability memory isolation vs a paged baseline.
//
// Paper basis (Section 4.6): "it is unclear that a fully paged translation
// system is necessary in Apiary... Segments allow more flexibility in the
// size of an memory allocation, reducing resource stranding, while
// capabilities give us isolation properties."
//
// Part A: allocation flexibility — replay the same accelerator-style
//         allocation trace (many odd-sized buffers) against the segment
//         allocator and a 4KiB/2MiB-page allocator; report stranded bytes
//         and where each first fails.
// Part B: translation cost — per-access latency of a segment bounds check
//         versus a TLB+page-walk, across access locality patterns.
#include <cstdio>

#include "src/mem/page_allocator.h"
#include "src/mem/page_table.h"
#include "src/mem/segment_allocator.h"
#include "src/sim/random.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint64_t kPoolBytes = 256ull << 20;

// Accelerator-style allocation mix: a few huge frame/model buffers, many
// mid-size ring buffers, and a tail of small descriptors — sizes are
// deliberately not page-multiples.
uint64_t SampleAllocSize(Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.05) {
    return rng.NextInRange(8ull << 20, 32ull << 20);  // Frame/model buffers.
  }
  if (u < 0.45) {
    return rng.NextInRange(64ull << 10, 1ull << 20);  // Rings, tables.
  }
  return rng.NextInRange(100, 8192);  // Descriptors, small state.
}

struct AllocResult {
  uint64_t requested = 0;
  uint64_t stranded = 0;     // Bytes held but not requested (internal frag)
                             // or unusable largest-hole gap (external frag).
  uint64_t allocs_ok = 0;
  uint64_t first_failure_at = 0;  // Total requested bytes when it failed.
};

AllocResult RunSegments(uint64_t seed) {
  SegmentAllocator alloc(0, kPoolBytes);
  Rng rng(seed);
  AllocResult r;
  std::vector<Segment> live;
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng.NextBool(0.55)) {
      const uint64_t bytes = SampleAllocSize(rng);
      auto seg = alloc.Allocate(bytes, 64);
      if (!seg.has_value()) {
        if (r.first_failure_at == 0) {
          r.first_failure_at = r.requested;
        }
        continue;
      }
      r.requested += bytes;
      ++r.allocs_ok;
      live.push_back(*seg);
    } else {
      const size_t idx = rng.NextBelow(live.size());
      alloc.Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  // Stranding for segments = external fragmentation: free bytes that cannot
  // serve the next big (8MiB) request even though the total would.
  const uint64_t total_free = alloc.bytes_free();
  const uint64_t largest = alloc.LargestFreeChunk();
  r.stranded = largest >= (8ull << 20) ? 0 : total_free - largest;
  return r;
}

AllocResult RunPages(uint64_t seed, uint64_t page_bytes) {
  PageAllocator alloc(kPoolBytes, page_bytes);
  Rng rng(seed);
  AllocResult r;
  std::vector<std::vector<uint64_t>> live;
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng.NextBool(0.55)) {
      const uint64_t bytes = SampleAllocSize(rng);
      auto frames = alloc.Allocate(bytes);
      if (!frames.has_value()) {
        if (r.first_failure_at == 0) {
          r.first_failure_at = r.requested;
        }
        continue;
      }
      r.requested += bytes;
      ++r.allocs_ok;
      live.push_back(std::move(*frames));
    } else {
      const size_t idx = rng.NextBelow(live.size());
      alloc.Free(live[idx]);
      live[idx] = std::move(live.back());
      live.pop_back();
    }
  }
  // Stranding for pages = internal fragmentation (rounded-up remainders).
  r.stranded = alloc.InternalFragmentationBytes();
  return r;
}

struct XlatResult {
  double mean_cycles;
  double hit_rate;
};

// Streams `accesses` memory references over a working set and totals the
// translation cost of the paged path.
XlatResult RunPagedTranslation(uint64_t working_set_bytes, bool sequential) {
  PageTable pt;
  const uint64_t pages = working_set_bytes / kPageTablePageBytes;
  for (uint64_t p = 0; p < pages; ++p) {
    pt.Map(p, p);
  }
  Rng rng(7);
  uint64_t total = 0;
  const int accesses = 100000;
  uint64_t seq = 0;
  for (int i = 0; i < accesses; ++i) {
    const uint64_t addr = sequential ? (seq += 64) % working_set_bytes
                                     : rng.NextBelow(working_set_bytes);
    total += pt.Translate(addr)->latency;
  }
  const uint64_t hits = pt.counters().Get("pt.tlb_hits");
  return XlatResult{static_cast<double>(total) / accesses,
                    static_cast<double>(hits) / accesses};
}

}  // namespace

int main() {
  std::printf("E5: segments+capabilities vs paging (Section 4.6)\n");

  Table part_a("E5a: allocation trace replay (256MiB pool, mixed accelerator sizes)");
  part_a.SetHeader({"allocator", "allocs ok", "bytes requested", "stranded bytes",
                    "stranded %"});
  auto add_row = [&](const char* name, const AllocResult& r) {
    part_a.AddRow({name, Table::Int(r.allocs_ok), Table::Int(r.requested),
                   Table::Int(r.stranded),
                   Table::Num(100.0 * static_cast<double>(r.stranded) /
                                  static_cast<double>(kPoolBytes), 2)});
  };
  add_row("segments (best-fit)", RunSegments(11));
  add_row("pages 4KiB", RunPages(11, 4096));
  add_row("pages 64KiB", RunPages(11, 64 << 10));
  add_row("pages 2MiB", RunPages(11, 2 << 20));
  part_a.Print();

  Table part_b("E5b: per-access translation cost (cycles)");
  part_b.SetHeader({"mechanism", "sequential stream", "random over 1MiB", "random over 64MiB"});
  // Segment translation is a single base+bounds comparator: 1 cycle, always.
  part_b.AddRow({"segment bounds check", "1.0", "1.0", "1.0"});
  {
    const XlatResult seq = RunPagedTranslation(64ull << 20, /*sequential=*/true);
    const XlatResult small = RunPagedTranslation(1ull << 20, /*sequential=*/false);
    const XlatResult big = RunPagedTranslation(64ull << 20, /*sequential=*/false);
    part_b.AddRow({"4KiB pages + 64-entry TLB", Table::Num(seq.mean_cycles, 2),
                   Table::Num(small.mean_cycles, 2), Table::Num(big.mean_cycles, 2)});
    part_b.AddRow({"  (TLB hit rate)", Table::Num(100 * seq.hit_rate, 1) + "%",
                   Table::Num(100 * small.hit_rate, 1) + "%",
                   Table::Num(100 * big.hit_rate, 1) + "%"});
  }
  part_b.Print();

  std::printf(
      "\nexpected shape: segments strand almost nothing on odd-sized accelerator\n"
      "buffers, while paging strands ~half a page per allocation (catastrophic at\n"
      "2MiB pages); segment translation is a constant one-cycle bounds check while\n"
      "the paged path degrades to a multi-level walk whenever the accelerator's\n"
      "access pattern defeats the TLB — exactly the specialization-hostile behavior\n"
      "Section 4.6 argues against.\n");
  return 0;
}
