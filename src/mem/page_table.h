// Multi-level page table walk + TLB cost model, the translation-side
// baseline for experiment E5 (segments translate with a single bounds check;
// pages pay a TLB lookup and, on miss, a multi-level walk).
#ifndef SRC_MEM_PAGE_TABLE_H_
#define SRC_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "src/sim/types.h"
#include "src/stats/summary.h"

namespace apiary {

// An x86-64-style four-level radix walk, one memory access per level, behind
// a 64-entry TLB.
inline constexpr uint64_t kPageTablePageBytes = 4096;
inline constexpr uint32_t kPageTableLevels = 4;
inline constexpr Cycle kPageWalkCyclesPerLevel = 20;
inline constexpr uint32_t kTlbEntries = 64;
inline constexpr Cycle kTlbHitCycles = 1;

// Per-address-space translation structure mapping virtual page numbers to
// physical frame numbers, with an LRU TLB in front.
class PageTable {
 public:
  void Map(uint64_t vpn, uint64_t pfn);
  void Unmap(uint64_t vpn);

  struct Translation {
    uint64_t physical_addr;
    Cycle latency;  // TLB hit cost, or full walk cost on a miss.
    bool tlb_hit;
  };

  // Translates a virtual address; nullopt on an unmapped page (a fault).
  std::optional<Translation> Translate(uint64_t vaddr);

  const CounterSet& counters() const { return counters_; }

 private:
  void TouchTlb(uint64_t vpn);
  bool TlbLookup(uint64_t vpn);

  // Ordered maps so translation state never depends on hash iteration order
  // (the radix walk they model is order-deterministic anyway).
  std::map<uint64_t, uint64_t> mappings_;
  // LRU TLB: front = most recent.
  std::list<uint64_t> tlb_lru_;
  std::map<uint64_t, std::list<uint64_t>::iterator> tlb_index_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_MEM_PAGE_TABLE_H_
