#include "src/mem/page_table.h"

namespace apiary {

void PageTable::Map(uint64_t vpn, uint64_t pfn) { mappings_[vpn] = pfn; }

void PageTable::Unmap(uint64_t vpn) {
  mappings_.erase(vpn);
  auto it = tlb_index_.find(vpn);
  if (it != tlb_index_.end()) {
    tlb_lru_.erase(it->second);
    tlb_index_.erase(it);
  }
}

bool PageTable::TlbLookup(uint64_t vpn) {
  auto it = tlb_index_.find(vpn);
  if (it == tlb_index_.end()) {
    return false;
  }
  tlb_lru_.splice(tlb_lru_.begin(), tlb_lru_, it->second);
  return true;
}

void PageTable::TouchTlb(uint64_t vpn) {
  if (TlbLookup(vpn)) {
    return;
  }
  tlb_lru_.push_front(vpn);
  tlb_index_[vpn] = tlb_lru_.begin();
  if (tlb_lru_.size() > kTlbEntries) {
    tlb_index_.erase(tlb_lru_.back());
    tlb_lru_.pop_back();
  }
}

std::optional<PageTable::Translation> PageTable::Translate(uint64_t vaddr) {
  const uint64_t vpn = vaddr / kPageTablePageBytes;
  const uint64_t offset = vaddr % kPageTablePageBytes;
  auto map_it = mappings_.find(vpn);
  if (map_it == mappings_.end()) {
    counters_.Add("pt.faults");
    return std::nullopt;
  }
  Translation result;
  result.physical_addr = map_it->second * kPageTablePageBytes + offset;
  if (TlbLookup(vpn)) {
    counters_.Add("pt.tlb_hits");
    result.latency = kTlbHitCycles;
    result.tlb_hit = true;
  } else {
    counters_.Add("pt.tlb_misses");
    result.latency = kTlbHitCycles + static_cast<Cycle>(kPageTableLevels) * kPageWalkCyclesPerLevel;
    result.tlb_hit = false;
    TouchTlb(vpn);
  }
  return result;
}

}  // namespace apiary
