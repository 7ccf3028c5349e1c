// Process-wide heap allocation counters (see alloc_count.cc).
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;  // Calls into any global operator new.
  uint64_t bytes = 0;   // Bytes requested by those calls.
};

AllocCounts ReadAllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
