// Good: per-flit router events bump typed fields; the dotted names are only
// rendered when someone asks for a CounterSet snapshot.
#include <cstdint>

#include "src/stats/summary.h"

namespace apiary {

class Router {
 public:
  void OnStall() { ++stalls_; }  // Was counters_.Add("router.stalls").
  CounterSet counters() const {
    CounterSet set;
    set.AddNonzero("router.stalls", stalls_);
    return set;
  }

 private:
  uint64_t stalls_ = 0;
};

}  // namespace apiary
