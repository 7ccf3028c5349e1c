// Bad: per-flit router events counted through string keys — every Add builds
// a std::string and walks a std::map on the executed-cycle path.
#include "src/stats/summary.h"

namespace apiary {

class Router {
 public:
  void OnStall() { counters_.Add("router.stalls"); }
  void OnGrant() { counters_.Add( "router.weighted_grants", 1); }

 private:
  CounterSet counters_;
};

}  // namespace apiary
