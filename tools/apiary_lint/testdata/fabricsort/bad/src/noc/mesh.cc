// Bad: the busy list is kept as a vector and re-sorted on every executed
// cycle to recover ascending tile order.
#include <algorithm>
#include <cstdint>
#include <vector>

namespace apiary {

void MergeFresh(std::vector<uint32_t>& live, std::vector<uint32_t>& fresh) {
  live.insert(live.end(), fresh.begin(), fresh.end());
  std::sort(live.begin(), live.end());
  fresh.clear();
}

void OrderByTile(std::vector<uint32_t>& tiles) {
  std::stable_sort(tiles.begin(), tiles.end());
}

}  // namespace apiary
