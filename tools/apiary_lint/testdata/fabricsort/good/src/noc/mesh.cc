// Good: the busy set is bitset words; merging is a word OR and the sweep
// walks set bits lowest first, which is ascending tile order.
#include <bit>
#include <cstdint>
#include <vector>

namespace apiary {

void MergeFresh(std::vector<uint64_t>& live, std::vector<uint64_t>& fresh) {
  for (size_t w = 0; w < live.size(); ++w) {
    live[w] |= fresh[w];
    fresh[w] = 0;
  }
}

template <typename F>
void ForEachTile(const std::vector<uint64_t>& words, F&& f) {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

}  // namespace apiary
