// Order statistics and window arithmetic the benchmark reports with. Kept
// free of simulator types so `--selftest` can check them on known inputs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Percentile of integer samples (cycle counts), `values` sorted in place.
// Each integer v stands for the unit bin [v - 0.5, v + 0.5) and the quantile
// is interpolated inside the bin that holds it (the grouped-data median),
// so a shift of a few samples moves the figure instead of leaving it stuck
// on one integer. All-equal samples give exactly that value at q = 0.5.
// 0 for an empty set.
inline double Percentile(std::vector<uint64_t>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double target = q * static_cast<double>(values.size());
  // The nearest-rank sample: the smallest with at least q*n at or below it.
  size_t rank = static_cast<size_t>(target);
  if (static_cast<double>(rank) < target) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, values.size());
  const uint64_t v = values[rank - 1];
  const auto lo = std::lower_bound(values.begin(), values.end(), v);
  const auto hi = std::upper_bound(values.begin(), values.end(), v);
  const double below = static_cast<double>(lo - values.begin());
  const double in_bin = static_cast<double>(hi - lo);
  return static_cast<double>(v) - 0.5 + (target - below) / in_bin;
}

inline double Mean(const std::vector<uint64_t>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (uint64_t v : values) {
    sum += static_cast<double>(v);
  }
  return sum / static_cast<double>(values.size());
}

// Median of host-time samples (mean of the middle pair for even counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Mean of the samples recorded between two snapshots of a cumulative
// (count, mean) pair, e.g. a histogram read before and after the window.
inline double WindowMean(uint64_t count0, double mean0, uint64_t count1, double mean1) {
  if (count1 <= count0) {
    return 0;
  }
  const double sum0 = mean0 * static_cast<double>(count0);
  const double sum1 = mean1 * static_cast<double>(count1);
  return (sum1 - sum0) / static_cast<double>(count1 - count0);
}

// a / b, or 0 when nothing was counted.
inline double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// FNV-1a over 64-bit words: the per-run digest of simulated outputs.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    Add(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
