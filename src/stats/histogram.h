// Log-bucketed latency histogram (HdrHistogram-style), used for all latency
// and size distributions reported by the benchmark harnesses.
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace apiary {

// Records nonnegative integer values (cycles, bytes, ...) with bounded
// relative error. Buckets are arranged as log2 major buckets each split into
// `kSubBuckets` linear sub-buckets, giving <= 1/kSubBuckets relative error.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void RecordN(uint64_t value, uint64_t count);

  // Merges another histogram into this one.
  void Merge(const Histogram& other);

  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;
  double StdDev() const;

  // Value at quantile q in [0, 1]; e.g. Percentile(0.99) is the p99.
  uint64_t Percentile(double q) const;

  // Convenience accessors used throughout the bench tables.
  uint64_t P50() const { return Percentile(0.50); }
  uint64_t P99() const { return Percentile(0.99); }
  uint64_t P999() const { return Percentile(0.999); }

  // One-line summary: "n=..., mean=..., p50/p99/p999=.../.../..., max=...".
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets -> ~3% error.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMajorBuckets = 64 - kSubBucketBits;

  static size_t BucketIndex(uint64_t value);
  // Representative (upper-edge) value of a bucket.
  static uint64_t BucketValue(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
};

}  // namespace apiary

#endif  // SRC_STATS_HISTOGRAM_H_
