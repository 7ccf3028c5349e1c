// Named-counter registry: each simulated component exposes its event counts
// through a CounterSet so experiments can dump machine-readable metrics.
#ifndef SRC_STATS_SUMMARY_H_
#define SRC_STATS_SUMMARY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace apiary {

class CounterSet {
 public:
  // Names are looked up without building a std::string: only a name's
  // first insertion allocates.
  void Add(std::string_view name, uint64_t delta = 1) { Slot(name) += delta; }
  // Adds `value` only when nonzero: renders a typed counter field the way a
  // string-keyed counter that was never incremented renders (absent).
  void AddNonzero(std::string_view name, uint64_t value) {
    if (value != 0) {
      Slot(name) += value;
    }
  }
  void Set(std::string_view name, uint64_t value) { Slot(name) = value; }
  uint64_t Get(std::string_view name) const;
  void Reset() { counters_.clear(); }

  // Merge `other` into this set (summing matching names).
  void Merge(const CounterSet& other);

  const std::map<std::string, uint64_t, std::less<>>& counters() const { return counters_; }

  // "name=value name=value ..." in sorted order.
  std::string ToString() const;

 private:
  uint64_t& Slot(std::string_view name) {
    auto it = counters_.lower_bound(name);
    if (it == counters_.end() || it->first != name) {
      it = counters_.emplace_hint(it, name, 0);
    }
    return it->second;
  }

  std::map<std::string, uint64_t, std::less<>> counters_;
};

// Basic running statistics over doubles (for rates, utilizations).
class RunningStat {
 public:
  void Record(double x);
  uint64_t count() const { return n_; }
  double Mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double Min() const { return n_ == 0 ? 0.0 : min_; }
  double Max() const { return n_ == 0 ? 0.0 : max_; }
  double StdDev() const;

 private:
  uint64_t n_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace apiary

#endif  // SRC_STATS_SUMMARY_H_
