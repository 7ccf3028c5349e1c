#include "src/stats/summary.h"

#include <cmath>
#include <sstream>

namespace apiary {

uint64_t CounterSet::Get(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void CounterSet::Merge(const CounterSet& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
}

std::string CounterSet::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) {
      out << ' ';
    }
    out << name << '=' << value;
    first = false;
  }
  return out.str();
}

void RunningStat::Record(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) {
      min_ = x;
    }
    if (x > max_) {
      max_ = x;
    }
  }
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
}

double RunningStat::StdDev() const {
  if (n_ == 0) {
    return 0.0;
  }
  const double mean = Mean();
  const double var = sum_sq_ / static_cast<double>(n_) - mean * mean;
  return var <= 0 ? 0.0 : std::sqrt(var);
}

}  // namespace apiary
