// Order statistics shared by the benchmark and its self-test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile with its support: the value at rank ceil(p * n)
// of the sorted samples, and how many samples lie strictly beyond that rank.
struct Percentile {
  double value = 0.0;
  std::int64_t samples = 0;  // n
  std::int64_t beyond = 0;   // n - rank
  double p = 0.0;            // the percentile actually reported, in [0, 1]
};

inline Percentile nearest_rank(std::vector<double> values, double p) {
  Percentile out;
  out.samples = static_cast<std::int64_t>(values.size());
  out.p = p;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  std::int64_t rank = static_cast<std::int64_t>(
      std::ceil(p * static_cast<double>(out.samples) - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, out.samples);
  out.value = values[static_cast<std::size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  return out;
}

inline double median(std::vector<double> values) {
  return nearest_rank(std::move(values), 0.5).value;
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; with fewer, the figure is one or two outliers, not a tail.
constexpr std::int64_t kMinBeyond = 10;

// The p99 of `values` if the sample supports it (>= kMinBeyond samples
// beyond the rank, i.e. n >= 1000), otherwise the highest percentile that
// does — p = 1 - kMinBeyond / n — so the reported figure always names its
// percentile and count. `ok` is false when not even the median has
// kMinBeyond samples beyond it.
struct Tail {
  Percentile pct;
  bool ok = false;
};

inline Tail supported_tail(const std::vector<double>& values,
                           double p = 0.99) {
  Tail tail;
  const double n = static_cast<double>(values.size());
  double chosen = p;
  if (n * (1.0 - p) < static_cast<double>(kMinBeyond)) {
    chosen = 1.0 - static_cast<double>(kMinBeyond) / std::max(n, 1.0);
  }
  tail.pct = nearest_rank(values, chosen);
  tail.ok = chosen >= 0.5 && tail.pct.beyond >= kMinBeyond;
  return tail;
}

}  // namespace perfbench
