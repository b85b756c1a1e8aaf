#pragma once

/// \file stats.h
/// Summary statistics the benchmark reports: percentiles, the `tail` rule,
/// medians, and the loss-trace fingerprint.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Arithmetic mean of `v`; 0 when empty.
inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// The `tail` of a timing sample: the highest percentile of a fixed ladder
/// that still has at least ten samples beyond it, so the value rests on ten
/// observations rather than one. `beyond` is the count strictly above it.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  int64_t beyond = 0;
  int64_t n = 0;
};

inline Tail tail_of(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.99, 99.95, 99.9, 99.5, 99.0,
                                       95.0,  90.0,  75.0, 50.0};
  Tail t;
  t.n = static_cast<int64_t>(v.size());
  for (double p : kLadder) {
    const double value = percentile(v, p);
    const auto beyond = static_cast<int64_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > value; }));
    if (beyond >= 10 || p == 50.0) {
      t.pct = p;
      t.value = value;
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

/// Tail of a request-serving phase: the sample (in send order) is cut into
/// consecutive windows of 100 to 199 requests, each window's tail is taken by
/// the rule above (p90 at that size), and the median of those tails is
/// reported. A slow stretch of the host then moves a few windows, not the
/// figure. `pct`, `n` and `beyond` describe the window whose tail is the
/// median.
inline Tail windowed_tail(const std::vector<double>& v) {
  const size_t windows = v.size() / 100;
  if (windows < 2) return tail_of(v);
  const size_t w = v.size() / windows;
  std::vector<Tail> tails;
  for (size_t i = 0; i < windows; ++i) {
    tails.push_back(tail_of(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(i * w),
        v.begin() + static_cast<std::ptrdiff_t>((i + 1) * w))));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  return tails[tails.size() / 2];
}

/// Rate of a closed loop that completes `per_item` units per sample whose
/// durations (ms, in run order) are `ms`: the sample is cut into `windows`
/// equal consecutive windows, each window's units per second is taken, and
/// the median is reported, so a slow stretch of the run moves one window.
inline double windowed_rate(const std::vector<double>& ms, double per_item,
                            int windows = 10) {
  const size_t w = ms.size() / static_cast<size_t>(windows);
  std::vector<double> rates;
  for (size_t i = 0; w > 0 && i < static_cast<size_t>(windows); ++i) {
    double sum = 0.0;
    for (size_t j = i * w; j < (i + 1) * w; ++j) sum += ms[j];
    rates.push_back(per_item * static_cast<double>(w) * 1e3 / sum);
  }
  return median(rates);
}

/// FNV-1a over the bit patterns of `values`: equal traces give equal prints.
inline uint64_t fingerprint(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (double d : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
