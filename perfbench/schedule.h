#pragma once

/// \file schedule.h
/// Seeded open-loop arrival schedule for the `serve_router_open` workload:
/// Poisson arrivals at a fixed rate, each carrying the request shape (3:1
/// mix of the large and the small resolution), the sample it sends from the
/// request pool, and a session key spread over 16 keys.

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

struct Arrival {
  double at_s = 0.0;   ///< send time, seconds after the phase starts
  bool small = false;  ///< false: 3x12x12 request, true: 3x8x8 request
  int64_t sample = 0;  ///< index into that shape's request pool
  uint64_t session = 0;
};

constexpr int64_t kSessions = 16;

/// Arrivals of one phase: `rate` per second for `duration_s` seconds. The
/// same (seed, rate, duration, pool sizes) always gives the same schedule.
inline std::vector<Arrival> poisson_schedule(uint64_t seed, double rate,
                                             double duration_s,
                                             int64_t large_pool,
                                             int64_t small_pool) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - unit(gen)) / rate;
    if (t >= duration_s) break;
    Arrival a;
    a.at_s = t;
    a.small = unit(gen) < 0.25;
    const int64_t pool = a.small ? small_pool : large_pool;
    a.sample = static_cast<int64_t>(unit(gen) * static_cast<double>(pool));
    a.session = static_cast<uint64_t>(unit(gen) * kSessions);
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench
