/// \file selftest.cpp
/// Self-tests of the benchmark's own machinery: the tail percentile rule,
/// self-time arithmetic, the seeded arrival schedule, and that the traced
/// run's module wrappers leave training bitwise unchanged. Exits 1 on the
/// first failed check.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "schedule.h"
#include "stats.h"
#include "timed_module.h"
#include "trace.h"
#include "train_loop.h"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_tail_rule() {
  const Tail t1000 = tail_of(ramp(1000));
  check(t1000.pct == 99.0 && t1000.beyond == 10, "tail of 1000 samples is p99");
  const Tail t100 = tail_of(ramp(100));
  check(t100.pct == 90.0 && t100.beyond == 10, "tail of 100 samples is p90");
  const Tail t20000 = tail_of(ramp(20000));
  check(t20000.pct == 99.95 && t20000.beyond == 10,
        "tail of 20000 samples is p99.95");
  const Tail t12 = tail_of(ramp(12));
  check(t12.pct == 50.0, "fewer than 20 samples fall back to the median");
  check(median(ramp(5)) == 3.0 && percentile(ramp(3), 25.0) == 1.5,
        "linear-interpolated percentiles");

  // Ten windows of 1..100; one of them stalled at 1e6 ms.
  std::vector<double> stalled;
  for (int w = 0; w < 10; ++w) {
    for (double x : ramp(100)) stalled.push_back(w == 3 ? 1e6 : x);
  }
  const Tail wt = windowed_tail(stalled);
  check(wt.pct == 90.0 && std::abs(wt.value - 90.1) < 1e-9 && wt.n == 100,
        "windowed tail is the median window's p90; one stalled window is ignored");
  std::vector<double> steps(100, 10.0);
  for (size_t i = 0; i < 10; ++i) steps[i] = 1000.0;
  check(std::abs(windowed_rate(steps, 2.0) - 200.0) < 1e-9,
        "windowed rate is the median window's rate");
}

void test_self_time() {
  // root [0,100] with children A [10,40], B [30,60] (overlapping A) and
  // C [90,120] (ends after the root); A has a child [15,20].
  std::vector<Span> spans = {
      {"root", 0, 100, 1, 0, 1, 1},  {"A", 10, 40, 2, 1, 1, 1},
      {"B", 30, 60, 3, 1, 1, 1},     {"C", 90, 120, 4, 1, 1, 1},
      {"A.1", 15, 20, 5, 2, 1, 1},
  };
  const std::vector<int64_t> self = self_times_ns(spans);
  check(self[0] == 40, "root self = 100 - |[10,60] u [90,100]| = 40");
  check(self[1] == 25 && self[2] == 30 && self[3] == 30 && self[4] == 5,
        "child self times 25, 30, 30, 5");
  const auto table = self_time_table(spans);
  check(table.at("A").count == 1 && table.at("A").self_ns == 25,
        "self-time table groups by name");
}

void test_schedule() {
  const auto a = poisson_schedule(42, 200.0, 5.0, 48, 16);
  const auto b = poisson_schedule(42, 200.0, 5.0, 48, 16);
  const auto c = poisson_schedule(43, 200.0, 5.0, 48, 16);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_s == b[i].at_s && a[i].small == b[i].small &&
           a[i].sample == b[i].sample && a[i].session == b[i].session;
  }
  check(same, "same seed gives the same Poisson schedule");
  check(c.size() != a.size() || c.front().at_s != a.front().at_s,
        "another seed gives another schedule");
  check(a.size() > 900 && a.size() < 1100, "about rate x duration arrivals");
  int64_t small = 0;
  for (const Arrival& x : a) small += x.small ? 1 : 0;
  const double share = static_cast<double>(small) / static_cast<double>(a.size());
  check(share > 0.2 && share < 0.3, "about one request in four is small");
}

void test_wrapped_training_is_identical() {
  TrainSetup plain = make_train(5);
  TrainSetup wrapped = make_train(5);
  wrap_leaves(*wrapped.model);
  TrainLoop lp(plain), lw(wrapped);
  Tracer::instance().enable(true);
  bool same_loss = true;
  for (int i = 0; i < 3; ++i) {
    const double a = lp.step(i + 1);
    const double b = lw.step(i + 1);
    same_loss = same_loss && std::memcmp(&a, &b, sizeof(a)) == 0;
  }
  Tracer::instance().enable(false);
  lp.finish();
  lw.finish();
  check(same_loss, "wrapped and unwrapped models train with identical losses");
  const auto pp = plain.model->parameters();
  const auto pw = wrapped.model->parameters();
  bool same_params = pp.size() == pw.size();
  for (size_t i = 0; same_params && i < pp.size(); ++i) {
    const ttsnn::Tensor& x = pp[i]->value;
    const ttsnn::Tensor& y = pw[i]->value;
    same_params = x.numel() == y.numel() &&
                  std::memcmp(x.data(), y.data(),
                              static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
  }
  check(same_params, "and identical parameters after the steps");
  const std::vector<Span> spans = Tracer::instance().take();
  bool has_ttconv = false, has_lif = false;
  for (const Span& s : spans) {
    has_ttconv = has_ttconv || s.name == "core.ttconv.bwd";
    has_lif = has_lif || s.name == "nn.lif.fwd";
  }
  check(has_ttconv && has_lif, "wrapped leaves record layer spans");
  unwrap_leaves(*wrapped.model);
  bool unwrapped = true;
  ttsnn::visit_module_slots(*wrapped.model, [&](ttsnn::ModulePtr& slot) {
    unwrapped = unwrapped && dynamic_cast<TimedModule*>(slot.get()) == nullptr;
  });
  check(unwrapped, "unwrap_leaves restores the original modules");
}

void test_rewind_replays_epoch() {
  TrainSetup s = make_train(5);
  TrainLoop loop(s);
  std::vector<double> first;
  int64_t group = 0;
  while (!loop.epoch_done()) first.push_back(loop.step(++group));
  loop.rewind();
  bool same = true;
  for (size_t i = 0; i < 3; ++i) {
    const double x = loop.step(++group);
    same = same && std::memcmp(&x, &first[i], sizeof(x)) == 0;
  }
  loop.finish();
  check(first.size() == static_cast<size_t>(loop.steps_per_epoch()),
        "an epoch is steps_per_epoch() steps");
  check(same, "a rewound loop replays the first epoch's losses bitwise");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  std::printf("perfbench self-tests\n");
  test_tail_rule();
  test_self_time();
  test_schedule();
  test_wrapped_training_is_identical();
  test_rewind_replays_epoch();
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
