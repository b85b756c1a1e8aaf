#pragma once

/// \file trace.h
/// In-memory span recorder for the traced benchmark run.
///
/// A span is {name, start, end, parent, group}: `group` is the id shared by
/// every span of one training step or one request. Spans are kept in memory
/// while the workload runs and written once at exit, as a Chrome trace-event
/// JSON file (Perfetto and about:tracing read it) and as a per-layer
/// self-time table. A span's self time is its duration minus the part of its
/// interval covered by its children (overlapping children count once).
///
/// The recorder is off unless enabled; every entry point then returns at
/// once, so untraced runs pay one branch per call site.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  int64_t group = 0;   ///< step or request id; 0 = none
  int tid = 0;
};

/// Self time of every span in `spans`, in the same order: its duration minus
/// the union of its children's intervals clipped to its own interval.
inline std::vector<int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  int64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span with explicit timing (spans whose start and end
  /// are observed on different threads, e.g. an open-loop request).
  void record(std::string name, int64_t start_ns, int64_t end_ns, int64_t id,
              int64_t parent, int64_t group) {
    if (!enabled()) return;
    Span s{std::move(name), start_ns, end_ns, id, parent, group, thread_index()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  /// Innermost span open on this thread (0 = none) and its group.
  static std::vector<std::pair<int64_t, int64_t>>& open_stack() {
    thread_local std::vector<std::pair<int64_t, int64_t>> stack;
    return stack;
  }

  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  Tracer() : epoch_(Clock::now()) {}
  int thread_index() {
    thread_local int idx = next_tid_.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  std::atomic<int64_t> next_id_{1};
  std::atomic<int> next_tid_{1};
  std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span on the calling thread. Its parent is the innermost span open on
/// this thread; its group is `group` when nonzero, else the parent's group.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t group = 0) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    auto& stack = Tracer::open_stack();
    parent_ = stack.empty() ? 0 : stack.back().first;
    group_ = group != 0 ? group : (stack.empty() ? 0 : stack.back().second);
    id_ = t.new_id();
    name_ = name;
    stack.emplace_back(id_, group_);
    start_ns_ = t.now_ns();
  }
  ~ScopedSpan() {
    if (id_ == 0) return;
    Tracer& t = Tracer::instance();
    const int64_t end = t.now_ns();
    Tracer::open_stack().pop_back();
    t.record(name_, start_ns_, end, id_, parent_, group_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  const char* name_ = nullptr;
  int64_t id_ = 0, parent_ = 0, group_ = 0, start_ns_ = 0;
};

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, times in
/// microseconds). Returns false when the file cannot be written.
inline bool write_chrome_trace(const std::vector<Span>& spans,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"group\":%lld}}%s\n",
                 s.name.c_str(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.group),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// Per span name: number of spans and summed self time.
struct LayerRow {
  int64_t count = 0;
  int64_t self_ns = 0;
};

inline std::map<std::string, LayerRow> self_time_table(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times_ns(spans);
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerRow& r = rows[spans[i].name];
    ++r.count;
    r.self_ns += self[i];
  }
  return rows;
}

}  // namespace perfbench
