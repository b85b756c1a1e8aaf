/// \file main.cpp
/// The repository benchmark: two seeded workloads driven through the
/// library's public API, end-to-end metrics from an untraced run and
/// per-layer metrics from a traced run. See README.md in this directory for
/// what each workload and metric means and which layer moves which metric.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Traces are written to .bench_build/traces/ under the working directory.
///
/// The last line of stdout is one JSON object: correct, attempted, failed
/// and metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
/// The process exits 1 on any failed operation or wrong output.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/flops.h"
#include "data/synthetic_image.h"
#include "infer/analysis.h"
#include "infer/engine.h"
#include "infer/plan_cache.h"
#include "infer/router.h"
#include "schedule.h"
#include "snn/profile.h"
#include "stats.h"
#include "timed_module.h"
#include "trace.h"
#include "train_loop.h"

namespace perfbench {
namespace {

using ttsnn::Tensor;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
/// of them on every workload; a layer the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"core.ttconv.fwd_ms", "ms"},      {"core.ttconv.bwd_ms", "ms"},
    {"nn.conv2d.fwd_ms", "ms"},        {"nn.conv2d.bwd_ms", "ms"},
    {"nn.lif.fwd_ms", "ms"},           {"nn.lif.bwd_ms", "ms"},
    {"nn.batchnorm.fwd_ms", "ms"},     {"nn.batchnorm.bwd_ms", "ms"},
    {"nn.other.fwd_ms", "ms"},         {"nn.other.bwd_ms", "ms"},
    {"snn.dataloader.wait_ms", "ms"},  {"snn.loss_ms", "ms"},
    {"snn.optimizer_ms", "ms"},        {"train.glue_ms", "ms"},
    {"tensor.arena.hit_ratio", "ratio"}, {"util.cpu_per_wall", "ratio"},
    {"core.macs_per_sample", "count"}, {"core.synops_per_request", "count"},
    {"snn.spike_density", "ratio"},    {"tt.factorize_ms", "ms"},
    {"infer.compile_ms", "ms"},        {"infer.program_ms", "ms"},
    {"infer.run_ms", "ms"},            {"infer.num_ops", "count"},
    {"infer.fused_ops", "count"},      {"infer.weight_bytes", "bytes"},
    {"infer.workspace_bytes", "bytes"}, {"infer.router.submit_us", "us"},
    {"infer.router.mean_batch", "count"}, {"infer.router.max_batch", "count"},
    {"infer.router.steals", "count"},  {"infer.cache.hit_ratio", "ratio"},
    {"infer.router.backlog_end", "count"}, {"bench.gen_late_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::map<std::string, double> layer;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Arena hits / (hits + misses) since the last reset_stats(); 0 when unused.
double arena_hit_ratio() {
  const ttsnn::ArenaStats as = ttsnn::Arena::instance().stats();
  return static_cast<double>(as.hits) /
         static_cast<double>(std::max<int64_t>(as.hits + as.misses, 1));
}

/// Wall and process-CPU clock over one measured phase.
struct PhaseClock {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();
  double wall_s() const { return ms_between(wall0, Clock::now()) / 1e3; }
  double cpu_per_wall() const { return (cpu_seconds() - cpu0) / wall_s(); }
};

void print_timing(const char* name, const std::vector<double>& v,
                  const Tail& t) {
  std::printf("  %-24s p50 %.3f ms   tail p%g %.3f ms  (n=%lld, %lld beyond)\n",
              name, median(v), t.pct, t.value, static_cast<long long>(t.n),
              static_cast<long long>(t.beyond));
}

void print_metric(const std::string& name, double value, const char* unit) {
  std::printf("  %-28s %.6g %s\n", name.c_str(), value, unit);
}

/// Seconds to build one fresh workload state into `state` with `make`. The
/// previous state is destroyed before the clock starts, so tear-down is not
/// counted as set-up.
template <class State, class Make>
double timed_setup(std::optional<State>& state, Make make) {
  state.reset();
  const auto t0 = Clock::now();
  state.emplace(make());
  return ms_between(t0, Clock::now()) / 1e3;
}

/// Prints every set-up time of the run and returns their median.
double setup_median(const std::vector<double>& s) {
  std::printf("  setup runs (%zu):", s.size());
  for (double x : s) std::printf(" %.3f", x);
  std::printf(" s\n");
  return median(s);
}

constexpr int kTrainSetupReps = 7;

/// Plan facts of a compiled engine at one input shape.
void engine_facts(const ttsnn::infer::Engine& e, const ttsnn::Shape& shape,
                  Result& r) {
  int64_t fused = 0;
  for (const ttsnn::infer::Op& op : e.ops()) {
    using K = ttsnn::infer::Op::Kind;
    if (op.kind == K::kConvLif || op.kind == K::kAffineLif ||
        op.kind == K::kAddLif || op.kind == K::kAffineAdd) {
      ++fused;
    }
  }
  r.layer["infer.num_ops"] = static_cast<double>(e.num_ops());
  r.layer["infer.fused_ops"] = static_cast<double>(fused);
  r.layer["infer.weight_bytes"] = static_cast<double>(e.weight_bytes());
  r.layer["infer.workspace_bytes"] =
      static_cast<double>(e.memory_plan(shape)->total_floats) * 4.0;
}

/// MACs per sample, measured spike density and synaptic ops per sample of
/// `model` on `input` (eval-mode forward).
void model_facts(ttsnn::Module& model, const Tensor& input, Result& r) {
  const ttsnn::Shape& s = input.shape();
  const int64_t t = s[0];
  ttsnn::ModelStats stats = ttsnn::analyze_model(model, s[2], s[3], s[4]);
  ttsnn::SpikeProfile prof = ttsnn::profile_spikes(model, input);
  r.layer["core.macs_per_sample"] = stats.macs_per_step * static_cast<double>(t);
  r.layer["snn.spike_density"] = prof.mean_density;
  r.layer["core.synops_per_request"] =
      ttsnn::inference_synops(stats, prof.lif_densities, t).total();
}

/// Mean over groups (steps or requests) of the per-group sum of self time of
/// each span name, in ms; `groups` is the number of groups traced.
std::map<std::string, double> per_group_self_ms(const std::vector<Span>& spans,
                                                int64_t groups) {
  std::map<std::string, double> out;
  for (const auto& [name, row] : self_time_table(spans)) {
    out[name] = static_cast<double>(row.self_ns) / 1e6 /
                static_cast<double>(std::max<int64_t>(groups, 1));
  }
  return out;
}

/// Writes the trace file and prints the per-layer self-time table.
void emit_trace(const Args& a, const std::vector<Span>& spans,
                int64_t groups) {
  const std::string dir = ".bench_build/traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + a.workload + "_seed" +
                           std::to_string(a.seed) + ".trace.json";
  if (!write_chrome_trace(spans, path)) {
    std::printf("  trace: could not write %s\n", path.c_str());
  } else {
    std::printf("  trace: %zu spans -> %s\n", spans.size(), path.c_str());
  }
  std::printf("  per-layer self time (mean per step/request over %lld):\n",
              static_cast<long long>(groups));
  std::printf("    %-24s %10s %12s\n", "span", "count", "self ms");
  for (const auto& [name, row] : self_time_table(spans)) {
    std::printf("    %-24s %10lld %12.4f\n", name.c_str(),
                static_cast<long long>(row.count),
                static_cast<double>(row.self_ns) / 1e6 /
                    static_cast<double>(std::max<int64_t>(groups, 1)));
  }
}

void print_overhead(double untraced_p50, double traced_p50, Result& r) {
  const double pct = (traced_p50 / untraced_p50 - 1.0) * 100.0;
  r.layer["bench.trace_overhead_pct"] = pct;
  std::printf("  tracing overhead: p50 %.3f ms untraced vs %.3f ms traced "
              "(%+.2f%%)\n",
              untraced_p50, traced_p50, pct);
}

// --------------------------------------------------------------------------
// train_htt_event
// --------------------------------------------------------------------------

Result run_train(const Args& a) {
  Result r;
  std::optional<TrainSetup> s;
  std::vector<double> setups;
  for (int i = 0; i < kTrainSetupReps; ++i) {
    setups.push_back(timed_setup(s, [&] { return make_train(a.seed); }));
  }
  const double setup_s = setup_median(setups);
  r.layer["tt.factorize_ms"] = s->factorize_ms;
  TrainLoop loop(*s);

  // Every epoch replays epoch 0 from the initial state (TrainLoop::rewind,
  // outside the timed step), so each replay must reproduce the first pass's
  // losses bit for bit; a step that does not counts as failed. The first
  // pass's losses are fingerprinted: same seed, same fingerprint.
  const auto epoch_steps = static_cast<size_t>(loop.steps_per_epoch());
  constexpr int kWarmupSteps = 2;
  std::vector<double> first_epoch;
  int64_t group = 0;
  auto one_step = [&](std::vector<double>* step_ms) {
    if (loop.epoch_done()) loop.rewind();
    const auto t0 = Clock::now();
    const double loss = loop.step(++group);
    if (step_ms != nullptr) step_ms->push_back(ms_between(t0, Clock::now()));
    const size_t pos = static_cast<size_t>(group - 1) % epoch_steps;
    const bool replay = first_epoch.size() == epoch_steps;
    if (!replay) first_epoch.push_back(loss);
    if (step_ms != nullptr) {
      ++r.attempted;
      if (!std::isfinite(loss) ||
          (replay && !same_double(loss, first_epoch[pos]))) {
        ++r.failed;
      }
    }
  };
  for (int i = 0; i < kWarmupSteps; ++i) one_step(nullptr);

  auto phase = [&](double seconds, std::vector<double>& step_ms,
                   double* wall_s, double* cpu_per_wall) {
    ttsnn::Arena::instance().reset_stats();
    PhaseClock clock;
    while (clock.wall_s() < seconds || first_epoch.size() < epoch_steps) {
      one_step(&step_ms);
    }
    *wall_s = clock.wall_s();
    *cpu_per_wall = clock.cpu_per_wall();
  };

  std::vector<double> step_ms;
  double wall_s = 0.0, cpu_per_wall = 0.0;
  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  phase(untraced_s, step_ms, &wall_s, &cpu_per_wall);
  const double samples_per_s = windowed_rate(step_ms, kTrainBatch);

  std::printf("train_htt_event: HTT MS-ResNet18 w16, event 2x16x16, T=%lld, "
              "batch %lld, %zu measured steps in %.2f s\n",
              static_cast<long long>(kTrainT),
              static_cast<long long>(kTrainBatch), step_ms.size(), wall_s);
  print_timing("train.step_ms", step_ms, tail_of(step_ms));
  std::printf("  loss fingerprint (epoch 0, %zu steps): %016llx; the "
              "%lld steps run so far replay it bitwise\n",
              epoch_steps,
              static_cast<unsigned long long>(fingerprint(first_epoch)),
              static_cast<long long>(group));

  if (a.trace) {
    std::vector<double> traced_ms;
    wrap_leaves(*s->model);
    Tracer::instance().enable(true);
    double traced_wall = 0.0;
    phase(a.seconds / 2, traced_ms, &traced_wall, &cpu_per_wall);
    Tracer::instance().enable(false);
    unwrap_leaves(*s->model);
    r.layer["tensor.arena.hit_ratio"] = arena_hit_ratio();
    r.layer["util.cpu_per_wall"] = cpu_per_wall;

    const std::vector<Span> spans = Tracer::instance().take();
    const auto steps = static_cast<int64_t>(traced_ms.size());
    emit_trace(a, spans, steps);
    std::map<std::string, double> self = per_group_self_ms(spans, steps);
    double layers = 0.0;
    for (const char* layer :
         {"core.ttconv", "nn.conv2d", "nn.lif", "nn.batchnorm", "nn.other"}) {
      for (const char* dir : {"fwd", "bwd"}) {
        const std::string span = std::string(layer) + "." + dir;
        r.layer[span + "_ms"] = self[span];
        layers += self[span];
      }
    }
    r.layer["snn.dataloader.wait_ms"] = self["snn.dataloader.wait"];
    r.layer["snn.loss_ms"] = self["snn.loss"];
    r.layer["snn.optimizer_ms"] = self["snn.optimizer"];
    r.layer["train.glue_ms"] = self["train.step"];
    layers += self["snn.dataloader.wait"] + self["snn.loss"] +
              self["snn.optimizer"];
    // The step as the benchmark's own clock saw it, around loop.step(): the
    // span sum falls short of it by whatever ran outside every span.
    const double outside = mean(traced_ms);
    const double glue = self["train.step"];
    std::printf("  traced step %.3f ms (outside clock, mean) vs layer self "
                "times %.3f ms + glue %.3f ms = %.3f ms (%.2f%% accounted); "
                "glue is %.2f%% of the traced step, untraced step mean "
                "%.3f ms\n",
                outside, layers, glue, layers + glue,
                100.0 * (layers + glue) / outside, 100.0 * glue / outside,
                mean(step_ms));
    print_overhead(median(step_ms), median(traced_ms), r);
  }
  loop.finish();

  // Exact-lowering compile smoke on the unwrapped model: the engine must
  // reproduce eval-mode Module::forward bit for bit.
  ttsnn::Module& model = *s->model;
  model.set_training(false);
  std::vector<int64_t> idx(8);
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i) * 37;
  const ttsnn::Batch batch = s->data->get_batch(idx, kTrainT);
  auto t0 = Clock::now();
  const ttsnn::infer::Engine engine =
      ttsnn::infer::compile(model, {.merge_tt = false, .fold_batchnorm = false});
  r.layer["infer.compile_ms"] = ms_between(t0, Clock::now());
  t0 = Clock::now();
  engine.program(batch.input.shape());
  r.layer["infer.program_ms"] = ms_between(t0, Clock::now());
  const Tensor ref = model.forward(batch.input);
  t0 = Clock::now();
  const Tensor got = engine.run(batch.input);
  r.layer["infer.run_ms"] = ms_between(t0, Clock::now());
  const bool smoke_ok = same_bits(ref, got);
  ++r.attempted;
  if (!smoke_ok) ++r.failed;
  std::printf("  compile smoke (exact lowering == eval forward, bitwise): %s\n",
              smoke_ok ? "ok" : "MISMATCH");
  engine_facts(engine, batch.input.shape(), r);
  model_facts(model, batch.input, r);

  const Tail tail = tail_of(step_ms);
  r.e2e = {{"setup_s", setup_s, "s"},
           {"peak_rss_mb", peak_rss_mb(), "MB"},
           {"throughput_per_s", samples_per_s, "1/s"},
           {"p50_ms", median(step_ms), "ms"},
           {"tail_ms", tail.value, "ms"}};
  std::printf("  metrics: train.samples_per_s = %.3f 1/s, train.step_ms.p50 = "
              "%.3f ms, train.step_ms.tail = %.3f ms (p%g)\n",
              samples_per_s, median(step_ms), tail.value, tail.pct);
  return r;
}

// --------------------------------------------------------------------------
// serve_router_open
// --------------------------------------------------------------------------

constexpr int64_t kServeT = 4;

/// PTT MS-ResNet18 (width 8, rank fraction 0.4) whose BN statistics are
/// moved off their initial values by a few training-mode forwards on dataset
/// samples.
ttsnn::ModulePtr make_serving_model(const ttsnn::SyntheticImageDataset& data,
                                    double* factorize_ms) {
  ttsnn::Rng rng(kModelSeed);
  ttsnn::ModelConfig mc;
  mc.in_channels = 3;
  mc.num_classes = 10;
  mc.base_width = 8;
  mc.timesteps = kServeT;
  ttsnn::ModulePtr net = ttsnn::make_ms_resnet18(mc, rng);
  ttsnn::FactorizeOptions fo;
  fo.mode = ttsnn::TTMode::kPTT;
  fo.use_vbmf = false;
  fo.rank_fraction = 0.4;
  const auto t0 = Clock::now();
  ttsnn::factorize_network(*net, fo, rng);
  *factorize_ms = ms_between(t0, Clock::now());
  net->set_training(true);
  for (int64_t b = 0; b < 2; ++b) {
    std::vector<int64_t> idx(8);
    for (size_t i = 0; i < idx.size(); ++i) {
      idx[i] = (b * 8 + static_cast<int64_t>(i)) % data.size();
    }
    net->forward(data.get_batch(idx, kServeT).input);
  }
  net->clear_cache();
  net->set_training(false);
  return net;
}

/// `n` batch-1 requests [T, 1, C, H, W] drawn from `data`.
std::vector<Tensor> request_pool(const ttsnn::SyntheticImageDataset& data,
                                 int64_t n) {
  std::vector<Tensor> pool;
  for (int64_t i = 0; i < n; ++i) {
    pool.push_back(data.get_batch({i % data.size()}, kServeT).input);
  }
  return pool;
}

/// Fixed offered rates (req/s) of the open-loop phases: about 1/4 and 3/4 of
/// the rate (~400 req/s on a 4-vCPU x86 host, at the commit that introduced
/// the benchmark) where the default plan's p50 starts to climb. Frozen so
/// later changes are measured at the same load.
constexpr double kLowRate = 100.0;
constexpr double kHighRate = 300.0;
/// Geometric ladder from kLowRate (the low phase is its first rung) to
/// 100 x 1.2^15 = 1541 req/s, well above the exact plan's capacity, so a
/// faster Router still finds its knee on the ladder.
constexpr double kLadderStep = 1.2;
constexpr int kLadderRungs = 16;
/// Router set-ups per run, and the pause between two of them.
constexpr int kRouterSetupReps = 25;
constexpr auto kRouterSetupGap = std::chrono::milliseconds(150);
/// Tail latency limit a ladder rung must meet.
constexpr double kLimitMs = 50.0;
constexpr int64_t kLargePool = 48;
constexpr int64_t kSmallPool = 16;

struct RouterState {
  std::unique_ptr<ttsnn::SyntheticImageDataset> large_data, small_data;
  ttsnn::ModulePtr model;
  std::optional<ttsnn::infer::Engine> engine;
  std::vector<Tensor> large, small;            ///< [T, C, H, W] samples
  std::vector<Tensor> large_ref, small_ref;    ///< direct Engine::run outputs
  std::unique_ptr<ttsnn::infer::Router> router;
  double factorize_ms = 0.0, compile_ms = 0.0, program_ms = 0.0;
  double run_ms = 0.0;  ///< mean direct batch-1 Engine::run over the pool
};

/// The program's own set-up, which `setup_s` times: data, model,
/// factorization, BN warm-up, compile, the first program and the Router.
RouterState make_router(uint64_t seed) {
  RouterState s;
  auto data = [&](int64_t size, uint64_t stream) {
    return std::make_unique<ttsnn::SyntheticImageDataset>(
        ttsnn::SyntheticImageDataset::Options{
            .num_classes = 10,
            .samples_per_class = 8,
            .size = size,
            .seed = stream_seed(seed, stream)});
  };
  s.large_data = data(12, kImages);
  s.small_data = data(8, kImages + 100);
  s.model = make_serving_model(*s.large_data, &s.factorize_ms);
  auto t0 = Clock::now();
  s.engine.emplace(ttsnn::infer::compile(*s.model));
  s.compile_ms = ms_between(t0, Clock::now());
  t0 = Clock::now();
  s.engine->program({kServeT, 1, 3, 12, 12});
  s.program_ms = ms_between(t0, Clock::now());
  s.router = std::make_unique<ttsnn::infer::Router>(*s.engine);
  return s;
}

/// The benchmark's own preparation, outside `setup_s`: the request pools,
/// their direct batch-1 reference outputs (timed into `run_ms`), and the
/// program for every batch size the Router can form, for both shapes, so no
/// request pays a first-miss plan compile inside the measured phases.
void prepare_router(RouterState& s) {
  std::vector<Tensor> large_b1 = request_pool(*s.large_data, kLargePool);
  std::vector<Tensor> small_b1 = request_pool(*s.small_data, kSmallPool);
  for (const Tensor* x : {&large_b1[0], &small_b1[0]}) {
    ttsnn::Shape shape = x->shape();
    for (int64_t n = 1; n <= 8; ++n) {
      shape[1] = n;
      s.engine->program(shape);
    }
  }
  const auto t0 = Clock::now();
  auto fill = [&](const std::vector<Tensor>& b1, std::vector<Tensor>& xs,
                  std::vector<Tensor>& refs) {
    for (const Tensor& x : b1) {
      const ttsnn::Shape& sh = x.shape();
      xs.push_back(x.reshape({sh[0], sh[2], sh[3], sh[4]}));
      refs.push_back(s.engine->run(x));
    }
  };
  fill(large_b1, s.large, s.large_ref);
  fill(small_b1, s.small, s.small_ref);
  s.run_ms = ms_between(t0, Clock::now()) /
             static_cast<double>(kLargePool + kSmallPool);
}

/// Latency recorded for a request refused at submit: above any limit.
constexpr double kRefusedMs = 1e9;

struct PhaseResult {
  double rate = 0.0;
  std::vector<double> lat_ms;   ///< completed requests, from scheduled send
  std::vector<double> late_ms;  ///< generator lateness per arrival
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t backlog_end = 0;  ///< unresolved when the last arrival was sent
};

/// Sends `sched` open loop (each arrival at its due time, whatever the
/// backlog) and times every request from its due time to the moment its
/// future is seen resolved. A collector thread polls outstanding futures,
/// waiting on the oldest for at most 200 us, so completions are stamped
/// within about 0.2 ms.
PhaseResult run_open_phase(RouterState& s, const std::vector<Arrival>& sched,
                           double rate) {
  struct Pending {
    const Arrival* arrival = nullptr;
    size_t index = 0;  ///< position in the schedule
    Clock::time_point due;
    std::future<Tensor> fut;
    int64_t span_id = 0;
  };
  PhaseResult res;
  res.rate = rate;
  Tracer& tracer = Tracer::instance();
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> incoming;  // guarded by mu
  bool done = false;             // guarded by mu
  std::atomic<int64_t> resolved{0};
  // Latency per arrival, in send order; refused requests keep kRefusedMs.
  std::vector<double> lat(sched.size(), kRefusedMs);
  int64_t failed = 0;

  std::thread collector([&] {
    std::vector<Pending> out;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        while (!incoming.empty()) {
          out.push_back(std::move(incoming.front()));
          incoming.pop_front();
        }
        if (out.empty()) {
          if (done) return;
          cv.wait(lock, [&] { return !incoming.empty() || done; });
          continue;
        }
      }
      out.front().fut.wait_for(std::chrono::microseconds(200));
      const auto now = Clock::now();
      for (size_t i = 0; i < out.size();) {
        Pending& p = out[i];
        if (p.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        bool ok = false;
        try {
          const Tensor y = p.fut.get();
          const auto idx = static_cast<size_t>(p.arrival->sample);
          ok = same_bits(y, p.arrival->small ? s.small_ref[idx]
                                             : s.large_ref[idx]);
        } catch (const std::exception&) {
          ok = false;
        }
        lat[p.index] = ms_between(p.due, now);
        if (!ok) ++failed;
        if (p.span_id != 0) {
          tracer.record("router.request", tracer.to_ns(p.due),
                        tracer.to_ns(now), p.span_id, 0, p.span_id);
        }
        resolved.fetch_add(1, std::memory_order_relaxed);
        out[i] = std::move(out.back());
        out.pop_back();
      }
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t ai = 0; ai < sched.size(); ++ai) {
    const Arrival& arr = sched[ai];
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arr.at_s));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    res.late_ms.push_back(ms_between(due, sent));
    const auto idx = static_cast<size_t>(arr.sample);
    Tensor x = arr.small ? s.small[idx] : s.large[idx];
    const int64_t span_id = tracer.enabled() ? tracer.new_id() : 0;
    ++res.attempted;
    try {
      std::future<Tensor> fut = s.router->submit(std::move(x), arr.session);
      if (span_id != 0) {
        tracer.record("infer.router.submit", tracer.to_ns(sent),
                      tracer.now_ns(), tracer.new_id(), span_id, span_id);
      }
      std::lock_guard<std::mutex> lock(mu);
      incoming.push_back({&arr, ai, due, std::move(fut), span_id});
    } catch (const std::exception&) {
      ++res.failed;  // refused at submit: counts as missing the limit
    }
    cv.notify_one();
  }
  res.backlog_end =
      res.attempted - res.failed - resolved.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  res.failed += failed;
  res.lat_ms = std::move(lat);
  return res;
}

struct RouterRun {
  PhaseResult low, high;
  std::vector<PhaseResult> ladder;
  double max_rate = 0.0;
};

/// A ladder rung passes when nothing failed, the tail met the limit and the
/// backlog at the last send was no more than the limit lets be in flight.
bool rung_passes(const PhaseResult& p) {
  return p.failed == 0 && windowed_tail(p.lat_ms).value < kLimitMs &&
         static_cast<double>(p.backlog_end) <= p.rate * kLimitMs / 1e3 + 16.0;
}

/// The low phase takes 20% of `seconds`, the high phase 30%, and each
/// ladder rung above the low rate 3.5%, stopping at the first rung that
/// fails twice in a row.
RouterRun run_router_phases(RouterState& s, uint64_t seed, double seconds) {
  RouterRun run;
  uint64_t stream = 0;
  auto sched = [&](double rate, double dur) {
    return poisson_schedule(stream_seed(seed, kArrivals + 100 * ++stream), rate,
                            dur, kLargePool, kSmallPool);
  };
  std::vector<Arrival> low = sched(kLowRate, 0.2 * seconds);
  std::vector<Arrival> high = sched(kHighRate, 0.3 * seconds);
  run.low = run_open_phase(s, low, kLowRate);
  run.high = run_open_phase(s, high, kHighRate);

  // max rate: interpolated (log rate vs log tail) between the last passing rung
  // and the first failing one, so the figure follows the knee continuously.
  double prev_rate = kLowRate;
  double prev_tail = windowed_tail(run.low.lat_ms).value;
  bool prev_ok = rung_passes(run.low);
  run.max_rate = prev_ok ? kLowRate : 0.0;
  double rate = kLowRate;
  for (int k = 1; k < kLadderRungs && prev_ok; ++k) {
    rate *= kLadderStep;
    run.ladder.push_back(run_open_phase(s, sched(rate, 0.035 * seconds), rate));
    // A rung fails only when it fails twice in a row, so one slow stretch
    // of the host does not end the ladder below the knee.
    if (!rung_passes(run.ladder.back())) {
      run.ladder.push_back(
          run_open_phase(s, sched(rate, 0.035 * seconds), rate));
    }
    const PhaseResult& p = run.ladder.back();
    const double t = windowed_tail(p.lat_ms).value;
    if (rung_passes(p)) {
      run.max_rate = rate;
      prev_rate = rate;
      prev_tail = t;
      continue;
    }
    if (p.failed == 0 && t > prev_tail) {
      const double frac = std::clamp(
          std::log(kLimitMs / prev_tail) / std::log(t / prev_tail), 0.0, 1.0);
      run.max_rate = prev_rate * std::pow(rate / prev_rate, frac);
    }
    prev_ok = false;
  }
  return run;
}

void print_phase(const char* name, const PhaseResult& p) {
  const Tail t = windowed_tail(p.lat_ms);
  std::printf("  %-6s %6.1f req/s: p50 %7.3f ms  tail p%g %8.3f ms (median "
              "over windows of n=%lld, %lld beyond)  failed %lld  "
              "backlog_end %lld  late p99 %.3f ms\n",
              name, p.rate, median(p.lat_ms), t.pct, t.value,
              static_cast<long long>(t.n), static_cast<long long>(t.beyond),
              static_cast<long long>(p.failed),
              static_cast<long long>(p.backlog_end),
              percentile(p.late_ms, 99.0));
}

Result run_router(const Args& a) {
  Result r;
  std::optional<RouterState> s;
  // The Router's set-up is about 0.1 s and follows the host's state, which
  // shifts within a second, so its set-ups are spread over several seconds.
  std::vector<double> setups;
  for (int i = 0; i < kRouterSetupReps; ++i) {
    if (i > 0) std::this_thread::sleep_for(kRouterSetupGap);
    setups.push_back(timed_setup(s, [&] { return make_router(a.seed); }));
  }
  const double setup_s = setup_median(setups);
  prepare_router(*s);
  // Warm the dispatchers and the pool threads before measuring.
  run_open_phase(*s, poisson_schedule(stream_seed(a.seed, kArrivals), kLowRate,
                                      0.5, kLargePool, kSmallPool),
                 kLowRate);

  auto account = [&](const RouterRun& run) {
    for (const PhaseResult* p : {&run.low, &run.high}) {
      r.attempted += p->attempted;
      r.failed += p->failed;
    }
    for (const PhaseResult& p : run.ladder) {
      r.attempted += p.attempted;
      r.failed += p.failed;
    }
  };
  auto report = [&](const RouterRun& run) {
    print_phase("low", run.low);
    print_phase("high", run.high);
    for (const PhaseResult& p : run.ladder) print_phase("ladder", p);
    std::printf("  max rate meeting tail < %.0f ms: %.2f req/s\n", kLimitMs,
                run.max_rate);
  };

  std::printf("serve_router_open: PTT MS-ResNet18 w8, default compile (%zu "
              "ops), Router 2 shards / max_batch 8 / 2 ms, 3:1 mix of "
              "3x12x12 and 3x8x8, T=%lld, Poisson open loop\n",
              s->engine->num_ops(), static_cast<long long>(kServeT));
  const RouterRun run =
      run_router_phases(*s, a.seed, a.trace ? a.seconds / 2 : a.seconds);
  account(run);
  report(run);

  r.layer["tt.factorize_ms"] = s->factorize_ms;
  r.layer["infer.compile_ms"] = s->compile_ms;
  r.layer["infer.program_ms"] = s->program_ms;
  r.layer["infer.run_ms"] = s->run_ms;
  if (a.trace) {
    const ttsnn::infer::RouterStats before = s->router->stats();
    ttsnn::Arena::instance().reset_stats();
    PhaseClock traced_clock;
    Tracer::instance().enable(true);
    const RouterRun traced = run_router_phases(*s, a.seed, a.seconds / 2);
    Tracer::instance().enable(false);
    const double cpu_per_wall = traced_clock.cpu_per_wall();
    account(traced);
    std::printf("  traced:\n");
    report(traced);
    const ttsnn::infer::RouterStats after = s->router->stats();
    r.layer["tensor.arena.hit_ratio"] = arena_hit_ratio();
    r.layer["util.cpu_per_wall"] = cpu_per_wall;
    const double batches = static_cast<double>(after.batches - before.batches);
    r.layer["infer.router.mean_batch"] =
        static_cast<double>(after.requests - before.requests) /
        std::max(batches, 1.0);
    r.layer["infer.router.max_batch"] = static_cast<double>(after.max_batch);
    r.layer["infer.router.steals"] =
        static_cast<double>(after.steals - before.steals);
    const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double misses =
        static_cast<double>(after.cache_misses - before.cache_misses);
    r.layer["infer.cache.hit_ratio"] = hits / std::max(hits + misses, 1.0);
    r.layer["infer.router.backlog_end"] =
        static_cast<double>(traced.high.backlog_end);
    r.layer["bench.gen_late_ms"] = std::max(percentile(traced.low.late_ms, 99),
                                            percentile(traced.high.late_ms, 99));
    const std::vector<Span> spans = Tracer::instance().take();
    int64_t n = 0;
    for (const Span& sp : spans) n += sp.name == "router.request" ? 1 : 0;
    emit_trace(a, spans, n);
    std::map<std::string, double> self = per_group_self_ms(spans, n);
    r.layer["infer.router.submit_us"] = self["infer.router.submit"] * 1e3;
    print_overhead(median(run.low.lat_ms), median(traced.low.lat_ms), r);
  }
  engine_facts(*s->engine, s->large[0].reshape({kServeT, 1, 3, 12, 12}).shape(),
               r);
  std::vector<int64_t> idx(8);
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);
  model_facts(*s->model, s->large_data->get_batch(idx, kServeT).input, r);

  const Tail low_tail = windowed_tail(run.low.lat_ms);
  const Tail high_tail = windowed_tail(run.high.lat_ms);
  std::printf("  metrics: router.low.p50_ms = %.3f ms, router.low.tail_ms = "
              "%.3f ms (p%g), router.high.p50_ms = %.3f ms, "
              "router.high.tail_ms = %.3f ms (p%g), router.max_rate_rps = "
              "%.3f req/s\n",
              median(run.low.lat_ms), low_tail.value, low_tail.pct,
              median(run.high.lat_ms), high_tail.value, high_tail.pct,
              run.max_rate);
  r.e2e = {{"setup_s", setup_s, "s"},
           {"peak_rss_mb", peak_rss_mb(), "MB"},
           {"throughput_per_s", run.max_rate, "1/s"},
           {"p50_ms", median(run.high.lat_ms), "ms"},
           {"tail_ms", high_tail.value, "ms"}};
  return r;
}

// --------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

void print_json(const Args& a, const Result& r) {
  std::string m;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
    m += buf;
  };
  if (a.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = r.layer.find(name);
      add(name, it == r.layer.end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const Metric& x : r.e2e) add(x.name, x.value, x.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), m.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <train_htt_event|"
                 "serve_router_open> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  Result r;
  try {
    if (a.workload == "train_htt_event") {
      r = run_train(a);
    } else if (a.workload == "serve_router_open") {
      r = run_router(a);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("  failed_share = %.6g (%lld failed of %lld attempted)\n",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<int64_t>(r.attempted, 1)),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  if (!a.trace) {
    for (const Metric& x : r.e2e) print_metric(x.name, x.value, x.unit.c_str());
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = r.layer.find(name);
      print_metric(name, it == r.layer.end() ? 0.0 : it->second, unit.c_str());
    }
  }
  print_json(a, r);
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
