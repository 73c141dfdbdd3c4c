// End-to-end benchmark: one process runs one workload once.
//
//   batch-b8     closed loop, one caller: forward(plan) on vgg16_d_scaled(7)
//                at batch 8 — the executor and kernels with no serve work.
//   serve-tiny   open-loop Poisson into InferenceServer, one planned session
//                on vgg16_d_scaled(28) (8x8 input) — time goes to queueing,
//                the batching window and handoffs.
//   serve-mixed  the same server with an fp32 planned session on
//                vgg16_d_scaled(7) (75% of traffic) and an int8 session on
//                vgg16_d_scaled(14) (25%) — compute dominates.
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around every call into the library, replays each plan
// step through its public kernel, and reports the per-layer metrics plus
// its own overhead against an untraced window of the same run.
//
// Usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--out <path>]
//
// Prints every metric as "name value unit", then as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end (--trace 0) or per-layer (--trace 1) metrics. All metrics of
// the run go as JSON to --out (default: e2e-<workload>-trace<0|1>.json next
// to the binary), and a traced run's spans to trace-<workload>.json next to
// the binary. Exits 1 when an output check fails, 2 on a malformed command
// line.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "e2e.hpp"
#include "nn/plan.hpp"
#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/inference_server.hpp"

namespace {

namespace nn = wino::nn;
namespace serve = wino::serve;
using e2e::Clock;
using e2e::ms_between;
using e2e::percentile;
using e2e::Tensor4f;

constexpr std::size_t kBatch = 8;       ///< batch-b8 call size, replay batch
constexpr std::size_t kBatchPool = 16;  ///< distinct batch-b8 inputs
constexpr std::size_t kSessionImages = 32;
constexpr int kSetups = 9;  ///< cold set-ups per run; setup_s is the median
constexpr int kReplayReps = 25;
// Weights and the int8 calibration sample are part of the model, so their
// seeds are fixed; --seed drives arrivals, model choice and image contents.
constexpr std::uint64_t kWeightsVgg7 = 1;
constexpr std::uint64_t kWeightsVgg28 = 2;
constexpr std::uint64_t kWeightsVgg14 = 3;
constexpr std::uint64_t kCalibrationSeed = 4;
constexpr double kInt8Budget = 0.10;

/// An open-loop workload's fixed rates (req/s) and p99 limit (ms). These
/// are absolute constants: never derive them from the host's speed.
struct ServeWorkload {
  const char* name;
  double low_rps;
  double high_rps;
  double p99_limit_ms;
  bool mixed;
};
// The high rates sit at or below half of what the server sustains when a
// shared host halves the compute it grants (the host notes in README.md):
// nearer the knee, queueing turns a host slowdown into a latency blow-up.
constexpr ServeWorkload kServeTiny{"serve-tiny", 250, 1000, 10, false};
constexpr ServeWorkload kServeMixed{"serve-mixed", 100, 250, 25, true};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< --trace 0 contract metrics
  std::vector<Metric> per_layer;   ///< --trace 1 contract metrics
  std::vector<Metric> extra;       ///< printed and written, not in the line
  std::vector<std::pair<std::string, e2e::Replay>> replays;
  std::vector<std::pair<std::string, double>> self_ms;
  std::vector<std::string> notes;  ///< printed as-is
};

void add(std::vector<Metric>& to, std::string name, double value,
         std::string unit) {
  to.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                std::move(unit)});
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return ms_between(a, b) / 1e3;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Milliseconds of a fixed throughput-bound float loop (median of 15): how
/// much compute the host grants this process right now. On a shared host
/// it can double for minutes at a time; compare it across runs before
/// reading a slower run as a regression.
double host_probe_ms() {
  const std::vector<float> a(4096, 1.0001F);
  const std::vector<float> b(4096, 0.9999F);
  std::vector<double> ms;
  volatile float sink = 0;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    float acc[8] = {};
    for (int k = 0; k < 1000; ++k) {
      for (std::size_t i = 0; i < a.size(); i += 8) {
        for (std::size_t j = 0; j < 8; ++j) acc[j] += a[i + j] * b[i + j];
      }
    }
    sink = sink + acc[0] + acc[7];
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return e2e::median(ms);
}

std::vector<Tensor4f> seeded_inputs(std::uint64_t seed, std::size_t count,
                                    std::size_t batch,
                                    const std::vector<nn::LayerSpec>& layers) {
  const auto& c = layers.front().conv;
  wino::common::Rng rng(seed);
  std::vector<Tensor4f> out;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor4f t(batch, c.c, c.h, c.w);
    rng.fill_uniform(t.flat(), -1.0F, 1.0F);
    out.push_back(std::move(t));
  }
  return out;
}

Tensor4f stack(const std::vector<Tensor4f>& images, std::size_t count) {
  std::vector<const Tensor4f*> ptrs;
  for (std::size_t i = 0; i < count; ++i) ptrs.push_back(&images[i]);
  return nn::stack_images(ptrs);
}

/// Inputs and measurements the per-layer contract metrics are built from;
/// the serve fields stay zero on batch-b8, which has no serve layer.
struct LayerInputs {
  double p50_ms = 0;  ///< untraced call / high-rate request latency
  double p99_ms = 0;
  double plan_s = 0;
  double prewarm_s = 0;
  const nn::ExecutionPlan* plan = nullptr;
  double cache_hit_frac = 0;
  const e2e::Replay* replay = nullptr;
  double sgemm_gflops = 0;
  double igemm_gops = 0;
  std::size_t int8_layers = 0;
  double batch_mean = 0;
  double busy_frac = 0;
  double refused = 0;
  double shed = 0;
  double queue_share = 0;
  double dispatch_share = 0;
  double exec_share = 0;
  double max_rps = 0;
  double overhead_frac = 0;
};

void add_layer_metrics(Report& r, const LayerInputs& in) {
  auto& m = r.per_layer;
  // Latency swings with the compute a shared host grants (README.md, host
  // notes) beyond any bound a regression gate could use, so it is tracked
  // here, unbounded, rather than as an end-to-end metric.
  add(m, "latency.p50_ms", in.p50_ms, "ms");
  add(m, "latency.p99_ms", in.p99_ms, "ms");
  add(m, "nn.plan_s", in.plan_s, "s");
  add(m, "nn.prewarm_s", in.prewarm_s, "s");
  add(m, "nn.slab_bytes_per_image",
      static_cast<double>(in.plan->memory.peak_bytes(kBatch)) / kBatch, "B");
  add(m, "nn.transform_cache.hit_frac", in.cache_hit_frac, "frac");
  add(m, "nn.forward_ms", in.replay->forward_ms, "ms");
  double pool_ms = 0;
  double step_sum = 0;
  double wino_ops = 0;
  double wino_ms = 0;
  for (const e2e::StepTime& s : in.replay->steps) {
    step_sum += s.ms;
    if (s.conv) {
      add(m, "nn.step." + s.name + ".ms", s.ms, "ms");
    } else if (s.algo == "maxpool") {
      pool_ms += s.ms;
    } else {
      add(m, "nn.step.fc.ms", s.ms, "ms");
    }
    if (s.layer == "winograd") {
      wino_ops += s.ops;
      wino_ms += s.ms;
    }
  }
  add(m, "nn.step.pool.ms", pool_ms, "ms");
  for (const e2e::StepTime& s : in.replay->steps) {
    if (s.conv) {
      add(m, "nn.step." + s.name + ".pred_ratio",
          s.predicted_ms > 0 ? s.ms / s.predicted_ms : 0.0, "ratio");
    }
  }
  add(m, "nn.step_sum_frac", step_sum / in.replay->forward_ms, "frac");
  add(m, "winograd.gflops", wino_ms > 0 ? wino_ops / (wino_ms * 1e6) : 0.0,
      "GFLOP/s");
  add(m, "runtime.sgemm.gflops", in.sgemm_gflops, "GFLOP/s");
  add(m, "runtime.igemm.gops", in.igemm_gops, "GOP/s");
  add(m, "quant.int8_layers", static_cast<double>(in.int8_layers), "count");
  add(m, "serve.batch_size.mean", in.batch_mean, "count");
  add(m, "serve.worker_busy_frac", in.busy_frac, "frac");
  add(m, "serve.refused", in.refused, "count");
  add(m, "serve.shed", in.shed, "count");
  add(m, "serve.queue_wait_share", in.queue_share, "frac");
  add(m, "serve.dispatch_wait_share", in.dispatch_share, "frac");
  add(m, "serve.exec_share", in.exec_share, "frac");
  add(m, "serve.max_rps", in.max_rps, "1/s");
  add(m, "trace_overhead_frac", in.overhead_frac, "frac");

  // Report only: each pool step, and the im2col rate, which is 0 whenever
  // the planner picked no im2col step.
  double i2c_ops = 0;
  double i2c_ms = 0;
  for (const e2e::StepTime& s : in.replay->steps) {
    if (s.algo == "maxpool") add(r.extra, "nn.step." + s.name + ".ms", s.ms, "ms");
    if (s.layer == "conv" && s.algo == "im2col") {
      i2c_ops += s.ops;
      i2c_ms += s.ms;
    }
  }
  add(r.extra, "conv.im2col.gflops", i2c_ms > 0 ? i2c_ops / (i2c_ms * 1e6) : 0,
      "GFLOP/s");
}

// ---------------------------------------------------------------------------
// batch-b8
// ---------------------------------------------------------------------------

Report run_batch(const Args& args, e2e::Trace& trace) {
  Report r;
  const auto layers = nn::vgg16_d_scaled(7, 8);
  const nn::WeightBank weights = nn::random_weights(layers, kWeightsVgg7);
  const auto inputs = seeded_inputs(args.seed, kBatchPool, kBatch, layers);
  const int setups = args.smoke ? 1 : kSetups;

  nn::PlannerOptions options;
  options.batch = kBatch;
  nn::ExecutionPlan plan;
  std::vector<double> setup_s, plan_s, prewarm_s;
  for (int k = 0; k < setups; ++k) {
    nn::clear_measured_state();
    nn::clear_transform_cache();
    const int root = trace.open("setup", "bench");
    const auto t0 = Clock::now();
    plan = nn::plan_execution(layers, options);
    const auto t1 = Clock::now();
    nn::prewarm_workspaces(plan, weights, kBatch);
    const auto t2 = Clock::now();
    trace.add("nn.plan_execution", "nn", t0, t1, root);
    trace.add("nn.prewarm_workspaces", "nn", t1, t2, root);
    trace.close(root);
    setup_s.push_back(seconds_between(t0, t2));
    plan_s.push_back(seconds_between(t0, t1));
    prewarm_s.push_back(seconds_between(t1, t2));
  }

  r.notes.push_back("plan:\n" + plan.to_string());
  Tensor4f out;
  nn::forward(plan, weights, inputs[0], out);
  const bool first_ok =
      e2e::same_bytes(out, nn::forward_reference(plan, weights, inputs[0]));
  r.correct = first_ok;

  std::size_t next = 0;
  // Closed loop: the next call starts when the previous one returns.
  const auto calls = [&](double seconds, bool traced) {
    std::vector<double> ms;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    for (auto t0 = Clock::now(); t0 < end; t0 = Clock::now()) {
      nn::forward(plan, weights, inputs[next++ % inputs.size()], out);
      const auto t1 = Clock::now();
      ms.push_back(ms_between(t0, t1));
      if (traced) trace.add("nn.forward", "nn", t0, t1);
    }
    return ms;
  };
  (void)calls(std::min(2.0, args.seconds / 5), false);  // warm-up

  if (!trace.enabled()) {
    const auto ms = calls(args.seconds, false);
    r.attempted = ms.size();
    r.failed = first_ok ? 0 : 1;
    const double p50 = percentile(ms, 0.5);
    add(r.end_to_end, "setup_s", e2e::median(setup_s), "s");
    add(r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
    add(r.extra, "img_per_s", kBatch / (p50 / 1e3), "img/s");
    add(r.extra, "call_p50_ms", p50, "ms");
    add(r.extra, "call_p99_ms", percentile(ms, 0.99), "ms");
    add(r.extra, "fail_frac", static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted), "frac");
    add(r.extra, "calls", static_cast<double>(ms.size()), "count");
    return r;
  }

  const auto untraced = calls(args.seconds / 3, false);
  const auto cache0 = nn::transform_cache_stats();
  const auto traced = calls(args.seconds / 3, true);
  const auto cache1 = nn::transform_cache_stats();
  r.attempted = untraced.size() + traced.size();
  r.failed = first_ok ? 0 : 1;

  const int root = trace.open("replay", "bench");
  r.replays.emplace_back(
      "vgg16_d_scaled(7)",
      e2e::replay_plan(plan, kBatch, weights, inputs[0],
                       args.smoke ? 3 : kReplayReps, trace, root));
  LayerInputs in;
  in.sgemm_gflops =
      e2e::sgemm_gflops(layers, kBatch, args.smoke ? 3 : kReplayReps, trace,
                        root);
  trace.close(root);

  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  in.p50_ms = percentile(untraced, 0.5);
  in.p99_ms = percentile(untraced, 0.99);
  in.plan_s = e2e::median(plan_s);
  in.prewarm_s = e2e::median(prewarm_s);
  in.plan = &plan;
  in.cache_hit_frac = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  in.replay = &r.replays.back().second;
  in.overhead_frac =
      percentile(traced, 0.5) / percentile(untraced, 0.5) - 1.0;
  add_layer_metrics(r, in);
  if (!in.replay->identical) {
    r.correct = false;
    ++r.failed;
  }
  add(r.extra, "img_per_s.untraced", kBatch / (percentile(untraced, 0.5) / 1e3),
      "img/s");
  add(r.extra, "img_per_s.traced", kBatch / (percentile(traced, 0.5) / 1e3),
      "img/s");
  return r;
}

// ---------------------------------------------------------------------------
// serve-tiny / serve-mixed
// ---------------------------------------------------------------------------

struct Models {
  std::vector<nn::LayerSpec> main_layers;
  nn::WeightBank main_weights;
  std::vector<nn::LayerSpec> q_layers;  ///< serve-mixed only
  nn::WeightBank q_weights;
  Tensor4f calibration;
};

Models build_models(const ServeWorkload& wl) {
  Models m;
  if (!wl.mixed) {
    m.main_layers = nn::vgg16_d_scaled(28, 8);
    m.main_weights = nn::random_weights(m.main_layers, kWeightsVgg28);
    return m;
  }
  m.main_layers = nn::vgg16_d_scaled(7, 8);
  m.main_weights = nn::random_weights(m.main_layers, kWeightsVgg7);
  m.q_layers = nn::vgg16_d_scaled(14, 8);
  m.q_weights = nn::random_weights(m.q_layers, kWeightsVgg14);
  m.calibration = seeded_inputs(kCalibrationSeed, 1, 2, m.q_layers).front();
  return m;
}

/// The int8 session's planner options. Measured scoring flips between 0
/// and 3 int8 layers from one cold start to the next on this model (int8
/// and fp32 Winograd nearly tie at its deep layers), so the session plans
/// with the analytic cost model at its default rates instead: every start
/// plans the same 13 int8 layers, and the int8 path always runs.
nn::PlannerOptions int8_options() {
  nn::PlannerOptions o;
  o.batch = kBatch;
  o.calibration = nn::default_calibration();
  return o;
}

/// Set-up timings of one cold server construction.
struct Setup {
  double total_s = 0;
  double plan_s = 0;     ///< traced: main session plan_execution
  double prewarm_s = 0;  ///< traced: main session prewarm_workspaces
  double add_model_s = 0;
};

struct Served {
  std::unique_ptr<serve::InferenceServer> server;
  serve::ModelId main_id = 0;
  serve::ModelId q_id = 0;
  Setup timing;
};

/// Register one planned session through the public steps add_model_planned
/// takes, one call at a time so each gets a span.
serve::ModelId add_traced(serve::InferenceServer& server,
                          const serve::ServerConfig& cfg, const char* name,
                          const std::vector<nn::LayerSpec>& layers,
                          const nn::WeightBank& weights,
                          const nn::PlannerOptions& options, e2e::Trace& trace,
                          int parent, Setup* timing) {
  const auto t0 = Clock::now();
  nn::ExecutionPlan plan = nn::plan_execution(layers, options);
  const auto t1 = Clock::now();
  const std::size_t warm = plan.batch_ceiling > 0
                               ? std::min(plan.batch_ceiling, cfg.max_batch)
                               : cfg.max_batch;
  nn::prewarm_workspaces(plan, weights, warm);
  const auto t2 = Clock::now();
  const serve::ModelId id = server.add_model(name, std::move(plan), weights);
  const auto t3 = Clock::now();
  trace.add("nn.plan_execution", "nn", t0, t1, parent);
  trace.add("nn.prewarm_workspaces", "nn", t1, t2, parent);
  trace.add("serve.add_model", "serve", t2, t3, parent);
  if (timing != nullptr) {
    timing->plan_s = seconds_between(t0, t1);
    timing->prewarm_s = seconds_between(t1, t2);
    timing->add_model_s = seconds_between(t2, t3);
  }
  return id;
}

/// One cold set-up: no measured planning state, no cached transforms, no
/// calibration cache file. Untraced runs register the sessions with the
/// one-call API a user would.
Served set_up(const serve::ServerConfig& cfg, const Models& m,
              e2e::Trace& trace) {
  nn::clear_measured_state();
  nn::clear_transform_cache();
  Served s;
  const int root = trace.open("setup", "bench");
  const auto t0 = Clock::now();
  s.server = std::make_unique<serve::InferenceServer>(cfg);
  if (!trace.enabled()) {
    s.main_id = s.server->add_model_planned("main", m.main_layers,
                                            m.main_weights);
    if (!m.q_layers.empty()) {
      s.q_id = s.server->add_model_quantized("int8", m.q_layers, m.q_weights,
                                             m.calibration, kInt8Budget,
                                             int8_options());
    }
  } else {
    s.main_id = add_traced(*s.server, cfg, "main", m.main_layers,
                           m.main_weights, {}, trace, root, &s.timing);
    if (!m.q_layers.empty()) {
      // add_model_quantized's steps: calibrate, extend the candidates with
      // the int8 algorithms, plan under the error budget.
      const auto c0 = Clock::now();
      nn::PlannerOptions o = int8_options();
      o.quant =
          nn::calibrate_activations(m.q_layers, m.q_weights, m.calibration);
      trace.add("nn.calibrate_activations", "nn", c0, Clock::now(), root);
      o.constraints.max_rel_error = kInt8Budget;
      for (const nn::ConvAlgo algo : nn::quantized_candidates()) {
        o.candidates.push_back(algo);
      }
      s.q_id = add_traced(*s.server, cfg, "int8", m.q_layers, m.q_weights, o,
                          trace, root, nullptr);
    }
  }
  s.timing.total_s = seconds_between(t0, Clock::now());
  trace.close(root);
  return s;
}

std::vector<e2e::Session> sessions_for(const Served& s, const Models& m,
                                       std::uint64_t seed) {
  std::vector<e2e::Session> out;
  e2e::Session main;
  main.id = s.main_id;
  main.share = m.q_layers.empty() ? 1.0 : 0.75;
  main.images = seeded_inputs(seed, kSessionImages, 1, m.main_layers);
  out.push_back(std::move(main));
  if (!m.q_layers.empty()) {
    e2e::Session q;
    q.id = s.q_id;
    q.share = 0.25;
    q.images = seeded_inputs(seed + 1, kSessionImages, 1, m.q_layers);
    out.push_back(std::move(q));
  }
  return out;
}

/// Length of one window at `rate`: a fixed share of the run, stretched so
/// the window's p99 rests on at least 1000 samples (except in a smoke run,
/// which only checks that everything works).
double window_seconds(const Args& args, double rate) {
  return args.smoke ? args.seconds / 25
                    : std::max(args.seconds / 25, 1000.0 / rate);
}

/// Fixed-rate windows merged: p50 and p99 are the medians of the windows'
/// own percentiles, so one window disturbed by a stall on the host moves
/// neither; p95 pools every sample (for rates too low to give a window
/// 1000 samples).
struct RateResult {
  double p50_ms = 0;
  double p99_ms = 0;
  double p95_pooled_ms = 0;
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  e2e::Window sum;  ///< counters summed; traced vectors concatenated
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

RateResult run_rate(e2e::LoadGenerator& gen, double rate, int windows,
                    double seconds, bool traced) {
  RateResult r;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (int i = 0; i < windows; ++i) {
    const e2e::Window w = gen.run(rate, seconds, traced);
    p50s.push_back(percentile(w.latency_ms, 0.5));
    p99s.push_back(percentile(w.latency_ms, 0.99));
    append(r.sum.latency_ms, w.latency_ms);
    append(r.late_ms, w.late_ms);
    append(r.submit_us, w.submit_us);
    e2e::Window& s = r.sum;
    s.attempted += w.attempted;
    s.refused += w.refused;
    s.shed += w.shed;
    s.thrown += w.thrown;
    s.checked += w.checked;
    s.mismatched += w.mismatched;
    s.mean_batch += w.mean_batch / windows;
    s.busy_frac += w.busy_frac / windows;
    append(s.queue_wait_ms, w.queue_wait_ms);
    append(s.dispatch_wait_ms, w.dispatch_wait_ms);
    append(s.request_exec_ms, w.request_exec_ms);
    append(s.exec_ms, w.exec_ms);
  }
  r.p50_ms = e2e::median(p50s);
  r.p99_ms = e2e::median(p99s);
  r.p95_pooled_ms = percentile(r.sum.latency_ms, 0.95);
  return r;
}

/// Highest offered rate whose p99 stays within the limit with no growing
/// backlog: every request admitted and served, completions keeping up with
/// at least 97% of the arrivals actually drawn, and the server empty within
/// 1 s of the window's end. Steps x1.5 up from `start`, then bisects
/// (geometrically) to 5% resolution, while the probe windows fit in
/// `budget_s` so the run length stays bounded. A failing rate is probed
/// once more before it counts as failed: a stall on a shared host fails
/// one window, an overloaded server fails both.
double search_max_rps(e2e::LoadGenerator& gen, const Args& args,
                      double start, double limit_ms, double budget_s,
                      Report& r, int& probes) {
  probes = 0;
  double spent_s = 0;
  const auto affordable = [&] { return spent_s < budget_s; };
  const auto probe = [&](double rate) {
    ++probes;
    const double probe_s = window_seconds(args, rate);
    spent_s += probe_s;
    const e2e::Window w = gen.run(rate, probe_s, false);
    r.correct = r.correct && w.mismatched == 0;
    r.failed += w.mismatched;
    const double drawn = static_cast<double>(w.attempted) / probe_s;
    const double p99 = percentile(w.latency_ms, 0.99);
    const bool ok = w.refused + w.shed + w.thrown == 0 && p99 <= limit_ms &&
                    w.achieved_rps >= 0.97 * drawn && w.drain_s <= 1.0;
    char line[192];
    std::snprintf(line, sizeof line,
                  "max_rps probe %8.1f req/s: p99 %8.3f ms, achieved %.3f of "
                  "drawn, drain %.3f s, refused %llu -> %s",
                  rate, p99, w.achieved_rps / drawn, w.drain_s,
                  static_cast<unsigned long long>(w.refused),
                  ok ? "pass" : "fail");
    r.notes.emplace_back(line);
    return ok;
  };
  const auto pass = [&](double rate) {
    return probe(rate) || (affordable() && probe(rate));
  };
  double lo = 0;
  double hi = start;
  while (affordable() && pass(hi)) {
    lo = hi;
    hi *= 1.5;
  }
  while (lo == 0 && affordable()) {  // `start` itself failed
    hi /= 1.5;
    if (pass(hi)) lo = hi;
  }
  while (lo > 0 && hi / lo > 1.05 && affordable()) {
    const double mid = std::sqrt(lo * hi);
    (pass(mid) ? lo : hi) = mid;
  }
  return lo;
}

Report run_serve(const Args& args, const ServeWorkload& wl,
                 e2e::Trace& trace) {
  Report r;
  const Models models = build_models(wl);
  e2e::PhaseProbe probe;
  serve::ServerConfig cfg;
  cfg.backpressure = serve::BackpressurePolicy::kReject;
  cfg.max_inflight = 1024;
  if (trace.enabled()) probe.install(cfg);

  Served served;
  std::vector<double> setup_s, plan_s, prewarm_s, add_model_s;
  for (int k = 0; k < (args.smoke ? 1 : kSetups); ++k) {
    served = Served{};  // the previous server shuts down outside the timing
    served = set_up(cfg, models, trace);
    setup_s.push_back(served.timing.total_s);
    plan_s.push_back(served.timing.plan_s);
    prewarm_s.push_back(served.timing.prewarm_s);
    add_model_s.push_back(served.timing.add_model_s);
  }
  serve::InferenceServer& server = *served.server;
  r.notes.push_back("plan of the main session:\n" +
                    server.model_plan(served.main_id).to_string());
  if (wl.mixed) {
    r.notes.push_back("plan of the int8 session:\n" +
                      server.model_plan(served.q_id).to_string());
  }
  const std::vector<e2e::Session> sessions =
      sessions_for(served, models, args.seed);
  e2e::LoadGenerator gen(server, sessions, args.seed,
                         trace.enabled() ? &probe : nullptr, trace);
  // The low rate runs 5 windows of 1/25 of the run; the high rate's windows
  // are long enough for a 1000-sample p99 and fill the other 80%.
  const double low_s = args.seconds / 25;
  const double high_s = window_seconds(args, wl.high_rps);
  const int high_windows =
      std::max(5, static_cast<int>(0.8 * args.seconds / high_s));
  const auto account = [&](const RateResult& rr) {
    r.attempted += rr.sum.attempted;
    r.failed += rr.sum.failed();
    r.correct = r.correct && rr.sum.mismatched == 0;
  };

  if (!trace.enabled()) {
    const RateResult low = run_rate(gen, wl.low_rps, 5, low_s, false);
    const RateResult high =
        run_rate(gen, wl.high_rps, high_windows, high_s, false);
    account(low);
    account(high);
    add(r.end_to_end, "setup_s", e2e::median(setup_s), "s");
    add(r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
    add(r.extra, "p50_ms.low", low.p50_ms, "ms");
    add(r.extra, "p95_ms.low", low.p95_pooled_ms, "ms");
    add(r.extra, "p50_ms.high", high.p50_ms, "ms");
    add(r.extra, "p99_ms.high", high.p99_ms, "ms");
    add(r.extra, "samples.low",
        static_cast<double>(low.sum.latency_ms.size()), "count");
    add(r.extra, "samples.high",
        static_cast<double>(high.sum.latency_ms.size()), "count");
    add(r.extra, "fail_frac", static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted), "frac");
    add(r.extra, "outputs_checked",
        static_cast<double>(low.sum.checked + high.sum.checked), "count");
    add(r.extra, "gen.late_ms.p99", percentile(high.late_ms, 0.99), "ms");
    add(r.extra, "serve.submit_us.p50", percentile(high.submit_us, 0.5), "us");
    add(r.extra, "serve.submit_us.p99", percentile(high.submit_us, 0.99),
        "us");
    add(r.extra, "serve.batch_size.mean.high", high.sum.mean_batch, "count");
    add(r.extra, "serve.batch_size.mean.low", low.sum.mean_batch, "count");
    return r;
  }

  // Traced: the low rate traced, the high rate untraced then traced (the
  // pair gives the tracing overhead), the max_rps search (untraced
  // probes), then the plan replays.
  const RateResult low = run_rate(gen, wl.low_rps, 3, low_s, true);
  const RateResult high_untraced =
      run_rate(gen, wl.high_rps, 2, high_s, false);
  const auto cache0 = nn::transform_cache_stats();
  const RateResult high = run_rate(gen, wl.high_rps, 2, high_s, true);
  const auto cache1 = nn::transform_cache_stats();
  for (const RateResult* rr : {&low, &high_untraced, &high}) account(*rr);
  // The search starts above the high rate, which sits well below the knee.
  int probes = 0;
  const double max_rps = search_max_rps(gen, args, 2 * wl.high_rps,
                                        wl.p99_limit_ms, 0.5 * args.seconds,
                                        r, probes);

  const int reps = args.smoke ? 3 : kReplayReps;
  const int root = trace.open("replay", "bench");
  const nn::ExecutionPlan& main_plan = server.model_plan(served.main_id);
  r.replays.emplace_back(
      wl.mixed ? "vgg16_d_scaled(7)" : "vgg16_d_scaled(28)",
      e2e::replay_plan(main_plan, 1, server.model_weights(served.main_id),
                       stack(sessions[0].images, kBatch), reps, trace, root));
  LayerInputs in;
  in.sgemm_gflops =
      e2e::sgemm_gflops(models.main_layers, kBatch, reps, trace, root);
  double int8_step_ms = 0;
  if (wl.mixed) {
    const nn::ExecutionPlan& q_plan = server.model_plan(served.q_id);
    r.replays.emplace_back(
        "vgg16_d_scaled(14) int8",
        e2e::replay_plan(q_plan, kBatch, server.model_weights(served.q_id),
                         stack(sessions[1].images, kBatch), reps, trace,
                         root));
    for (const e2e::StepTime& s : r.replays.back().second.steps) {
      if (s.layer == "quant") int8_step_ms += s.ms;
    }
    in.int8_layers = q_plan.int8_layers;
    in.igemm_gops =
        e2e::igemm_gops(models.q_layers, "conv5_1", kBatch, 200, trace, root);
  }
  trace.close(root);

  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  const double mean_latency = mean(high.sum.latency_ms);
  in.p50_ms = high_untraced.p50_ms;
  in.p99_ms = high_untraced.p99_ms;
  in.plan_s = e2e::median(plan_s);
  in.prewarm_s = e2e::median(prewarm_s);
  in.plan = &main_plan;
  in.cache_hit_frac = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  in.replay = &r.replays.front().second;
  in.batch_mean = high.sum.mean_batch;
  in.busy_frac = high.sum.busy_frac;
  in.refused = static_cast<double>(high.sum.refused + low.sum.refused);
  in.shed = static_cast<double>(high.sum.shed + low.sum.shed);
  in.queue_share = mean(high.sum.queue_wait_ms) / mean_latency;
  in.dispatch_share = mean(high.sum.dispatch_wait_ms) / mean_latency;
  in.exec_share = mean(high.sum.request_exec_ms) / mean_latency;
  in.overhead_frac = high.p50_ms / high_untraced.p50_ms - 1.0;
  in.max_rps = max_rps;
  add_layer_metrics(r, in);
  add(r.extra, "max_rps.probes", probes, "count");
  for (const auto& [name, replay] : r.replays) {
    if (!replay.identical) {
      r.correct = false;
      ++r.failed;
    }
  }

  add(r.extra, "serve.add_model_s", e2e::median(add_model_s), "s");
  add(r.extra, "quant.step_ms", int8_step_ms, "ms");
  for (const auto& [tag, rr] : {std::pair<const char*, const RateResult*>{
                                    "low", &low},
                                {"high", &high}}) {
    const std::string t = tag;
    add(r.extra, "serve.queue_wait_ms.p50." + t,
        percentile(rr->sum.queue_wait_ms, 0.5), "ms");
    add(r.extra, "serve.queue_wait_ms.p99." + t,
        percentile(rr->sum.queue_wait_ms, 0.99), "ms");
    add(r.extra, "serve.dispatch_wait_ms.p50." + t,
        percentile(rr->sum.dispatch_wait_ms, 0.5), "ms");
    add(r.extra, "serve.dispatch_wait_ms.p99." + t,
        percentile(rr->sum.dispatch_wait_ms, 0.99), "ms");
    add(r.extra, "serve.exec_ms.p50." + t, percentile(rr->sum.exec_ms, 0.5),
        "ms");
    add(r.extra, "serve.exec_ms.p99." + t, percentile(rr->sum.exec_ms, 0.99),
        "ms");
    add(r.extra, "serve.submit_us.p50." + t, percentile(rr->submit_us, 0.5),
        "us");
    add(r.extra, "serve.submit_us.p99." + t, percentile(rr->submit_us, 0.99),
        "us");
    add(r.extra, "gen.late_ms.p99." + t, percentile(rr->late_ms, 0.99), "ms");
    add(r.extra, "p50_ms." + t + ".traced", rr->p50_ms, "ms");
  }
  add(r.extra, "p50_ms.high.untraced", high_untraced.p50_ms, "ms");
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, ", i ? ", " : "",
                  metrics[i].name.c_str(), metrics[i].value);
    s += buf;
    s += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

void print_section(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_report(const Args& args, const Report& r) {
  std::printf("e2e_bench %s seed=%llu seconds=%g trace=%d threads=%zu "
              "sgemm=%s igemm=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, wino::runtime::ThreadPool::global().threads(),
              wino::runtime::sgemm_kernel_name(),
              wino::runtime::igemm_kernel_name());
  print_section("end-to-end:", r.end_to_end);
  print_section("per-layer:", r.per_layer);
  print_section("report:", r.extra);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  for (const auto& [model, replay] : r.replays) {
    std::printf("plan steps of %s at batch %zu (forward %.4f ms, outputs %s):\n",
                model.c_str(), kBatch, replay.forward_ms,
                replay.identical ? "identical" : "MISMATCH");
    std::printf("  %-9s %-24s %-9s %10s %12s\n", "step", "algo", "layer",
                "ms", "predicted");
    for (const e2e::StepTime& s : replay.steps) {
      std::printf("  %-9s %-24s %-9s %10.4f %12.4f\n", s.name.c_str(),
                  s.algo.c_str(), s.layer.c_str(), s.ms, s.predicted_ms);
    }
  }
  if (!r.self_ms.empty()) {
    std::printf("self time by layer (traced run):\n");
    for (const auto& [layer, ms] : r.self_ms) {
      std::printf("  %-9s %12.3f ms\n", layer.c_str(), ms);
    }
  }
  std::printf("attempted %llu, failed %llu, outputs %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "correct" : "WRONG");
}

bool write_json(const std::string& path, const Args& args, const Report& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
               "\"trace\": %d, \"correct\": %s, \"attempted\": %llu, "
               "\"failed\": %llu,\n \"end_to_end\": %s,\n \"per_layer\": %s,\n"
               " \"report\": %s,\n \"self_ms_by_layer\": {",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               json_metrics(r.end_to_end).c_str(),
               json_metrics(r.per_layer).c_str(),
               json_metrics(r.extra).c_str());
  for (std::size_t i = 0; i < r.self_ms.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "",
                 r.self_ms[i].first.c_str(), r.self_ms[i].second);
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  const char* usage =
      "e2e_bench --workload <batch-b8|serve-tiny|serve-mixed> --seed <n> "
      "--seconds <s> --trace <0|1> [--smoke] [--out <path>]";
  if (!wino::common::validate_bench_args(
          argc, argv, {"--smoke"},
          {"--workload", "--seed", "--seconds", "--trace"}, usage)) {
    return false;
  }
  using wino::common::flag_value;
  a.workload = flag_value(argc, argv, "--workload", "");
  a.smoke = wino::common::has_flag(argc, argv, "--smoke");
  const std::string trace = flag_value(argc, argv, "--trace", "0");
  try {
    std::size_t used = 0;
    const std::string seed = flag_value(argc, argv, "--seed", "1");
    a.seed = std::stoull(seed, &used);
    if (used != seed.size()) throw std::invalid_argument("seed");
    const std::string secs = flag_value(argc, argv, "--seconds", "30");
    a.seconds = std::stod(secs, &used);
    if (used != secs.size() || !(a.seconds > 0)) {
      throw std::invalid_argument("seconds");
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: --seed needs an integer and --seconds a "
                         "positive number\nusage: %s\n", usage);
    return false;
  }
  if ((trace != "0" && trace != "1") ||
      (a.workload != "batch-b8" && a.workload != kServeTiny.name &&
       a.workload != kServeMixed.name)) {
    std::fprintf(stderr, "error: unknown --workload or --trace value\n"
                         "usage: %s\n", usage);
    return false;
  }
  a.trace = trace == "1";
  if (a.smoke) a.seconds = std::min(a.seconds, 2.0);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  e2e::Trace trace(args.trace);
  const double probe_start = host_probe_ms();
  Report r = args.workload == "batch-b8" ? run_batch(args, trace)
             : args.workload == kServeTiny.name
                 ? run_serve(args, kServeTiny, trace)
                 : run_serve(args, kServeMixed, trace);
  add(r.extra, "host.probe_ms.start", probe_start, "ms");
  add(r.extra, "host.probe_ms.end", host_probe_ms(), "ms");
  if (args.trace) {
    r.self_ms = trace.self_ms_by_layer();
    // argc 1: no --out to honour, so the file lands next to the binary.
    const std::string path = wino::common::bench_output_path(
        1, argv, "trace-" + args.workload + ".json");
    if (!trace.write_chrome(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n", trace.size(), path.c_str());
  }
  print_report(args, r);
  const std::string out = wino::common::bench_output_path(
      argc, argv,
      "e2e-" + args.workload + "-trace" + (args.trace ? "1" : "0") + ".json");
  if (!write_json(out, args, r)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              json_metrics(args.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
