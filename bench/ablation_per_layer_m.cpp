// Ablation C — per-layer algorithm selection, now executed for real.
//
// The paper deploys ONE engine (one m) for the whole network; ROADMAP
// queued per-layer mixed-m selection. This bench drives nn::plan_execution (the cost-model planner calibrated by
// the one-shot microbenchmark probe) over the scaled VGG16-D stack and
// measures what the planned per-layer mix buys over the best *uniform*
// algorithm — same executor, same transform cache, interleaved paired
// reps so drift cancels. The planned run must also be bit-identical to
// composing the same per-layer algorithms through the reference path (nn::forward_reference), which is the executor's
// determinism contract.
//
// Emits BENCH_plan.json next to the binary (or at --out); the
// speedup_planned_vs_uniform and bit_identical fields carry the CI gate's
// verdict (bench/baselines/BENCH_plan_baseline.json).
//
// Usage: ablation_per_layer_m [--quick] [--algo <name>]
//                             [--cal-cache <path>] [--out <path>]
//   --algo       restrict the uniform comparison to one algorithm
//                (default: im2col and Winograd m in {2, 3, 4}); parsed by
//                nn::parse_conv_algo, e.g. "w4" or "winograd-F(4x4,3x3)".
//   --cal-cache  winocal measurement cache (default: winocal.cache next
//                to the JSON artifact). When the file is warm — present
//                and keyed to this machine + build — the planner scores
//                from it and NO layer microbenchmark re-runs; when cold,
//                the probe measurements are persisted there for the next
//                run. The header line states which mode this run used.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/calibration_io.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wino::tensor::Tensor4f;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> samples) {
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// Resident-set size from /proc/self/status (Linux; -1 elsewhere): the
/// measured, machine-dependent companion to the memory plan's
/// deterministic peak_bytes — reported for context, not gated.
long long vm_rss_bytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
#else
  return -1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {"--quick"}, {"--algo", "--cal-cache"},
          "ablation_per_layer_m [--quick] [--algo <name>] "
          "[--cal-cache <path>] [--out <path>]")) {
    return 2;
  }
  const bool quick = wino::common::has_flag(argc, argv, "--quick");
  const std::string algo_flag =
      wino::common::flag_value(argc, argv, "--algo", "");

  const std::size_t scale = quick ? 14 : 7;
  const std::size_t hw = 224 / scale;
  const auto layers = wino::nn::vgg16_d_scaled(scale, 8);
  const auto weights = wino::nn::random_weights(layers, 7);
  const std::size_t batch = 8;
  const int reps = quick ? 7 : 9;  // plus one discarded cold rep

  std::vector<wino::nn::ConvAlgo> uniform_algos;
  if (!algo_flag.empty()) {
    try {
      uniform_algos.push_back(wino::nn::parse_conv_algo(algo_flag));
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "error: %s\n", err.what());
      return 2;
    }
  } else {
    uniform_algos = {
        wino::nn::ConvAlgo::kIm2col, wino::nn::ConvAlgo::kWinograd2,
        wino::nn::ConvAlgo::kWinograd3, wino::nn::ConvAlgo::kWinograd4};
  }

  wino::common::Rng rng(11);
  Tensor4f input(batch, 3, hw, hw);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);

  // Honor an on-disk winocal cache before planning: a warm cache (same
  // machine, same build) feeds every per-layer score, so NO layer
  // microbenchmark re-runs — previously this bench silently re-measured
  // every (layer, candidate) pair on every invocation even with the cache
  // sitting next to the artifact.
  std::string cal_cache =
      wino::common::flag_value(argc, argv, "--cal-cache", "");
  if (cal_cache.empty()) {
    const std::filesystem::path out(
        wino::common::bench_output_path(argc, argv, "winocal.cache"));
    cal_cache = out.has_parent_path()
                    ? (out.parent_path() / "winocal.cache").string()
                    : std::string("winocal.cache");
  }
  const bool cal_warm = wino::nn::load_measured_state(cal_cache);
  std::printf("calibration source: %s (%s)\n",
              cal_warm ? "warm winocal cache — no microbenchmarks re-run"
                       : "cold probe — measuring every layer candidate",
              cal_cache.c_str());

  // Plan in the default measured mode: each candidate is timed at each
  // layer's exact geometry (cached per process). The two-anchor
  // calibration below does NOT drive these decisions — it is the analytic
  // model's probe, reported for context alongside the plan.
  const wino::nn::Calibration& cal = wino::nn::measured_calibration();
  wino::nn::PlannerOptions opts;
  opts.batch = batch;
  const wino::nn::ExecutionPlan plan =
      wino::nn::plan_execution(layers, opts);
  if (!cal_warm && wino::nn::save_measured_state(cal_cache)) {
    std::printf("calibration persisted to %s for the next run\n", cal_cache.c_str());
  }

  std::printf("ablation_per_layer_m — cost-model planner vs best uniform "
              "algorithm\nscaled VGG16-D (%zux%zu input, batch %zu), %d "
              "interleaved reps, %zu threads\n",
              hw, hw, batch, reps,
              wino::runtime::ThreadPool::global().threads());
  std::printf("calibration (GFLOP/s big/small probe): spatial %.2f/%.2f, "
              "im2col %.2f/%.2f, fft %.2f/%.2f,\n  winograd m=2 %.2f/%.2f, "
              "m=3 %.2f/%.2f, m=4 %.2f/%.2f\n\n",
              cal.spatial.gflops_big, cal.spatial.gflops_small,
              cal.im2col.gflops_big, cal.im2col.gflops_small,
              cal.fft.gflops_big, cal.fft.gflops_small,
              cal.winograd2.gflops_big, cal.winograd2.gflops_small,
              cal.winograd3.gflops_big, cal.winograd3.gflops_small,
              cal.winograd4.gflops_big, cal.winograd4.gflops_small);

  // Per-layer decisions.
  wino::common::TextTable plan_table;
  plan_table.header({"layer", "planned algo", "predicted ms"});
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != wino::nn::LayerKind::kConv) continue;
    const auto& step = plan.steps[i];
    plan_table.row(
        {layers[i].conv.name, wino::nn::to_string(step.algo),
         wino::common::TextTable::num(step.predicted_ms, 3)});
  }
  plan_table.print();
  std::printf("\nplan: %s\n\n", plan.uniform() ? "uniform" : "mixed");

  // One execution recipe per mode: index 0 is the planned mix, the rest
  // are the uniform plans it is raced against.
  std::vector<wino::nn::ExecutionPlan> modes{plan};
  std::vector<std::string> mode_names{"planned"};
  for (const auto algo : uniform_algos) {
    modes.push_back(wino::nn::uniform_plan(layers, algo));
    mode_names.push_back(wino::nn::to_string(algo));
  }

  // Warm every mode once (filter transforms land in the cross-call cache,
  // per-thread workspace slabs reach their high-water mark; neither side
  // pays them in the timed reps). RSS bracketing the warmup + timed reps
  // measures what the arena actually costs the process.
  const long long rss_before = vm_rss_bytes();
  for (const auto& m : modes) {
    (void)wino::nn::forward(m, weights, input);
  }

  // Interleaved reps with rotating mode order, so frequency/scheduler
  // drift and cache-residency ordering effects cancel in the medians. The
  // first (cold) rep is measured but discarded.
  std::vector<std::vector<double>> secs(modes.size());
  Tensor4f planned_out;
  for (int rep = 0; rep <= reps; ++rep) {
    std::vector<double> this_rep(modes.size(), 0.0);
    for (std::size_t off = 0; off < modes.size(); ++off) {
      const std::size_t mode =
          (off + static_cast<std::size_t>(rep)) % modes.size();
      const auto t0 = Clock::now();
      Tensor4f out = wino::nn::forward(modes[mode], weights, input);
      this_rep[mode] = seconds_since(t0);
      if (mode == 0) planned_out = std::move(out);
    }
    if (rep == 0) continue;
    for (std::size_t mode = 0; mode < modes.size(); ++mode) {
      secs[mode].push_back(this_rep[mode]);
    }
  }

  // Bit-identity: the planned run must reproduce the per-layer always-NCHW
  // composition of the same algorithms exactly.
  const Tensor4f reference =
      wino::nn::forward_reference(plan, weights, input);
  const bool bit_identical =
      reference.shape() == planned_out.shape() &&
      std::memcmp(reference.flat().data(), planned_out.flat().data(),
                  reference.flat().size() * sizeof(float)) == 0;

  const double planned_ms = median(secs[0]) * 1e3;
  wino::common::TextTable results;
  results.header({"mode", "median ms", "img/s", "planned speedup"});
  results.row({"planned", wino::common::TextTable::num(planned_ms, 2),
               wino::common::TextTable::num(
                   static_cast<double>(batch) / (planned_ms / 1e3)),
               "1.00"});
  double best_speedup = 1e30;
  std::string best_uniform = "-";
  std::vector<double> uniform_ms(modes.size(), 0.0);
  std::vector<double> uniform_speedup(modes.size(), 0.0);
  for (std::size_t mode = 1; mode < modes.size(); ++mode) {
    uniform_ms[mode] = median(secs[mode]) * 1e3;
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < secs[mode].size(); ++rep) {
      ratios.push_back(secs[mode][rep] / secs[0][rep]);
    }
    uniform_speedup[mode] = median(ratios);
    if (uniform_speedup[mode] < best_speedup) {
      best_speedup = uniform_speedup[mode];
      best_uniform = mode_names[mode];
    }
    results.row({mode_names[mode],
                 wino::common::TextTable::num(uniform_ms[mode], 2),
                 wino::common::TextTable::num(
                     static_cast<double>(batch) / (uniform_ms[mode] / 1e3)),
                 wino::common::TextTable::num(uniform_speedup[mode])});
  }
  results.print();

  // Planned per-worker memory: deterministic plan geometry (gated via the
  // uniform-W4 plan, whose peak is independent of the measured planner's
  // per-machine algorithm picks), plus the live RSS delta for context.
  const long long rss_delta =
      rss_before < 0 ? -1 : std::max(0LL, vm_rss_bytes() - rss_before);
  const std::size_t planned_peak =
      plan.memory.empty() ? 0 : plan.memory.peak_bytes(1);
  const std::size_t w4_peak =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4)
          .memory.peak_bytes(1);
  std::printf("\nplanned slab peak: %.1f KiB/image (uniform w4: %.1f KiB); "
              "measured RSS delta over warmup+reps: %.1f KiB\n",
              static_cast<double>(planned_peak) / 1024.0,
              static_cast<double>(w4_peak) / 1024.0,
              static_cast<double>(rss_delta) / 1024.0);

  std::printf("\nplanned vs best uniform (%s): %.3fx (%s); planned vs "
              "reference composition: %s\n",
              best_uniform.c_str(), best_speedup,
              best_speedup >= 1.0 ? "planned wins or ties"
                                  : "UNIFORM WINS — planner regression",
              bit_identical ? "bit-identical" : "MISMATCH");
  if (!bit_identical) return 1;

  // --- BENCH_plan.json -----------------------------------------------------
  const std::string json_path =
      wino::common::bench_output_path(argc, argv, "BENCH_plan.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"plan\",\n  \"quick\": %s,\n"
               "  \"model\": \"vgg16-d-scaled-%zu\",\n  \"batch\": %zu,\n"
               "  \"reps\": %d,\n  \"calibration_warm\": %s,\n"
               "  \"calibration_gflops_big\": {\"spatial\": %.3f, "
               "\"im2col\": %.3f, \"fft\": %.3f,\n"
               "    \"winograd2\": %.3f, \"winograd3\": %.3f, "
               "\"winograd4\": %.3f},\n"
               "  \"calibration_gflops_small\": {\"spatial\": %.3f, "
               "\"im2col\": %.3f, \"fft\": %.3f,\n"
               "    \"winograd2\": %.3f, \"winograd3\": %.3f, "
               "\"winograd4\": %.3f},\n",
               quick ? "true" : "false", scale, batch, reps,
               cal_warm ? "true" : "false",
               cal.spatial.gflops_big, cal.im2col.gflops_big,
               cal.fft.gflops_big, cal.winograd2.gflops_big,
               cal.winograd3.gflops_big, cal.winograd4.gflops_big,
               cal.spatial.gflops_small, cal.im2col.gflops_small,
               cal.fft.gflops_small, cal.winograd2.gflops_small,
               cal.winograd3.gflops_small, cal.winograd4.gflops_small);
  std::fprintf(json,
               "  \"plan\": {\"mixed\": %s,\n"
               "    \"predicted_total_ms\": %.4f,\n    \"layers\": [\n",
               plan.uniform() ? "false" : "true", plan.predicted_total_ms);
  bool first_layer = true;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != wino::nn::LayerKind::kConv) continue;
    std::fprintf(json, "%s      {\"layer\": \"%s\", \"algo\": \"%s\", "
                       "\"predicted_ms\": %.4f}",
                 first_layer ? "" : ",\n", layers[i].conv.name.c_str(),
                 wino::nn::to_string(plan.steps[i].algo).c_str(),
                 plan.steps[i].predicted_ms);
    first_layer = false;
  }
  std::fprintf(json, "\n    ]},\n  \"planned_ms\": %.4f,\n"
                     "  \"planned_img_per_s\": %.4f,\n  \"uniform\": [\n",
               planned_ms, static_cast<double>(batch) / (planned_ms / 1e3));
  for (std::size_t mode = 1; mode < modes.size(); ++mode) {
    std::fprintf(json,
                 "    {\"algo\": \"%s\", \"median_ms\": %.4f, "
                 "\"img_per_s\": %.4f, \"speedup_planned_vs_this\": %.4f}%s\n",
                 mode_names[mode].c_str(), uniform_ms[mode],
                 static_cast<double>(batch) / (uniform_ms[mode] / 1e3),
                 uniform_speedup[mode],
                 mode + 1 < modes.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"memory\": {\"planned_peak_bytes_per_image\": %zu,\n"
               "    \"uniform_w4_peak_bytes_per_image\": %zu,\n"
               "    \"measured_rss_delta_bytes\": %lld},\n",
               planned_peak, w4_peak, rss_delta);
  std::fprintf(json,
               "  \"best_uniform_algo\": \"%s\",\n"
               "  \"speedup_planned_vs_uniform\": %.4f,\n"
               "  \"bit_identical\": %s\n}\n",
               best_uniform.c_str(), best_speedup,
               bit_identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
