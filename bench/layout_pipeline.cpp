// Layout-planned vs always-NCHW activation flow through the VGG-16 layer
// chain: what eliding the NCHW round-trip between Winograd layers
// (tile-form handoffs + ReLU fused into the output scatter) buys over
// materialising NCHW at every layer boundary. Both sides run the one plan
// executor, nn::forward(plan): the uniform plan as the layout pass builds
// it, and the same plan with every step forced to an NCHW output and an
// unfused ReLU. Both outputs are memcmp-checked against forward_reference,
// so the delta is pure data-movement cost.
//
// Emits BENCH_layout.json next to the binary (or at --out); the
// elided_beats_nchw field carries the CI gate's verdict
// (bench/baselines/BENCH_layout_baseline.json).
//
// Usage: layout_pipeline [--quick] [--out <path>]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
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

struct AlgoResult {
  std::string algo;
  double nchw_img_per_s = 0;
  double elided_img_per_s = 0;
  double speedup = 0;  // median of paired per-rep time ratios
  std::size_t elided_boundaries = 0;
  std::size_t boundaries = 0;
  bool bit_identical = false;
};

bool same_bits(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

/// The uniform plan with every boundary materialised in NCHW and ReLU run
/// as a separate pass — the always-NCHW data flow on the same executor.
wino::nn::ExecutionPlan nchw_plan(wino::nn::ExecutionPlan plan) {
  for (wino::nn::LayerPlan& step : plan.steps) {
    step.output_kind = wino::tensor::LayoutKind::kNCHW;
    step.out_tile_m = 0;
    step.fused_relu = false;
  }
  plan.memory = wino::nn::build_memory_plan(plan);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {"--quick"},
          "layout_pipeline [--quick] [--out <path>]")) {
    return 2;
  }
  const bool quick = wino::common::has_flag(argc, argv, "--quick");

  // The scaled VGG16-D chain: all 13 conv layers (the elision target),
  // pools and the classifier head. --quick halves the resolution.
  const std::size_t scale = quick ? 14 : 7;
  const std::size_t hw = 224 / scale;
  const auto layers = wino::nn::vgg16_d_scaled(scale, 8);
  const auto weights = wino::nn::random_weights(layers, 7);
  const std::size_t batch = 8;
  // One extra rep runs cold and is discarded: even after the explicit
  // warm-up, the first timed pair occasionally carries one-off allocator /
  // icache effects that would pollute a 9-sample median.
  const int reps = quick ? 9 : 11;

  wino::common::Rng rng(11);
  Tensor4f input(batch, 3, hw, hw);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);

  std::printf("layout_pipeline — layout-planned vs always-NCHW activation "
              "flow\nscaled VGG16-D (%zux%zu input, batch %zu), %d "
              "interleaved reps, %zu threads\n\n",
              hw, hw, batch, reps,
              wino::runtime::ThreadPool::global().threads());

  const std::vector<wino::nn::ConvAlgo> algos = {
      wino::nn::ConvAlgo::kWinograd2, wino::nn::ConvAlgo::kWinograd4};

  std::vector<AlgoResult> results;
  std::vector<double> all_ratios;
  bool all_identical = true;
  for (const auto algo : algos) {
    const wino::nn::ExecutionPlan elided_plan =
        wino::nn::uniform_plan(layers, algo);
    const wino::nn::ExecutionPlan flat_plan = nchw_plan(elided_plan);
    AlgoResult r;
    r.algo = wino::nn::to_string(algo);
    r.elided_boundaries =
        elided_plan.boundaries - elided_plan.nchw_boundaries;
    r.boundaries = elided_plan.boundaries;

    // Warm the transform cache and both workspaces so neither mode pays
    // filter transforms or slab growth.
    Tensor4f out_nchw;
    Tensor4f out_elided;
    wino::nn::forward(flat_plan, weights, input, out_nchw);
    wino::nn::forward(elided_plan, weights, input, out_elided);

    // Interleave the two modes so frequency/scheduler drift hits both
    // alike, and alternate which mode runs first each rep so ordering
    // effects (allocator arenas, cache residency left by the previous
    // call) cancel in the median instead of biasing one side. The first
    // (cold) pair is measured but discarded.
    std::vector<double> nchw_secs;
    std::vector<double> elided_secs;
    const auto time_nchw = [&] {
      const auto t0 = Clock::now();
      wino::nn::forward(flat_plan, weights, input, out_nchw);
      return seconds_since(t0);
    };
    const auto time_elided = [&] {
      const auto t0 = Clock::now();
      wino::nn::forward(elided_plan, weights, input, out_elided);
      return seconds_since(t0);
    };
    for (int rep = 0; rep <= reps; ++rep) {
      double nchw_s = 0;
      double elided_s = 0;
      if (rep % 2 == 0) {
        nchw_s = time_nchw();
        elided_s = time_elided();
      } else {
        elided_s = time_elided();
        nchw_s = time_nchw();
      }
      if (rep == 0) continue;  // cold pair
      nchw_secs.push_back(nchw_s);
      elided_secs.push_back(elided_s);
    }
    const Tensor4f reference =
        wino::nn::forward_reference(elided_plan, weights, input);
    r.bit_identical =
        same_bits(out_nchw, reference) && same_bits(out_elided, reference);
    all_identical = all_identical && r.bit_identical;

    r.nchw_img_per_s = static_cast<double>(batch) / median(nchw_secs);
    r.elided_img_per_s = static_cast<double>(batch) / median(elided_secs);
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
      ratios.push_back(nchw_secs[rep] / elided_secs[rep]);
      all_ratios.push_back(ratios.back());
    }
    r.speedup = median(ratios);
    results.push_back(r);
  }

  wino::common::TextTable table;
  table.header({"algo", "nchw img/s", "elided img/s", "speedup",
                "elided/boundaries", "bit-identical"});
  for (const AlgoResult& r : results) {
    table.row({r.algo, wino::common::TextTable::num(r.nchw_img_per_s),
               wino::common::TextTable::num(r.elided_img_per_s),
               wino::common::TextTable::num(r.speedup),
               std::to_string(r.elided_boundaries) + "/" +
                   std::to_string(r.boundaries),
               r.bit_identical ? "yes" : "NO"});
  }
  table.print();

  const double overall = median(all_ratios);
  const bool elided_wins = overall > 1.0;
  std::printf("\nelided vs always-NCHW speedup (median of %zu paired "
              "reps): %.3fx (%s)\n",
              all_ratios.size(), overall,
              elided_wins ? "elided wins" : "NCHW faster");
  if (!all_identical) {
    std::printf("BIT-IDENTITY VIOLATION against forward_reference\n");
    return 1;
  }

  // --- BENCH_layout.json ---------------------------------------------------
  const std::string json_path =
      wino::common::bench_output_path(argc, argv, "BENCH_layout.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"layout_pipeline\",\n  \"quick\": %s,\n"
               "  \"model\": \"vgg16-d-scaled-%zu\",\n  \"batch\": %zu,\n"
               "  \"reps\": %d,\n  \"algos\": [\n",
               quick ? "true" : "false", scale, batch, reps);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AlgoResult& r = results[i];
    std::fprintf(
        json,
        "    {\"algo\": \"%s\", \"nchw_img_per_s\": %.4f,\n"
        "     \"elided_img_per_s\": %.4f, \"speedup\": %.4f,\n"
        "     \"elided_boundaries\": %zu, \"boundaries\": %zu, "
        "\"bit_identical\": %s}%s\n",
        r.algo.c_str(), r.nchw_img_per_s, r.elided_img_per_s, r.speedup,
        r.elided_boundaries, r.boundaries,
        r.bit_identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"speedup_elided_vs_nchw\": %.4f,\n"
               "  \"elided_beats_nchw\": %s,\n  \"deterministic\": %s\n}\n",
               overall, elided_wins ? "true" : "false",
               all_identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
