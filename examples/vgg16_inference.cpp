// End-to-end CNN inference with swappable convolution engines.
//
// Runs a spatially scaled VGG16-D (same layer structure and channel
// progression as the paper's workload, reduced resolution/channels so it
// finishes in seconds) with every convolution algorithm in the library,
// verifying that the logits agree and reporting wall-clock time per
// algorithm — the software analogue of the paper's engine comparison.
// Spatial and FFT have no plan-executor step, so their rows run the
// per-layer reference composition (nn::forward_reference).
//
// Usage: ./examples/vgg16_inference [scale] [channel_div] [threads] [algo]
//   scale       divides the 224x224 input (default 7 -> 32x32)
//   channel_div divides the channel counts (default 8)
//   threads     runtime thread-pool size (default: WINO_THREADS or cores)
//   algo        run only this algorithm against the spatial reference
//               (nn::parse_conv_algo names, e.g. "w4"); default: all, plus
//               the cost-model planner's per-layer mix.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"

int main(int argc, char** argv) {
  const std::size_t scale =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 7;
  const std::size_t channel_div =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;
  if (argc > 3) {
    const int threads = std::atoi(argv[3]);
    if (threads < 1) {
      std::fprintf(stderr, "threads must be a positive integer, got '%s'\n",
                   argv[3]);
      return 1;
    }
    wino::runtime::ThreadPool::set_global_threads(
        static_cast<std::size_t>(threads));
  }
  std::optional<wino::nn::ConvAlgo> only;
  if (argc > 4) {
    try {
      only = wino::nn::parse_conv_algo(argv[4]);
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "%s\n", err.what());
      return 1;
    }
  }

  const auto layers = wino::nn::vgg16_d_scaled(scale, channel_div);
  const auto weights = wino::nn::random_weights(layers, 42);

  wino::tensor::Tensor4f input(1, 3, 224 / scale, 224 / scale);
  wino::common::Rng rng(7);
  rng.fill_uniform(input.flat());

  std::printf("VGG16-D (scaled 1/%zu, channels 1/%zu): input %zux%zu, "
              "%zu layers, %zu threads\n\n",
              scale, channel_div, input.shape().h, input.shape().w,
              layers.size(), wino::runtime::ThreadPool::global().threads());

  using Clock = std::chrono::steady_clock;
  const auto run = [&](wino::nn::ConvAlgo algo) {
    const auto t0 = Clock::now();
    const auto plan = wino::nn::uniform_plan(layers, algo);
    auto out = wino::nn::is_plannable(algo)
                   ? wino::nn::forward(plan, weights, input)
                   : wino::nn::forward_reference(plan, weights, input);
    const auto dt = std::chrono::duration<double, std::milli>(
        Clock::now() - t0);
    return std::pair{std::move(out), dt.count()};
  };

  const auto [ref, ref_ms] = run(wino::nn::ConvAlgo::kSpatial);
  const float ref_scale = std::max(1.0F, wino::tensor::max_abs(ref));

  wino::common::TextTable t;
  t.header({"Algorithm", "time (ms)", "speedup", "max rel err vs spatial"});
  t.row({"spatial", wino::common::TextTable::num(ref_ms, 1), "1.00", "-"});
  std::vector<wino::nn::ConvAlgo> algos;
  if (only) {
    algos = {*only};
  } else {
    algos = {wino::nn::ConvAlgo::kIm2col, wino::nn::ConvAlgo::kFft,
             wino::nn::ConvAlgo::kWinograd2, wino::nn::ConvAlgo::kWinograd3,
             wino::nn::ConvAlgo::kWinograd4};
  }
  for (const auto algo : algos) {
    const auto [out, ms] = run(algo);
    const float err = wino::tensor::max_abs_diff(out, ref) / ref_scale;
    t.row({wino::nn::to_string(algo), wino::common::TextTable::num(ms, 1),
           wino::common::TextTable::num(ref_ms / ms, 2),
           wino::common::TextTable::num(static_cast<double>(err), 7)});
  }
  if (!only) {
    // The execution planner's per-layer mix (measured microbenchmark
    // scoring; timings are cached per process).
    const auto plan = wino::nn::plan_execution(layers);
    const auto t0 = Clock::now();
    const auto out = wino::nn::forward(plan, weights, input);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const float err = wino::tensor::max_abs_diff(out, ref) / ref_scale;
    t.row({plan.uniform() ? "planned (uniform)" : "planned (mixed)",
           wino::common::TextTable::num(ms, 1),
           wino::common::TextTable::num(ref_ms / ms, 2),
           wino::common::TextTable::num(static_cast<double>(err), 7)});
  }
  t.print();

  // Top prediction, to show the classifier head end to end.
  std::size_t best = 0;
  for (std::size_t i = 1; i < ref.shape().c; ++i) {
    if (ref(0, i, 0, 0) > ref(0, best, 0, 0)) best = i;
  }
  std::printf("\nargmax logit: class %zu (%.4f) — identical across "
              "algorithms by the error bound above\n",
              best, static_cast<double>(ref(0, best, 0, 0)));
  return 0;
}
