// google-benchmark microbenchmarks of the software convolution kernels:
// spatial vs im2col+GEMM vs FFT vs Winograd F(2..4), on a VGG16-D-shaped
// (scaled) layer. This is the software-side analogue of the paper's
// arithmetic-complexity argument: Winograd's advantage should track the
// multiplication-count reduction of Fig 1, and FFT should only pay off for
// large kernels (the paper's Section II-C argument against FFT for 3x3).
// BM_PlanExecution times the per-layer planner's cold set-up.
#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "conv/fft.hpp"
#include "conv/im2col.hpp"
#include "conv/spatial.hpp"
#include "nn/network.hpp"
#include "nn/plan.hpp"
#include "tensor/tensor.hpp"
#include "winograd/kernels.hpp"

namespace {

using wino::tensor::Tensor4f;

struct LayerData {
  Tensor4f input;
  Tensor4f kernels;
};

LayerData make_layer(std::size_t hw, std::size_t c, std::size_t k) {
  wino::common::Rng rng(7);
  LayerData d{Tensor4f(1, c, hw, hw), Tensor4f(k, c, 3, 3)};
  rng.fill_uniform(d.input.flat());
  rng.fill_uniform(d.kernels.flat());
  return d;
}

// A conv3_x-shaped tile of work, scaled to keep iterations sub-second:
// 28x28, 32 channels, 32 kernels.
constexpr std::size_t kHw = 28;
constexpr std::size_t kC = 32;
constexpr std::size_t kK = 32;

void BM_SpatialConv(benchmark::State& state) {
  const LayerData d = make_layer(kHw, kC, kK);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wino::conv::conv2d_spatial(d.input, d.kernels, {.pad = 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kHw * kHw * kC * kK * 9);
}
BENCHMARK(BM_SpatialConv)->Unit(benchmark::kMillisecond);

void BM_Im2colConv(benchmark::State& state) {
  const LayerData d = make_layer(kHw, kC, kK);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wino::conv::conv2d_im2col(d.input, d.kernels, {.pad = 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kHw * kHw * kC * kK * 9);
}
BENCHMARK(BM_Im2colConv)->Unit(benchmark::kMillisecond);

void BM_FftConv(benchmark::State& state) {
  const LayerData d = make_layer(kHw, kC, kK);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wino::conv::conv2d_fft(d.input, d.kernels, {.pad = 1}));
  }
}
BENCHMARK(BM_FftConv)->Unit(benchmark::kMillisecond);

void BM_WinogradConv(benchmark::State& state) {
  const LayerData d = make_layer(kHw, kC, kK);
  const int m = static_cast<int>(state.range(0));
  const wino::winograd::TileTransformer xf(wino::winograd::transforms(m, 3));
  wino::winograd::WinogradConvOptions opt;
  opt.pad = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wino::winograd::conv2d_winograd(d.input, d.kernels, xf, opt));
  }
  state.SetLabel("F(" + std::to_string(m) + "x" + std::to_string(m) +
                 ",3x3)");
}
BENCHMARK(BM_WinogradConv)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The FFT-vs-kernel-size crossover (paper Section II-C): a single-channel
// convolution at growing kernel size r on a 64x64 image.
void BM_SpatialLargeKernel(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  wino::common::Rng rng(9);
  Tensor4f input(1, 4, 64, 64);
  Tensor4f kernels(4, 4, r, r);
  rng.fill_uniform(input.flat());
  rng.fill_uniform(kernels.flat());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wino::conv::conv2d_spatial(input, kernels, {.pad = 0}));
  }
}
BENCHMARK(BM_SpatialLargeKernel)->Arg(3)->Arg(7)->Arg(11)
    ->Unit(benchmark::kMillisecond);

void BM_FftLargeKernel(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  wino::common::Rng rng(9);
  Tensor4f input(1, 4, 64, 64);
  Tensor4f kernels(4, 4, r, r);
  rng.fill_uniform(input.flat());
  rng.fill_uniform(kernels.flat());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wino::conv::conv2d_fft(input, kernels, {.pad = 0}));
  }
}
BENCHMARK(BM_FftLargeKernel)->Arg(3)->Arg(7)->Arg(11)
    ->Unit(benchmark::kMillisecond);

// Transform-stage cost per tile, the hardware's critical path components:
// one call of a TileTransformer method on a random tile of F(m, 3).
// F(2..4, 3) run the fixed-bound sandwich, F(5..7, 3) the runtime loop.
enum class Stage { kData, kInverse, kFilter };

void run_transform(benchmark::State& state, Stage stage) {
  using wino::winograd::TileTransformer;
  const int m = static_cast<int>(state.range(0));
  const TileTransformer xf(wino::winograd::transforms(m, 3));
  const auto n = static_cast<std::size_t>(xf.tile());
  const auto mm = static_cast<std::size_t>(m);
  std::vector<float> in(stage == Stage::kFilter ? 9 : n * n);
  std::vector<float> out(stage == Stage::kInverse ? mm * mm : n * n);
  wino::common::Rng rng(11);
  rng.fill_uniform(in);
  const auto method =
      stage == Stage::kData      ? &TileTransformer::transform_data
      : stage == Stage::kInverse ? &TileTransformer::inverse
                                 : &TileTransformer::transform_filter;
  for (auto _ : state) {
    (xf.*method)(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("F(" + std::to_string(m) + ",3)");
}

void BM_TransformData(benchmark::State& state) {
  run_transform(state, Stage::kData);
}
BENCHMARK(BM_TransformData)->DenseRange(2, 7)->Unit(benchmark::kNanosecond);

void BM_TransformInverse(benchmark::State& state) {
  run_transform(state, Stage::kInverse);
}
BENCHMARK(BM_TransformInverse)->DenseRange(2, 7)
    ->Unit(benchmark::kNanosecond);

void BM_TransformFilter(benchmark::State& state) {
  run_transform(state, Stage::kFilter);
}
BENCHMARK(BM_TransformFilter)->DenseRange(2, 7)
    ->Unit(benchmark::kNanosecond);

// Cold planning: plan_execution over vgg16_d_scaled(7, 8) (32x32 input)
// with the layer timing cache cleared before every iteration. At batch 1
// each candidate is timed the way one image runs (im2col across the
// pool); at batch 8 the distinct shapes are timed concurrently, one per
// pool thread. Wall time, since the batch-8 form spans the pool.
void BM_PlanExecution(benchmark::State& state) {
  const auto layers = wino::nn::vgg16_d_scaled(7, 8);
  wino::nn::PlannerOptions opts;
  opts.batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    wino::nn::clear_measured_state();
    benchmark::DoNotOptimize(wino::nn::plan_execution(layers, opts));
  }
  wino::nn::clear_measured_state();
  state.SetLabel("batch " + std::to_string(opts.batch));
}
BENCHMARK(BM_PlanExecution)->Arg(1)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
