// Single- vs multi-thread throughput of the batch-parallel nn::forward on
// a VGG-style conv stack. Also asserts the determinism contract: every
// thread count must produce bit-identical outputs.
//
// Usage: runtime_scaling [--out <path>]
//   Emits BENCH_runtime_scaling.json next to the binary (or at --out).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_io.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "nn/forward.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wino::tensor::Tensor4f;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time one call of `fn`, which returns the output tensor for verification.
template <typename Fn>
std::pair<double, Tensor4f> timed(Fn&& fn) {
  const auto t0 = Clock::now();
  Tensor4f out = fn();
  return {seconds_since(t0), std::move(out)};
}

}  // namespace

int main(int argc, char** argv) {
  if (!wino::common::validate_bench_args(
          argc, argv, {}, "runtime_scaling [--out <path>]")) {
    return 2;
  }
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  struct Point {
    std::size_t threads;
    double rate;
    double speedup;
  };
  std::vector<Point> fwd_points;

  // --- Batch-parallel forward on a scaled VGG16-D stack ------------------
  const auto layers = wino::nn::vgg16_d_scaled(7, 8);  // 32x32 input
  const auto weights = wino::nn::random_weights(layers, 7);
  constexpr std::size_t kBatch = 8;
  wino::common::Rng rng(11);
  Tensor4f batch(kBatch, 3, 32, 32);
  rng.fill_uniform(batch.flat(), -1.0F, 1.0F);

  std::printf("runtime_scaling — threads vs throughput (1 CPU core caps\n");
  std::printf("real speedup at the machine's core count)\n\n");

  wino::common::TextTable fwd;
  fwd.header({"Threads", "forward img/s", "speedup", "max|diff| vs 1T"});
  double fwd_base = 0;
  Tensor4f fwd_ref;
  double fwd_speedup_at4 = 0;
  for (const std::size_t t : thread_counts) {
    wino::runtime::ThreadPool::set_global_threads(t);
    auto [sec, out] = timed([&] {
      return wino::nn::forward(layers, weights, batch,
                               wino::nn::ConvAlgo::kIm2col);
    });
    if (t == 1) {
      fwd_base = sec;
      fwd_ref = out;
    }
    const double diff = wino::tensor::max_abs_diff(fwd_ref, out);
    if (t == 4) fwd_speedup_at4 = fwd_base / sec;
    fwd_points.push_back(
        {t, static_cast<double>(kBatch) / sec, fwd_base / sec});
    fwd.row({std::to_string(t),
             wino::common::TextTable::num(static_cast<double>(kBatch) / sec),
             wino::common::TextTable::num(fwd_base / sec),
             wino::common::TextTable::num(diff, 6)});
    if (diff != 0.0F) {
      std::printf("DETERMINISM VIOLATION at %zu threads\n", t);
      return 1;
    }
  }
  fwd.print();
  std::printf("\n");

  std::printf("forward speedup at 4 threads: %.2fx\n", fwd_speedup_at4);

  // --- BENCH_runtime_scaling.json ----------------------------------------
  const std::string json_path = wino::common::bench_output_path(
      argc, argv, "BENCH_runtime_scaling.json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not open %s for writing\n",
                json_path.c_str());
    return 0;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"runtime_scaling\",\n"
               "  \"forward_img_per_s\": [\n");
  for (std::size_t i = 0; i < fwd_points.size(); ++i) {
    std::fprintf(json,
                 "    {\"threads\": %zu, \"rate_per_s\": %.4f, "
                 "\"speedup\": %.4f}%s\n",
                 fwd_points[i].threads, fwd_points[i].rate,
                 fwd_points[i].speedup,
                 i + 1 < fwd_points.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"deterministic\": true\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
