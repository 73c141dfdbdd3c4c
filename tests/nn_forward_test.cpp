#include "nn/forward.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "nn/plan.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::nn {
namespace {

using common::Rng;
using tensor::Tensor4f;

TEST(Relu, ClampsNegatives) {
  Tensor4f t(1, 1, 1, 4);
  t(0, 0, 0, 0) = -1.0F;
  t(0, 0, 0, 1) = 0.0F;
  t(0, 0, 0, 2) = 2.5F;
  t(0, 0, 0, 3) = -0.1F;
  relu_inplace(t);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 1), 0.0F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 2), 2.5F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 3), 0.0F);
}

TEST(MaxPool, TwoByTwo) {
  Tensor4f t(1, 1, 4, 4);
  float v = 0.0F;
  for (auto& x : t.flat()) x = v++;
  const Tensor4f p = maxpool2x2(t);
  EXPECT_EQ(p.shape().h, 2u);
  EXPECT_EQ(p.shape().w, 2u);
  EXPECT_FLOAT_EQ(p(0, 0, 0, 0), 5.0F);
  EXPECT_FLOAT_EQ(p(0, 0, 1, 1), 15.0F);
}

TEST(MaxPool, RejectsTinyInput) {
  const Tensor4f t(1, 1, 1, 4);
  EXPECT_THROW(maxpool2x2(t), std::invalid_argument);
}

TEST(FullyConnected, SmallExact) {
  Tensor4f x(1, 3, 1, 1);
  x(0, 0, 0, 0) = 1.0F;
  x(0, 1, 0, 0) = 2.0F;
  x(0, 2, 0, 0) = 3.0F;
  const std::vector<float> w{1, 0, 0, 0, 1, 1};  // 2x3
  const std::vector<float> b{0.5F, -0.5F};
  const Tensor4f y = fully_connected(x, w, b, 2);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 1.5F);
  EXPECT_FLOAT_EQ(y(0, 1, 0, 0), 4.5F);
}

TEST(FullyConnected, SizeMismatchThrows) {
  const Tensor4f x(1, 3, 1, 1);
  EXPECT_THROW(fully_connected(x, std::vector<float>(5), {0.0F}, 1),
               std::invalid_argument);
}

TEST(Forward, AllAlgorithmsAgreeOnScaledVgg) {
  // End-to-end inference on a scaled-down VGG16-D: all conv algorithms
  // must produce (numerically) the same logits. Spatial and FFT have no
  // plan step, so the reference composition runs them.
  const auto layers = vgg16_d_scaled(/*scale=*/7, /*channel_div=*/16);
  const WeightBank weights = random_weights(layers, 42);
  Tensor4f input(1, 3, 32, 32);
  Rng rng(17);
  rng.fill_uniform(input.flat());

  const Tensor4f ref = forward_reference(
      uniform_plan(layers, ConvAlgo::kSpatial), weights, input);
  ASSERT_GT(tensor::max_abs(ref), 0.0F);
  for (const ConvAlgo algo :
       {ConvAlgo::kIm2col, ConvAlgo::kFft, ConvAlgo::kWinograd2,
        ConvAlgo::kWinograd3, ConvAlgo::kWinograd4}) {
    const Tensor4f got =
        algo == ConvAlgo::kFft
            ? forward_reference(uniform_plan(layers, algo), weights, input)
            : forward(layers, weights, input, algo);
    ASSERT_EQ(got.shape(), ref.shape()) << to_string(algo);
    const float rel = tensor::max_abs_diff(got, ref) /
                      std::max(1.0F, tensor::max_abs(ref));
    EXPECT_LE(rel, 2e-3F) << to_string(algo);
  }
}

TEST(Forward, ScaledVggShapeInference) {
  const auto layers = vgg16_d_scaled(7, 16);
  const WeightBank weights = random_weights(layers);
  Tensor4f input(1, 3, 32, 32, 0.1F);
  const Tensor4f out = forward_reference(
      uniform_plan(layers, ConvAlgo::kSpatial), weights, input);
  EXPECT_EQ(out.shape().c, 10u);  // classifier head
  EXPECT_EQ(out.shape().h, 1u);
}

TEST(Forward, MissingWeightsThrow) {
  const auto layers = vgg16_d_scaled(7, 16);
  const WeightBank empty;
  const Tensor4f input(1, 3, 32, 32);
  EXPECT_THROW(forward(layers, empty, input, ConvAlgo::kIm2col),
               std::invalid_argument);
}

TEST(Forward, ScaledModelRejectsBadScale) {
  EXPECT_THROW(vgg16_d_scaled(5), std::invalid_argument);
  EXPECT_THROW(vgg16_d_scaled(0), std::invalid_argument);
  EXPECT_THROW(vgg16_d_scaled(7, 0), std::invalid_argument);
}

TEST(ConvAlgoNames, AllDistinct) {
  EXPECT_EQ(to_string(ConvAlgo::kWinograd4), "winograd-F(4x4,3x3)");
  EXPECT_NE(to_string(ConvAlgo::kSpatial), to_string(ConvAlgo::kIm2col));
}

TEST(TransformCache, RepeatedForwardHitsInsteadOfRetransforming) {
  const auto layers = vgg16_d_scaled(28, 16);  // 8x8 input, tiny
  const WeightBank weights = random_weights(layers, 7);
  Tensor4f input(2, 3, 8, 8);
  Rng rng(19);
  rng.fill_uniform(input.flat());

  clear_transform_cache();
  const Tensor4f first =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  const auto after_first = transform_cache_stats();
  const std::size_t conv_layers = weights.conv_kernels.size();
  EXPECT_EQ(after_first.misses, conv_layers);
  EXPECT_EQ(after_first.entries, conv_layers);

  // The serving shape: same weights, another call. No new transforms.
  const Tensor4f second =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  const auto after_second = transform_cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(tensor::max_abs_diff(first, second), 0.0F);

  // Distinct F(m) tiles are distinct cache entries, not collisions.
  forward(layers, weights, input, ConvAlgo::kWinograd4);
  EXPECT_EQ(transform_cache_stats().misses, 2 * conv_layers);
  clear_transform_cache();
  EXPECT_EQ(transform_cache_stats().entries, 0u);
}

TEST(TransformCache, BumpVersionInvalidatesStaleTransforms) {
  const auto layers = vgg16_d_scaled(28, 16);
  WeightBank weights = random_weights(layers, 9);
  Tensor4f input(1, 3, 8, 8);
  Rng rng(23);
  rng.fill_uniform(input.flat());

  clear_transform_cache();
  const Tensor4f before =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  const auto cold = transform_cache_stats();

  // Mutate a kernel in place; without a version bump the cache would keep
  // serving transforms of the old values.
  for (float& v : weights.conv_kernels[0].flat()) v *= 2.0F;
  weights.bump_version();
  const Tensor4f after =
      forward(layers, weights, input, ConvAlgo::kWinograd2);
  EXPECT_GT(transform_cache_stats().misses, cold.misses);
  EXPECT_GT(tensor::max_abs_diff(before, after), 0.0F);
}

bool same_bits(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

// Watchdog: a deadlocked std::async thread can be neither joined nor
// abandoned (the future's destructor waits for it), so a task that misses
// the deadline fails the test and ends the process instead of hanging it.
void finish_or_exit(std::future<void>& task, const char* what) {
  if (task.wait_for(std::chrono::seconds(60)) == std::future_status::ready) {
    task.get();
    return;
  }
  ADD_FAILURE() << what << " did not finish within 60 s: deadlock";
  std::fflush(stdout);
  std::_Exit(EXIT_FAILURE);
}

// A cold cache entry is built by transform_filter_bank over the global
// pool. The chunks of an in-flight batched forward take the cache mutex
// for their lookups while their caller holds the pool's job slot, so a
// build made under the cache mutex would deadlock against them. One
// thread serves plan A at batch 4 on warm weights; the other registers
// fresh weight banks (cold fp32 W2/W4 and int8 Winograd entries) and runs
// them, the add_model-while-serving shape.
TEST(TransformCache, ColdBuildWhileServingDoesNotDeadlock) {
  runtime::ThreadPool::set_global_threads(4);
  const auto layers = vgg16_d_scaled(28, 16);  // 8x8 input
  Tensor4f input(4, 3, 8, 8);
  Rng rng(29);
  rng.fill_uniform(input.flat());

  const ExecutionPlan plan_a = uniform_plan(layers, ConvAlgo::kWinograd2);
  const WeightBank warm = random_weights(layers, 31);
  const Tensor4f want_a = forward(plan_a, warm, input);  // warms A's entries

  ExecutionPlan plan_b = uniform_plan(layers, ConvAlgo::kWinograd2);
  std::size_t conv_idx = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    if (layers[li].kind != LayerKind::kConv) continue;
    plan_b.steps[li].algo = conv_idx == 1   ? ConvAlgo::kInt8Winograd2
                            : conv_idx % 2 ? ConvAlgo::kWinograd4
                                           : ConvAlgo::kWinograd2;
    ++conv_idx;
  }
  replan_layouts(plan_b);
  ASSERT_EQ(plan_b.int8_layers, 1u);

  std::atomic<bool> registered{false};
  std::atomic<std::size_t> a_mismatches{0};
  auto serving = std::async(std::launch::async, [&] {
    Tensor4f out;
    do {
      forward(plan_a, warm, input, out);
      if (!same_bits(out, want_a)) a_mismatches.fetch_add(1);
    } while (!registered.load());
  });
  std::vector<WeightBank> banks;
  std::vector<Tensor4f> outputs;
  auto registering = std::async(std::launch::async, [&] {
    struct Done {
      std::atomic<bool>& flag;
      ~Done() { flag.store(true); }  // ends the serving loop, even on a throw
    } done{registered};
    for (std::uint64_t round = 0; round < 3; ++round) {
      banks.push_back(random_weights(layers, 40 + round));
      prewarm_workspaces(plan_b, banks.back(), input.shape().n);
      outputs.push_back(forward(plan_b, banks.back(), input));
    }
  });
  finish_or_exit(registering, "registering fresh weights");
  finish_or_exit(serving, "serving plan A");

  EXPECT_EQ(a_mismatches.load(), 0u);
  for (std::size_t i = 0; i < banks.size(); ++i) {
    EXPECT_TRUE(same_bits(outputs[i], forward_reference(plan_b, banks[i],
                                                        input)))
        << "bank " << i;
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace wino::nn
