// The transform-domain tile walk contract: conv2d_winograd_layout[_into]
// walks one tile column at a time — transform the column's C channels
// once, then per kernel accumulate its n*n tile over ascending c,
// inverse-transform and scatter — and must stay BIT-identical to the
// reference walk conv2d_winograd(..., kTransformDomain) for every F(m, r)
// (the specialised n*n in {16, 25, 36} and the runtime-n fallback), pad,
// ragged extent, channel count and thread count. Also pins
// the planned forward against forward_reference and the per-model batch
// ceiling the serving layer clamps assembly to.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "nn/forward.hpp"
#include "nn/memory_plan.hpp"
#include "nn/plan.hpp"
#include "runtime/clock.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/inference_server.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"
#include "winograd/kernels.hpp"

namespace {

using wino::common::Rng;
using wino::runtime::ManualClock;
using wino::runtime::ThreadPool;
using wino::tensor::Layout;
using wino::tensor::Tensor4f;
using wino::winograd::AccumulationOrder;
using wino::winograd::conv2d_winograd;
using wino::winograd::conv2d_winograd_layout;
using wino::winograd::conv2d_winograd_layout_into;
using wino::winograd::TileTransformer;
using wino::winograd::TransformedKernels;
using wino::winograd::transforms;
using wino::winograd::WinogradConvOptions;

Tensor4f random_tensor(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w, Rng& rng) {
  Tensor4f t(n, c, h, w);
  rng.fill_uniform(t.flat());
  return t;
}

bool bit_identical(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

// -------------------------------------------------------------------------
// Geometry sweep: the walk vs the reference walk, memcmp
// -------------------------------------------------------------------------

struct Transform {
  int m;
  int r;
};

class TileWalk : public ::testing::TestWithParam<Transform> {};

TEST_P(TileWalk, BitIdenticalToReferenceWalk) {
  const auto [m, r] = GetParam();
  const TileTransformer xf(transforms(m, r));
  const auto mm = static_cast<std::size_t>(m);
  const auto n = static_cast<std::size_t>(xf.tile());
  // Odd and prime extents: every m leaves a ragged right/bottom tile.
  const std::size_t extents[][2] = {{7, 5}, {11, 13}, {5, 9}};
  Rng rng(static_cast<std::uint64_t>(100 * m + r));
  for (const int pad : {0, 1}) {
    WinogradConvOptions opt;
    opt.pad = pad;
    for (const auto& hw : extents) {
      for (const std::size_t c : {1u, 3u, 5u}) {
        const Tensor4f input = random_tensor(2, c, hw[0], hw[1], rng);
        const auto rr = static_cast<std::size_t>(r);
        const Tensor4f kernels = random_tensor(4, c, rr, rr, rng);
        const TransformedKernels tk(xf, kernels);
        // The reference walk, transform-domain order: the memcmp anchor.
        const Tensor4f want = conv2d_winograd(input, tk, xf, opt);
        const auto& os = want.shape();
        const std::string where =
            "F(" + std::to_string(m) + "," + std::to_string(r) +
            ") pad=" + std::to_string(pad) + " " + std::to_string(hw[0]) +
            "x" + std::to_string(hw[1]) + " C=" + std::to_string(c);

        // The threaded wrapper.
        for (const std::size_t threads : {1u, 3u}) {
          ThreadPool::set_global_threads(threads);
          EXPECT_TRUE(bit_identical(
              conv2d_winograd_layout(input, tk, xf, opt, false), want))
              << where << " threads=" << threads;
        }

        // The allocation-free entry point against slab-carved scratch.
        wino::nn::ByteCarver measure;
        (void)wino::nn::carve_winograd_scratch(measure, c, n, mm);
        std::vector<std::byte> slab(measure.used());
        wino::nn::ByteCarver carver(slab);
        const auto scratch =
            wino::nn::carve_winograd_scratch(carver, c, n, mm);
        std::vector<float> got(want.size(), -1.0F);
        conv2d_winograd_layout_into(Layout::nchw(input.shape()),
                                    input.flat(), tk, xf, opt,
                                    Layout::nchw(os), got,
                                    /*fuse_relu=*/false, scratch);
        EXPECT_EQ(std::memcmp(got.data(), want.flat().data(),
                              got.size() * sizeof(float)),
                  0)
            << where << " (into)";
      }
    }
  }
  ThreadPool::set_global_threads(4);
}

// n*n = 16, 25, 36 (F(4, 3) and F(2, 5)) take the register-accumulator
// walks; F(4, 5)'s n*n = 64 takes the runtime-n fallback.
INSTANTIATE_TEST_SUITE_P(
    EveryTileArea, TileWalk,
    ::testing::Values(Transform{2, 3}, Transform{3, 3}, Transform{4, 3},
                      Transform{2, 5}, Transform{4, 5}),
    [](const ::testing::TestParamInfo<Transform>& info) {
      return "F" + std::to_string(info.param.m) + "_" +
             std::to_string(info.param.r);
    });

TEST(TileWalkContract, FusedReluIsMaxZeroOfTheReference) {
  const TileTransformer xf(transforms(4, 3));
  Rng rng(7);
  Tensor4f input = random_tensor(2, 3, 9, 7, rng);
  for (float& v : input.flat()) v -= 0.5F;
  const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
  const TransformedKernels tk(xf, kernels);
  WinogradConvOptions opt;
  opt.pad = 1;
  Tensor4f want = conv2d_winograd(input, tk, xf, opt);
  for (float& v : want.flat()) v = v > 0.0F ? v : 0.0F;
  EXPECT_TRUE(bit_identical(
      conv2d_winograd_layout(input, tk, xf, opt, /*fuse_relu=*/true), want));
}

TEST(TileWalkContract, RejectsPostInverseAccumulationAndBlockedScratch) {
  const TileTransformer xf(transforms(2, 3));
  const std::size_t n = static_cast<std::size_t>(xf.tile());
  const Tensor4f input(1, 2, 6, 6, 0.5F);
  const Tensor4f kernels(1, 2, 3, 3, 0.25F);
  const TransformedKernels tk(xf, kernels);
  WinogradConvOptions opt;
  opt.pad = 1;
  opt.accumulation = AccumulationOrder::kPostInverse;
  // The layout walk accumulates in the transform domain only, through the
  // allocation-free entry point and the allocating wrapper alike; the
  // post-inverse order lives in conv2d_winograd.
  wino::nn::ByteCarver measure;
  (void)wino::nn::carve_winograd_scratch(measure, 2, n, 2);
  std::vector<std::byte> slab(measure.used());
  wino::nn::ByteCarver carver(slab);
  const auto scratch = wino::nn::carve_winograd_scratch(carver, 2, n, 2);
  const Layout ol = Layout::nchw({1, 1, 6, 6});
  std::vector<float> out(ol.volume());
  EXPECT_THROW(conv2d_winograd_layout_into(Layout::nchw(input.shape()),
                                           input.flat(), tk, xf, opt, ol, out,
                                           false, scratch),
               std::invalid_argument);
  EXPECT_THROW((void)conv2d_winograd_layout(input, tk, xf, opt, false),
               std::invalid_argument);
  // There is no blocked scratch to carve.
  wino::nn::ByteCarver probe;
  EXPECT_THROW((void)wino::nn::carve_winograd_scratch(probe, 2, n, 2, 8),
               std::invalid_argument);
  EXPECT_THROW(
      (void)wino::nn::carve_quant_winograd_scratch(probe, 2, n, 2, 8),
      std::invalid_argument);
}

// -------------------------------------------------------------------------
// Planned forward: the walk out of the planned slab, still the reference
// -------------------------------------------------------------------------

TEST(TileWalkContract, PlannedForwardBitIdenticalToReferenceAcrossSweep) {
  const auto layers = wino::nn::vgg16_d_scaled(14, 16);
  const wino::nn::ExecutionPlan plan =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4);
  ASSERT_FALSE(plan.memory.empty());
  for (const std::size_t b : plan.memory.step_block_columns) {
    EXPECT_EQ(b, 1u);
  }

  const auto weights = wino::nn::random_weights(layers, 17);
  Rng rng(18);
  for (const std::size_t batch : {1u, 3u, 5u}) {
    Tensor4f in(batch, 3, 16, 16);
    rng.fill_uniform(in.flat());
    const Tensor4f want = wino::nn::forward_reference(plan, weights, in);
    for (const std::size_t threads : {1u, 2u, 7u}) {
      ThreadPool::set_global_threads(threads);
      const Tensor4f got = wino::nn::forward(plan, weights, in);
      EXPECT_TRUE(bit_identical(got, want))
          << "batch=" << batch << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(4);
}

// -------------------------------------------------------------------------
// Plan-aware batch ceiling: the working-set math and the serving clamp
// -------------------------------------------------------------------------

/// One 32x32 c=16 k=16 conv: transform-domain working set at m=4 is
/// 32*32*(16+16)*4 * (6/4)^2 = 294912 bytes per image, so the 768 KiB
/// sub-batch cache budget holds exactly two images.
std::vector<wino::nn::LayerSpec> ceiling_model() {
  wino::nn::LayerSpec l;
  l.kind = wino::nn::LayerKind::kConv;
  l.conv.name = "ceiling";
  l.conv.h = 32;
  l.conv.w = 32;
  l.conv.c = 16;
  l.conv.k = 16;
  return {l};
}

TEST(BatchCeiling, MatchesTransformDomainWorkingSetMath) {
  const wino::nn::ExecutionPlan w4 = wino::nn::uniform_plan(
      ceiling_model(), wino::nn::ConvAlgo::kWinograd4);
  EXPECT_EQ(wino::nn::plan_batch_ceiling(w4), 2u);
  EXPECT_EQ(w4.batch_ceiling, 2u);
  // No Winograd layer -> no transform-domain working set -> unlimited (0).
  const wino::nn::ExecutionPlan im2col = wino::nn::uniform_plan(
      ceiling_model(), wino::nn::ConvAlgo::kIm2col);
  EXPECT_EQ(wino::nn::plan_batch_ceiling(im2col), 0u);
  EXPECT_EQ(im2col.batch_ceiling, 0u);
}

TEST(BatchCeiling, ServeClampsAssemblyAndStaysBitIdentical) {
  ManualClock clock;  // frozen: only the ceiling can trigger dispatch
  std::mutex mutex;
  std::vector<std::size_t> batch_sizes;
  wino::serve::ServerConfig cfg;
  cfg.max_batch = 8;  // global cap far above the per-model ceiling
  cfg.clock = &clock;
  cfg.batch_detail_observer =
      [&](wino::serve::ModelId,
          const std::vector<wino::serve::BatchRequestInfo>& info) {
        std::lock_guard lock(mutex);
        batch_sizes.push_back(info.size());
      };
  wino::serve::InferenceServer server(cfg);
  wino::nn::ExecutionPlan plan = wino::nn::uniform_plan(
      ceiling_model(), wino::nn::ConvAlgo::kWinograd4);
  ASSERT_EQ(plan.batch_ceiling, 2u);
  const auto weights = wino::nn::random_weights(ceiling_model(), 5);
  const auto model = server.add_model("ceiling", plan, weights);

  Rng rng(6);
  std::vector<Tensor4f> images;
  std::vector<std::future<Tensor4f>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    images.push_back(random_tensor(1, 16, 32, 32, rng));
  }
  for (const Tensor4f& img : images) {
    futures.push_back(server.submit(model, img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    // Each served output equals the direct single-image forward bit for
    // bit, whatever ceiling-capped batch carried it.
    const Tensor4f got = futures[i].get();
    const Tensor4f want = wino::nn::forward(plan, weights, images[i]);
    EXPECT_TRUE(bit_identical(got, want)) << "request " << i;
  }
  std::lock_guard lock(mutex);
  ASSERT_EQ(batch_sizes.size(), 2u);  // 4 requests under ceiling 2
  EXPECT_EQ(batch_sizes[0], 2u);
  EXPECT_EQ(batch_sizes[1], 2u);
}

}  // namespace
