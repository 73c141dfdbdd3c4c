// Fused tile-block pipeline contract (the cache-resident Winograd
// executor): the blocked scratch engages a gather -> coordinate-GEMM ->
// inverse pipeline that must stay BIT-identical to the per-tile walk —
// same per-element accumulation chains, only regrouped across independent
// tile columns — at every tile edge, ragged shape, batch size, thread
// count and block boundary placement, in fp32 and int8 forms. Also pins
// the planner side: peak-neutral block sizing (fused scratch never grows
// the slab high-water mark) and the per-model batch ceiling the serving
// layer clamps assembly to.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "common/random.hpp"
#include "nn/forward.hpp"
#include "nn/memory_plan.hpp"
#include "nn/plan.hpp"
#include "quant/int8.hpp"
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
using wino::winograd::WinogradScratch;

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

/// Heap-backed WinogradScratch in either executor mode: block == 0 builds
/// the per-tile bank (u_all), block >= 2 the fused blocked bank
/// (u_blk/acc_blk) — the same extents nn::carve_winograd_scratch hands out.
struct OwnedScratch {
  std::vector<float> f;
  std::vector<std::size_t> idx;
  WinogradScratch s;
};

OwnedScratch make_scratch(std::size_t channels, std::size_t n,
                          std::size_t mm, std::size_t block) {
  const std::size_t nsq = n * n;
  const std::size_t bank =
      block >= 2 ? channels * nsq * block + nsq * block : channels * nsq;
  OwnedScratch o;
  o.f.resize(nsq + bank + nsq + mm * mm);
  o.idx.resize(3 * n);
  float* f = o.f.data();
  o.s.d = {f, nsq};
  f += nsq;
  if (block >= 2) {
    o.s.u_blk = {f, channels * nsq * block};
    f += channels * nsq * block;
    o.s.acc_blk = {f, nsq * block};
    f += nsq * block;
  } else {
    o.s.u_all = {f, channels * nsq};
    f += channels * nsq;
  }
  o.s.acc_m = {f, nsq};
  f += nsq;
  o.s.acc_y = {f, mm * mm};
  o.s.row_tile = {o.idx.data(), n};
  o.s.row_in = {o.idx.data() + n, n};
  o.s.col_off = {o.idx.data() + 2 * n, n};
  return o;
}

// -------------------------------------------------------------------------
// Fused wrapper vs the independent per-tile reference implementation
// -------------------------------------------------------------------------

TEST(FusedPipeline, WrapperBitIdenticalToPerTileReferenceEverywhere) {
  struct Case {
    int m;
    std::size_t h, w;
  };
  // Ragged shapes: every m leaves a clipped right/bottom tile edge.
  const Case cases[] = {{2, 7, 9}, {3, 7, 5}, {4, 9, 7}};
  WinogradConvOptions opt;
  opt.pad = 1;
  Rng rng(4242);
  for (const Case& cs : cases) {
    const TileTransformer xf(transforms(cs.m, 3));
    for (const std::size_t batch : {1u, 3u, 5u}) {
      const Tensor4f input = random_tensor(batch, 3, cs.h, cs.w, rng);
      const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
      const TransformedKernels tk(xf, kernels);
      // Independent per-tile implementation: the memcmp anchor.
      const Tensor4f want = conv2d_winograd(input, tk, xf, opt);
      for (const std::size_t threads : {1u, 2u, 7u}) {
        ThreadPool::set_global_threads(threads);
        const Tensor4f got = wino::tensor::unpack(conv2d_winograd_layout(
            wino::tensor::PackedActivation::from_nchw(Tensor4f(input)), tk,
            xf, opt, wino::tensor::LayoutKind::kNCHW, false));
        EXPECT_TRUE(bit_identical(got, want))
            << "m=" << cs.m << " batch=" << batch << " threads=" << threads;
      }
    }
  }
  ThreadPool::set_global_threads(4);
}

// -------------------------------------------------------------------------
// Blocked vs legacy scratch through the allocation-free entry point
// -------------------------------------------------------------------------

TEST(FusedPipeline, BlockedScratchBitIdenticalToLegacyScratch) {
  // 7x9 at m=2, pad 1 -> 4x5 = 20 tile columns per image; B in {2, 3, 8}
  // exercises exact division, a ragged final block and B > remaining.
  const TileTransformer xf(transforms(2, 3));
  const std::size_t n = static_cast<std::size_t>(xf.tile());
  Rng rng(7);
  const Tensor4f input = random_tensor(2, 3, 7, 9, rng);
  const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
  const TransformedKernels tk(xf, kernels);
  WinogradConvOptions opt;
  opt.pad = 1;
  const Layout il = Layout::nchw(input.shape());
  const Layout ol = Layout::nchw({2, 4, 7, 9});

  for (const bool relu : {false, true}) {
    std::vector<float> legacy(ol.volume());
    OwnedScratch ls = make_scratch(3, n, 2, 0);
    conv2d_winograd_layout_into(il, input.flat(), tk, xf, opt, ol, legacy,
                                relu, ls.s);
    for (const std::size_t block : {2u, 3u, 8u}) {
      std::vector<float> blocked(ol.volume(), -1.0F);
      OwnedScratch bs = make_scratch(3, n, 2, block);
      conv2d_winograd_layout_into(il, input.flat(), tk, xf, opt, ol, blocked,
                                  relu, bs.s);
      EXPECT_EQ(std::memcmp(blocked.data(), legacy.data(),
                            legacy.size() * sizeof(float)),
                0)
          << "B=" << block << " relu=" << relu;
    }
  }
}

TEST(FusedPipeline, BlockedScratchRejectsPostInverseAccumulation) {
  const TileTransformer xf(transforms(2, 3));
  const std::size_t n = static_cast<std::size_t>(xf.tile());
  const Tensor4f input(1, 2, 6, 6, 0.5F);
  const Tensor4f kernels(1, 2, 3, 3, 0.25F);
  const TransformedKernels tk(xf, kernels);
  WinogradConvOptions opt;
  opt.pad = 1;
  opt.accumulation = AccumulationOrder::kPostInverse;
  const Layout il = Layout::nchw(input.shape());
  const Layout ol = Layout::nchw({1, 1, 6, 6});
  std::vector<float> out(ol.volume());
  // The layout executor accumulates in the transform domain only, in
  // either scratch mode (per-tile bank or fused blocks) and through the
  // allocating wrapper; the post-inverse order lives in conv2d_winograd.
  for (const std::size_t block : {0u, 4u}) {
    OwnedScratch s = make_scratch(2, n, 2, block);
    EXPECT_THROW(conv2d_winograd_layout_into(il, input.flat(), tk, xf, opt,
                                             ol, out, false, s.s),
                 std::invalid_argument)
        << "B=" << block;
  }
  EXPECT_THROW(
      (void)conv2d_winograd_layout(
          wino::tensor::PackedActivation::from_nchw(Tensor4f(input)), tk, xf,
          opt, wino::tensor::LayoutKind::kNCHW, false),
      std::invalid_argument);
}

// -------------------------------------------------------------------------
// Int8 Winograd form: blocked vs per-tile walk
// -------------------------------------------------------------------------

TEST(FusedPipeline, Int8BlockedScratchBitIdenticalToLegacy) {
  using wino::quant::conv2d_winograd_int8_into;
  using wino::quant::QuantWinogradScratch;
  for (const int m : {2, 4}) {
    const TileTransformer xf(transforms(m, 3));
    const std::size_t n = static_cast<std::size_t>(xf.tile());
    const std::size_t nsq = n * n;
    const auto mm = static_cast<std::size_t>(m);
    Rng rng(100 + m);
    const Tensor4f input = random_tensor(2, 3, 9, 7, rng);
    const Tensor4f kernels = random_tensor(4, 3, 3, 3, rng);
    const auto qk = wino::quant::quantize_winograd_kernels(xf, kernels);
    const wino::tensor::Tensor4fView view(input.shape(), input.flat());
    const std::size_t out_elems = 2 * 4 * 9 * 7;

    for (const bool relu : {false, true}) {
      std::vector<float> want(out_elems);
      {
        std::vector<float> f(nsq + 3 * nsq + nsq + nsq + nsq + mm * mm);
        std::vector<std::int8_t> q(3 * nsq);
        std::vector<std::int32_t> a(nsq);
        float* p = f.data();
        QuantWinogradScratch s;
        s.d = {p, nsq};
        p += nsq;
        s.u_all = {p, 3 * nsq};
        p += 3 * nsq;
        s.sv = {p, nsq};
        p += nsq;
        s.m_f = {p, nsq};
        p += nsq;
        s.y = {p, mm * mm};
        s.uq_all = {q.data(), q.size()};
        s.acc = {a.data(), a.size()};
        conv2d_winograd_int8_into(view, qk, xf, 1, 0.0F, relu, want, s);
      }
      for (const std::size_t block : {2u, 5u}) {
        std::vector<float> got(out_elems, -2.0F);
        std::vector<float> f(nsq + 3 * nsq * block + nsq * block + nsq +
                             mm * mm);
        std::vector<std::int8_t> q(3 * nsq * block);
        std::vector<std::int32_t> a(nsq * block);
        float* p = f.data();
        QuantWinogradScratch s;
        s.d = {p, nsq};
        p += nsq;
        s.u_blk = {p, 3 * nsq * block};
        p += 3 * nsq * block;
        s.sv_blk = {p, nsq * block};
        p += nsq * block;
        s.m_f = {p, nsq};
        p += nsq;
        s.y = {p, mm * mm};
        s.uq_blk = {q.data(), q.size()};
        s.acc_blk = {a.data(), a.size()};
        conv2d_winograd_int8_into(view, qk, xf, 1, 0.0F, relu, got, s);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "m=" << m << " B=" << block << " relu=" << relu;
      }
    }
  }
}

// -------------------------------------------------------------------------
// Planned forward: fused blocks under the slab, still the reference values
// -------------------------------------------------------------------------

TEST(FusedPipeline, PlannedForwardBitIdenticalToReferenceAcrossSweep) {
  const auto layers = wino::nn::vgg16_d_scaled(14, 16);
  const wino::nn::ExecutionPlan plan =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4);
  ASSERT_FALSE(plan.memory.empty());
  // The tentpole must actually engage: at least one Winograd step runs the
  // fused pipeline out of the planned slab.
  std::size_t fused_steps = 0;
  for (const std::size_t b : plan.memory.step_block_columns) {
    if (b >= 2) ++fused_steps;
  }
  EXPECT_GE(fused_steps, 1u);

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

TEST(FusedPipeline, PlannerBlockSizingIsPeakNeutral) {
  const auto layers = wino::nn::vgg16_d_scaled(14, 16);
  const wino::nn::ExecutionPlan plan =
      wino::nn::uniform_plan(layers, wino::nn::ConvAlgo::kWinograd4);
  const wino::nn::MemoryPlan unfused =
      wino::nn::build_memory_plan(plan, /*fuse_blocks=*/false);
  const wino::nn::MemoryPlan& fused = plan.memory;
  ASSERT_FALSE(fused.empty());
  for (const std::size_t b : unfused.step_block_columns) {
    EXPECT_EQ(b, 1u);  // sizing disabled: every step stays per-tile
  }
  // Fused block scratch may never raise the slab high-water mark, at the
  // single-image point or deep into a batch.
  for (const std::size_t images : {1u, 2u, 4u, 8u}) {
    EXPECT_LE(fused.peak_bytes(images), unfused.peak_bytes(images))
        << "images=" << images;
  }
}

// -------------------------------------------------------------------------
// Plan-aware batch ceiling: the working-set math and the serving clamp
// -------------------------------------------------------------------------

/// One 32x32 c=16 k=16 conv: transform-domain working set at m=4 is
/// 32*32*(16+16)*4 * (6/4)^2 = 294912 bytes per image, so the 768 KiB
/// fused cache budget holds exactly two images.
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
