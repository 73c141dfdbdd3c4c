// Tests for the per-layer execution planner (nn/plan.hpp): the tiled
// maxpool's bit-identity to NCHW pooling across every layout/thread
// combination, the cost model's complexity-driven ordering, plan
// determinism, mixed-m tile handoffs and repacks, the plan executor's
// memcmp contract against the per-layer reference composition, the
// planned serving session, and the hw engine's per-layer m hook.
#include "nn/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "conv/spatial.hpp"
#include "hw/engine_config.hpp"
#include "hw/winograd_engine.hpp"
#include "nn/calibration_io.hpp"
#include "nn/forward.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/inference_server.hpp"
#include "tensor/layout.hpp"

namespace wino::nn {
namespace {

using common::Rng;
using tensor::Layout;
using tensor::LayoutKind;
using tensor::PackedActivation;
using tensor::Tensor4f;

bool same_bits(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

ConvLayerSpec conv_spec(std::size_t hw, std::size_t c, std::size_t k) {
  ConvLayerSpec l;
  l.h = hw;
  l.w = hw;
  l.c = c;
  l.k = k;
  l.r = 3;
  l.pad = 1;
  return l;
}

TEST(ParseConvAlgo, RoundTripsAndShortNames) {
  for (const ConvAlgo algo :
       {ConvAlgo::kSpatial, ConvAlgo::kIm2col, ConvAlgo::kFft,
        ConvAlgo::kWinograd2, ConvAlgo::kWinograd3, ConvAlgo::kWinograd4}) {
    EXPECT_EQ(parse_conv_algo(to_string(algo)), algo);
  }
  EXPECT_EQ(parse_conv_algo("w2"), ConvAlgo::kWinograd2);
  EXPECT_EQ(parse_conv_algo("winograd3"), ConvAlgo::kWinograd3);
  EXPECT_EQ(parse_conv_algo("w4"), ConvAlgo::kWinograd4);
  EXPECT_EQ(parse_conv_algo("im2col"), ConvAlgo::kIm2col);
  EXPECT_THROW(parse_conv_algo("winograd5"), std::invalid_argument);
  EXPECT_THROW(parse_conv_algo(""), std::invalid_argument);
}

TEST(WinogradM, TiledFormPredicate) {
  EXPECT_EQ(winograd_m(ConvAlgo::kWinograd2), 2);
  EXPECT_EQ(winograd_m(ConvAlgo::kWinograd3), 3);
  EXPECT_EQ(winograd_m(ConvAlgo::kWinograd4), 4);
  EXPECT_EQ(winograd_m(ConvAlgo::kSpatial), 0);
  EXPECT_EQ(winograd_m(ConvAlgo::kIm2col), 0);
  EXPECT_EQ(winograd_m(ConvAlgo::kFft), 0);
}

// The satellite's exhaustive sweep: every odd/even extent (ragged tile
// edges on both sides), every in/out layout pairing incl. mismatched tile
// edges, at 1/2/7 threads — all memcmp-identical to NCHW maxpool2x2.
TEST(TiledMaxpool, BitIdenticalToNchwAcrossLayoutsAndThreads) {
  Rng rng(321);
  const std::vector<std::size_t> in_tiles = {0, 2, 3, 4};   // 0 = NCHW
  const std::vector<std::size_t> out_tiles = {0, 2, 4};
  for (const std::size_t h : {2u, 3u, 5u, 8u, 9u}) {
    for (const std::size_t w : {2u, 4u, 7u, 9u}) {
      Tensor4f nchw(2, 3, h, w);
      rng.fill_uniform(nchw.flat(), -1.0F, 1.0F);
      const Tensor4f expect = maxpool2x2(nchw);
      for (const std::size_t in_m : in_tiles) {
        const PackedActivation in =
            in_m == 0 ? tensor::pack(nchw, Layout::nchw(nchw.shape()))
                      : tensor::pack(
                            nchw, Layout::winograd_tile(nchw.shape(), in_m));
        for (const std::size_t out_m : out_tiles) {
          const LayoutKind out_kind =
              out_m == 0 ? LayoutKind::kNCHW : LayoutKind::kWinogradTile;
          std::vector<std::vector<float>> per_thread;
          for (const std::size_t threads : {1u, 2u, 7u}) {
            runtime::ThreadPool::set_global_threads(threads);
            const PackedActivation got =
                maxpool2x2_packed(in, out_kind, out_m);
            ASSERT_TRUE(same_bits(tensor::unpack(got), expect))
                << "h=" << h << " w=" << w << " in_m=" << in_m
                << " out_m=" << out_m << " threads=" << threads;
            per_thread.push_back(got.data);
          }
          // The packed buffer itself (incl. ragged zero fill) must not
          // depend on the thread count either.
          EXPECT_EQ(per_thread[0], per_thread[1]);
          EXPECT_EQ(per_thread[0], per_thread[2]);
        }
      }
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(TiledMaxpool, RejectsBadInputs) {
  Tensor4f tiny(1, 1, 1, 4);
  EXPECT_THROW(maxpool2x2_packed(PackedActivation::from_nchw(std::move(tiny)),
                                 LayoutKind::kNCHW),
               std::invalid_argument);
  Tensor4f ok(1, 1, 4, 4);
  const auto panel = tensor::pack(
      ok, Layout::im2col_panel(ok.shape(), 3, 1, 1, 1));
  EXPECT_THROW(maxpool2x2_packed(panel, LayoutKind::kNCHW),
               std::invalid_argument);
  EXPECT_THROW(maxpool2x2_packed(PackedActivation::from_nchw(std::move(ok)),
                                 LayoutKind::kIm2colPanel),
               std::invalid_argument);
}

TEST(CostModel, OrderingFollowsComplexity) {
  // Flat injected rates: the ordering must come from the dse:: op counts.
  Calibration cal = default_calibration();
  // Big feature map, m divides the extent: W4 does strictly less work
  // than W2 per output, so at equal rates it must be predicted faster.
  const ConvLayerSpec big = conv_spec(56, 32, 32);
  EXPECT_LT(predict_layer_ms(big, ConvAlgo::kWinograd4, cal),
            predict_layer_ms(big, ConvAlgo::kWinograd2, cal));
  // Tiny late-network map: one ragged W4 tile costs 36 multiplies per
  // (c, k) where W2's single tile costs 16 — the exact-tile model must
  // flip the preference.
  const ConvLayerSpec tiny = conv_spec(2, 64, 64);
  EXPECT_LT(predict_layer_ms(tiny, ConvAlgo::kWinograd2, cal),
            predict_layer_ms(tiny, ConvAlgo::kWinograd4, cal));
  // Same op count, different calibrated rate: im2col (8 GFLOP/s default)
  // beats spatial (1 GFLOP/s default).
  EXPECT_LT(predict_layer_ms(big, ConvAlgo::kIm2col, cal),
            predict_layer_ms(big, ConvAlgo::kSpatial, cal));
  // Batch scales every prediction linearly.
  EXPECT_NEAR(predict_layer_ms(big, ConvAlgo::kWinograd4, cal, 4),
              4 * predict_layer_ms(big, ConvAlgo::kWinograd4, cal, 1),
              1e-9);
  // The work-size interpolation clamps at the anchors and moves
  // monotonically between them.
  AlgoCalibration interp;
  interp.ops_small = 1e4;
  interp.gflops_small = 1.0;
  interp.ops_big = 1e6;
  interp.gflops_big = 3.0;
  EXPECT_DOUBLE_EQ(interp.gflops_at(1e3), 1.0);
  EXPECT_DOUBLE_EQ(interp.gflops_at(1e7), 3.0);
  EXPECT_DOUBLE_EQ(interp.gflops_at(1e5), 2.0);  // log midpoint
}

TEST(Planner, DeterministicPlansAndUniformFallback) {
  const auto layers = vgg16_d_scaled(7, 16);
  PlannerOptions opts;
  opts.calibration = default_calibration();
  const ExecutionPlan a = plan_execution(layers, opts);
  const ExecutionPlan b = plan_execution(layers, opts);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i], b.steps[i]) << "layer " << i;
  }
  EXPECT_EQ(a.nchw_boundaries, b.nchw_boundaries);
  // A single candidate degenerates to the uniform plan's decisions.
  PlannerOptions only_w2;
  only_w2.candidates = {ConvAlgo::kWinograd2};
  only_w2.calibration = default_calibration();
  const ExecutionPlan w2 = plan_execution(layers, only_w2);
  const ExecutionPlan uni = uniform_plan(layers, ConvAlgo::kWinograd2);
  EXPECT_TRUE(w2.uniform());
  for (std::size_t i = 0; i < w2.steps.size(); ++i) {
    EXPECT_EQ(w2.steps[i].algo, uni.steps[i].algo);
    EXPECT_EQ(w2.steps[i].output_kind, uni.steps[i].output_kind);
    EXPECT_EQ(w2.steps[i].out_tile_m, uni.steps[i].out_tile_m);
  }
  EXPECT_THROW(plan_execution(layers, PlannerOptions{.candidates = {}}),
               std::invalid_argument);
}

TEST(Planner, MeasuredModeIsCachedAndDeterministic) {
  // The measured path probes each (layer geometry, algo) once per process
  // and re-reads the cache afterwards, so re-planning is identical.
  const auto layers = vgg16_d_scaled(28, 16);  // 8x8 input, tiny probe cost
  PlannerOptions opts;
  opts.candidates = {ConvAlgo::kWinograd2, ConvAlgo::kWinograd4,
                     ConvAlgo::kIm2col};
  const ExecutionPlan a = plan_execution(layers, opts);
  const ExecutionPlan b = plan_execution(layers, opts);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i], b.steps[i]) << "layer " << i;
  }
  // Cached measurements are stable verbatim.
  const auto& l0 = layers.front().conv;
  EXPECT_EQ(measure_layer_ms(l0, ConvAlgo::kWinograd2),
            measure_layer_ms(l0, ConvAlgo::kWinograd2));
  EXPECT_GT(measure_layer_ms(l0, ConvAlgo::kWinograd2), 0.0);
}

std::size_t distinct_conv_shapes(const std::vector<LayerSpec>& layers) {
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                      std::size_t, int>>
      shapes;
  for (const LayerSpec& l : layers) {
    if (l.kind != LayerKind::kConv) continue;
    shapes.emplace(l.conv.h, l.conv.w, l.conv.c, l.conv.k, l.conv.r,
                   l.conv.pad);
  }
  return shapes.size();
}

// Checks plan == forward_reference by memcmp at batch 3 on 2 threads.
void expect_plan_matches_reference(const ExecutionPlan& plan,
                                   std::size_t input_hw) {
  const WeightBank weights = random_weights(plan.layers, 13);
  Rng rng(57);
  Tensor4f input(3, 3, input_hw, input_hw);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  runtime::ThreadPool::set_global_threads(2);
  EXPECT_TRUE(same_bits(forward(plan, weights, input),
                        forward_reference(plan, weights, input)));
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

// A cold default plan times exactly the four default candidates once per
// distinct conv shape, never picks spatial or FFT, and executes
// bit-identically to its reference composition.
TEST(Planner, ColdDefaultPlanMeasuresFourCandidatesPerShape) {
  const auto layers = vgg16_d_scaled(7, 8);  // 32x32 input
  clear_measured_state();
  const auto before = plan_cache_stats();
  PlannerOptions opts;
  opts.batch = 8;
  const ExecutionPlan plan = plan_execution(layers, opts);
  const auto after = plan_cache_stats();
  EXPECT_EQ(after.layer_measurements - before.layer_measurements,
            distinct_conv_shapes(layers) * 4);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    EXPECT_NE(plan.steps[i].algo, ConvAlgo::kFft) << "layer " << i;
    EXPECT_NE(plan.steps[i].algo, ConvAlgo::kSpatial) << "layer " << i;
  }
  expect_plan_matches_reference(plan, 32);
}

// Spatial and FFT left the default candidate set only: listed explicitly
// they are measured, scored and executed as before.
TEST(Planner, SpatialAndFftStayExplicitCandidates) {
  const auto layers = vgg16_d_scaled(28, 16);  // 8x8 input
  clear_measured_state();
  const auto before = plan_cache_stats();
  PlannerOptions opts;
  opts.candidates = {ConvAlgo::kFft, ConvAlgo::kSpatial,
                     ConvAlgo::kWinograd2};
  const ExecutionPlan mixed = plan_execution(layers, opts);
  EXPECT_EQ(plan_cache_stats().layer_measurements -
                before.layer_measurements,
            distinct_conv_shapes(layers) * 3);
  expect_plan_matches_reference(mixed, 8);
  // Without a Winograd candidate one of the two must win every layer,
  // which runs the executor's spatial/FFT steps.
  opts.candidates = {ConvAlgo::kFft, ConvAlgo::kSpatial};
  const ExecutionPlan direct = plan_execution(layers, opts);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    EXPECT_TRUE(direct.steps[i].algo == ConvAlgo::kFft ||
                direct.steps[i].algo == ConvAlgo::kSpatial);
  }
  expect_plan_matches_reference(direct, 8);

  // measure_layer_ms alone fills the cache for an FFT timing.
  clear_measured_state();
  const ConvLayerSpec l = conv_spec(4, 8, 8);
  const auto cold = plan_cache_stats();
  const double fft_ms = measure_layer_ms(l, ConvAlgo::kFft);
  EXPECT_GT(fft_ms, 0.0);
  const auto warm = plan_cache_stats();
  EXPECT_EQ(warm.layer_measurements, cold.layer_measurements + 1);
  EXPECT_EQ(warm.layer_entries, 1u);
  EXPECT_EQ(measure_layer_ms(l, ConvAlgo::kFft), fft_ms);
  EXPECT_EQ(plan_cache_stats().layer_measurements, warm.layer_measurements);

  // A winocal file holding FFT entries still loads, and its timing
  // preempts measurement.
  const std::string path =
      ::testing::TempDir() + "nn_plan_test_fft.winocal";
  ASSERT_TRUE(save_measured_state(path));
  clear_measured_state();
  ASSERT_TRUE(load_measured_state(path));
  std::remove(path.c_str());
  const MeasuredState loaded = export_measured_state();
  ASSERT_EQ(loaded.layer_times.size(), 1u);
  EXPECT_EQ(loaded.layer_times[0].algo, ConvAlgo::kFft);
  EXPECT_EQ(measure_layer_ms(l, ConvAlgo::kFft), fft_ms);
  EXPECT_EQ(plan_cache_stats().layer_measurements, warm.layer_measurements);
}

TEST(Planner, MeasuredCalibrationIsCachedAndPositive) {
  const Calibration& a = measured_calibration();
  const Calibration& b = measured_calibration();
  EXPECT_EQ(&a, &b);  // one probe per process
  for (const AlgoCalibration* c :
       {&a.spatial, &a.im2col, &a.fft, &a.winograd2, &a.winograd3,
        &a.winograd4}) {
    EXPECT_GT(c->gflops_small, 0.0);
    EXPECT_GT(c->gflops_big, 0.0);
    EXPECT_GT(c->ops_big, c->ops_small);
  }
}

TEST(Planner, TiledLayoutsCloseEveryPoolBoundary) {
  // All-Winograd candidates: every conv -> conv, conv -> pool and
  // pool -> conv boundary stays in tile form; only the last pool -> FC
  // handoff (and the final output) materialises NCHW. This is the
  // structural "conv -> pool -> conv chains execute with zero NCHW
  // round-trips" acceptance check.
  const auto layers = vgg16_d_scaled(7, 16);
  PlannerOptions opts;
  opts.candidates = {ConvAlgo::kWinograd2, ConvAlgo::kWinograd4};
  opts.calibration = default_calibration();
  const ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.boundaries, layers.size() - 1);
  EXPECT_EQ(plan.nchw_boundaries, 1u);  // pool5 -> fc only
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    const LayerPlan& step = plan.steps[i];
    if (layers[i].kind == LayerKind::kMaxPool &&
        layers[i + 1].kind == LayerKind::kConv) {
      // Pools emit tiles sized for their consumer.
      ASSERT_EQ(step.output_kind, LayoutKind::kWinogradTile);
      EXPECT_EQ(step.out_tile_m, static_cast<std::size_t>(winograd_m(
                                     plan.steps[i + 1].algo)));
    }
    if (layers[i].kind == LayerKind::kConv) {
      // Winograd convs emit their own m.
      ASSERT_EQ(step.output_kind, LayoutKind::kWinogradTile);
      EXPECT_EQ(step.out_tile_m,
                static_cast<std::size_t>(winograd_m(step.algo)));
      EXPECT_TRUE(step.fused_relu);
    }
  }
  EXPECT_EQ(plan.steps.back().output_kind, LayoutKind::kNCHW);
}

TEST(Repack, MixedMTileRoundTripIsExact) {
  Rng rng(99);
  for (const std::size_t h : {4u, 5u, 7u, 8u}) {
    for (const std::size_t w : {4u, 6u, 9u}) {
      Tensor4f nchw(2, 3, h, w);
      rng.fill_uniform(nchw.flat(), -1.0F, 1.0F);
      const Layout t4 = Layout::winograd_tile(nchw.shape(), 4);
      const Layout t2 = Layout::winograd_tile(nchw.shape(), 2);
      const PackedActivation w4 = tensor::pack(nchw, t4);
      // W4 -> W2 -> W4: the producer-side repack a consumer that insisted
      // on its own tile edge would trigger, round-tripped. Bit-exact
      // including the zero ragged fill.
      const PackedActivation back =
          tensor::repack(tensor::repack(w4, t2), t4);
      EXPECT_EQ(w4.data, back.data) << "h=" << h << " w=" << w;
      // Repacking into NCHW is exactly unpack.
      const PackedActivation as_nchw =
          tensor::repack(w4, Layout::nchw(nchw.shape()));
      EXPECT_TRUE(same_bits(Tensor4f(nchw.shape(),
                                     std::vector<float>(as_nchw.data)),
                            nchw));
    }
  }
  Tensor4f a(1, 1, 4, 4);
  const auto packed = tensor::pack(a, Layout::winograd_tile(a.shape(), 2));
  EXPECT_THROW(
      tensor::repack(packed, Layout::winograd_tile({1, 1, 6, 6}, 2)),
      std::invalid_argument);
}

// The acceptance pin: a mixed-m plan (different Winograd m per layer plus
// an im2col layer, tiled pools in between) is memcmp-identical to
// composing the same per-layer algorithms through the always-NCHW
// reference path — at every batch size and thread count.
TEST(ForwardPlan, MixedMBitIdenticalToReferenceComposition) {
  const auto layers = vgg16_d_scaled(/*scale=*/14, /*channel_div=*/16);
  const WeightBank weights = random_weights(layers, 77);
  ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd4);
  // Force a mixed assignment: cycle W4 -> W2 -> W3 -> im2col over the
  // conv layers, so the walk crosses W4->W2 and W2->W3 tile handoffs,
  // pool boundaries inside Winograd chains, and a tile -> NCHW -> panel
  // transition into the im2col layer.
  const ConvAlgo cycle[4] = {ConvAlgo::kWinograd4, ConvAlgo::kWinograd2,
                             ConvAlgo::kWinograd3, ConvAlgo::kIm2col};
  std::size_t conv_idx = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    plan.steps[i].algo = cycle[conv_idx % 4];
    ++conv_idx;
  }
  replan_layouts(plan);
  EXPECT_FALSE(plan.uniform());
  EXPECT_GT(plan.mixed_m_handoffs, 0u);

  Rng rng(79);
  for (const std::size_t batch : {1u, 5u}) {
    Tensor4f input(batch, 3, 16, 16);
    rng.fill_uniform(input.flat(), -1.0F, 1.0F);
    const Tensor4f reference = forward_reference(plan, weights, input);
    for (const std::size_t threads : {1u, 2u, 7u}) {
      runtime::ThreadPool::set_global_threads(threads);
      const Tensor4f planned = forward(plan, weights, input);
      ASSERT_TRUE(same_bits(planned, reference))
          << "batch=" << batch << " threads=" << threads;
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ForwardPlan, UniformWrapperMatchesPlanExecutor) {
  // The uniform-algo entry runs the one executor (tile-form handoffs,
  // fused ReLU, packed im2col panels) and must reproduce the always-NCHW
  // oracle bit-for-bit — per algorithm, per batch size, per thread count.
  const auto layers = vgg16_d_scaled(14, 16);
  const WeightBank weights = random_weights(layers, 77);
  Rng rng(79);
  for (const ConvAlgo algo : {ConvAlgo::kWinograd2, ConvAlgo::kWinograd3,
                              ConvAlgo::kWinograd4, ConvAlgo::kIm2col}) {
    for (const std::size_t batch : {1u, 5u}) {
      Tensor4f input(batch, 3, 16, 16);
      rng.fill_uniform(input.flat(), -1.0F, 1.0F);
      const Tensor4f reference =
          forward_reference(uniform_plan(layers, algo), weights, input);
      for (const std::size_t threads : {1u, 4u}) {
        runtime::ThreadPool::set_global_threads(threads);
        EXPECT_TRUE(
            same_bits(forward(layers, weights, input, algo), reference))
            << to_string(algo) << " batch=" << batch
            << " threads=" << threads;
      }
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ForwardPlan, NonWinogradPlanBatchedAcrossManyThreads) {
  // Regression pin: a plan with no Winograd layer has no cache-budgeted
  // sub-batch cap, and the cap handed to the chunk walk must be the batch
  // itself — an unbounded sentinel used to overflow `i += cap` when a
  // worker's range started past zero, marching workers into each other's
  // output slots. More worker chunks than images exercises exactly that.
  const auto layers = vgg16_d_scaled(28, 16);
  const WeightBank weights = random_weights(layers, 3);
  Rng rng(41);
  Tensor4f input(5, 3, 8, 8);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kIm2col);
  const Tensor4f reference = forward_reference(plan, weights, input);
  for (const std::size_t threads : {2u, 7u}) {
    runtime::ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(same_bits(forward(plan, weights, input), reference))
        << "threads=" << threads;
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ForwardPlan, RejectsMalformedPlan) {
  const auto layers = vgg16_d_scaled(28, 16);
  const WeightBank weights = random_weights(layers, 1);
  ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd2);
  plan.steps.pop_back();
  const Tensor4f input(1, 3, 8, 8);
  EXPECT_THROW(forward(plan, weights, input), std::invalid_argument);
}

TEST(ForwardPlan, RejectsWeightBankOfAnotherStack) {
  // A bank built for another stack fails at the API boundary, naming the
  // layer, in every entry that takes one — not inside a kernel on a
  // worker thread with a kernel-specific message.
  const auto layers = vgg16_d_scaled(28, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd2);
  const Tensor4f input(1, 3, 8, 8);
  std::size_t last_conv = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind == LayerKind::kConv) last_conv = i;
  }
  const std::size_t fc = layers.size() - 1;
  ASSERT_EQ(layers[fc].kind, LayerKind::kFullyConnected);

  const auto expect_rejected = [&](const WeightBank& bank,
                                   const std::string& names) {
    const auto check = [&](const char* entry, const auto& call) {
      try {
        call();
        ADD_FAILURE() << entry << " accepted a mismatched bank";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
            << entry << ": " << e.what();
      }
    };
    check("forward", [&] { (void)forward(plan, bank, input); });
    check("prewarm_workspaces", [&] { prewarm_workspaces(plan, bank, 1); });
    check("add_model", [&] {
      serve::InferenceServer server(serve::ServerConfig{});
      (void)server.add_model("mismatched", plan, bank);
    });
  };

  // Twice the channels: conv 0's bank is K x C x r x r for another stack.
  expect_rejected(random_weights(vgg16_d_scaled(28, 8), 1), "layer 0 (");
  WeightBank bank = random_weights(layers, 1);
  bank.conv_kernels.pop_back();
  expect_rejected(bank, "layer " + std::to_string(last_conv) + " (");
  bank = random_weights(layers, 1);
  bank.conv_kernels.push_back(bank.conv_kernels.back());
  expect_rejected(bank, "the plan has");
  bank = random_weights(layers, 1);
  bank.fc_bias[0].pop_back();
  expect_rejected(bank, "layer " + std::to_string(fc) + " (");
}

TEST(Serve, PlannedSessionServesBitIdenticalResults) {
  const auto layers = vgg16_d_scaled(14, 16);
  WeightBank weights = random_weights(layers, 21);
  ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kWinograd4);
  // A genuinely mixed session plan, built without timing dependence.
  std::size_t conv_idx = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    plan.steps[i].algo = (conv_idx % 2 == 0) ? ConvAlgo::kWinograd4
                                             : ConvAlgo::kWinograd2;
    ++conv_idx;
  }
  replan_layouts(plan);

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceServer server(cfg);
  const auto id = server.add_model("mixed", plan, weights);
  EXPECT_FALSE(server.model_plan(id).uniform());
  EXPECT_EQ(server.model_layers(id).size(), layers.size());

  Rng rng(17);
  std::vector<Tensor4f> images;
  std::vector<std::future<Tensor4f>> futures;
  for (int i = 0; i < 6; ++i) {
    Tensor4f img(1, 3, 16, 16);
    rng.fill_uniform(img.flat(), -1.0F, 1.0F);
    images.push_back(std::move(img));
  }
  futures.reserve(images.size());
  for (auto& img : images) futures.push_back(server.submit(id, img));
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor4f served = futures[i].get();
    const Tensor4f direct =
        forward(server.model_plan(id), server.model_weights(id), images[i]);
    EXPECT_TRUE(same_bits(served, direct)) << "image " << i;
  }
  server.shutdown();
}

TEST(HwEngine, RetiledRunsThePlannedPerLayerM) {
  hw::EngineConfig cfg;
  cfg.m = 4;
  cfg.r = 3;
  cfg.parallel_pes = 4;
  const hw::WinogradEngine engine(cfg);

  const hw::WinogradEngine w2 = engine.retiled(2);
  EXPECT_EQ(w2.config().m, 2);
  EXPECT_EQ(w2.config().r, 3);
  // The multiplier budget (4 PEs x 6^2) re-divides into 16-wide PEs.
  EXPECT_EQ(w2.config().parallel_pes, 4u * 36u / 16u);
  EXPECT_THROW(engine.retiled(0), std::invalid_argument);

  Rng rng(55);
  Tensor4f input(1, 3, 8, 8);
  Tensor4f kernels(4, 3, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  const auto act = PackedActivation::from_nchw(Tensor4f(input));

  // The per-layer-m overload is exactly the retiled engine's run.
  const auto direct = w2.run_layer(input, kernels, /*pad=*/1);
  const auto via_m = engine.run_layer(act, kernels, /*pad=*/1, /*m=*/2);
  ASSERT_TRUE(same_bits(direct.output, via_m.output));
  EXPECT_EQ(direct.stats.total_cycles, via_m.stats.total_cycles);

  // And the simulated datapath still computes the right convolution.
  const Tensor4f ref = conv::conv2d_spatial(
      input, kernels, {.pad = 1, .stride = 1});
  EXPECT_LE(tensor::max_abs_diff(via_m.output, ref), 2e-4F);
}

}  // namespace
}  // namespace wino::nn
