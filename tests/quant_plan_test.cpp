// Tests for the int8 quantized execution path and the planner's quality
// axis: int8 conv correctness against fp32 references, the exact
// bit-identity contracts (SIMD vs scalar, thread counts, planned vs
// reference composition), the analytic error model's ordering, the error
// budget's demotion chain (int8 Winograd -> int8 im2col -> fp32), and the
// quantized serving session. See docs/QUANTIZATION.md for the contract
// under test.
#include "nn/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "conv/spatial.hpp"
#include "nn/forward.hpp"
#include "quant/int8.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/inference_server.hpp"
#include "winograd/error_model.hpp"

namespace wino::nn {
namespace {

using common::Rng;
using tensor::Tensor4f;

bool same_bits(const Tensor4f& a, const Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

float rel_max_error(const Tensor4f& got, const Tensor4f& ref) {
  float max_diff = 0;
  float max_ref = 0;
  const auto g = got.flat();
  const auto r = ref.flat();
  for (std::size_t i = 0; i < g.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(g[i] - r[i]));
    max_ref = std::max(max_ref, std::abs(r[i]));
  }
  return max_ref > 0 ? max_diff / max_ref : max_diff;
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

TEST(Int8Algos, PredicatesAndNames) {
  for (const ConvAlgo algo : {ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
                              ConvAlgo::kInt8Winograd4}) {
    EXPECT_TRUE(is_int8(algo));
    EXPECT_EQ(winograd_m(algo), 0);  // runs its own quantized walk
    EXPECT_EQ(parse_conv_algo(to_string(algo)), algo);
  }
  EXPECT_FALSE(is_int8(ConvAlgo::kIm2col));
  EXPECT_FALSE(is_int8(ConvAlgo::kWinograd4));
  EXPECT_EQ(int8_winograd_m(ConvAlgo::kInt8Im2col), 0);
  EXPECT_EQ(int8_winograd_m(ConvAlgo::kInt8Winograd2), 2);
  EXPECT_EQ(int8_winograd_m(ConvAlgo::kInt8Winograd4), 4);
  EXPECT_EQ(parse_conv_algo("int8"), ConvAlgo::kInt8Im2col);
  EXPECT_EQ(parse_conv_algo("i8w2"), ConvAlgo::kInt8Winograd2);
  EXPECT_EQ(parse_conv_algo("i8w4"), ConvAlgo::kInt8Winograd4);
}

TEST(Int8Conv, Im2colTracksFp32Reference) {
  Rng rng(101);
  Tensor4f input(2, 5, 9, 7);  // ragged extents, multi-image
  Tensor4f kernels(4, 5, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  const Tensor4f got = quant::conv2d_im2col_int8(input, kernels, /*pad=*/1);
  // ~1% of the output range is the expected int8 grid error for
  // uniform-ish inputs; 5% is a generous ceiling that still catches any
  // scale/transpose/dequant bug (those produce O(100%) errors).
  EXPECT_LE(rel_max_error(got, ref), 0.05F);
}

TEST(Int8Conv, WinogradFormsStayUnderModelPrediction) {
  // The numerics contract: predict_layer_rel_error upper-bounds each int8
  // Winograd form's observed error. F(2x2, 3x3) is also absolutely tight
  // (~1% here); F(4x4, 3x3) is genuinely coarse (kappa_1d = 200 prices it
  // near-unusable, and it is) — the planner's budget gate, not a tighter
  // kernel, is what keeps it out of real plans.
  Rng rng(103);
  Tensor4f input(1, 4, 7, 9);  // ragged tiles for both m
  Tensor4f kernels(3, 4, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  LayerActivationStats stats;
  double sq = 0;
  for (const float v : input.flat()) {
    stats.max_abs = std::max(stats.max_abs, static_cast<double>(std::abs(v)));
    sq += static_cast<double>(v) * v;
  }
  stats.rms = std::sqrt(sq / static_cast<double>(input.flat().size()));
  ConvLayerSpec spec = conv_spec(7, 4, 3);
  spec.w = 9;
  for (const int m : {2, 4}) {
    const Tensor4f got =
        quant::conv2d_winograd_int8(input, kernels, m, /*pad=*/1);
    const ConvAlgo algo =
        m == 2 ? ConvAlgo::kInt8Winograd2 : ConvAlgo::kInt8Winograd4;
    EXPECT_LE(rel_max_error(got, ref),
              static_cast<float>(predict_layer_rel_error(spec, algo, &stats)))
        << "m=" << m;
  }
  EXPECT_LE(rel_max_error(
                quant::conv2d_winograd_int8(input, kernels, 2, /*pad=*/1),
                ref),
            0.05F);
}

TEST(Int8Conv, StaticScaleMatchesDynamicForSingleImage) {
  // With one image, the dynamic path derives exactly max|x| / 127 — so
  // passing that same value as the static calibration scale must be
  // bit-identical. Pins the act_scale plumbing end to end.
  Rng rng(107);
  Tensor4f input(1, 3, 8, 8);
  Tensor4f kernels(2, 3, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  float max_abs = 0;
  for (const float v : input.flat()) max_abs = std::max(max_abs, std::abs(v));
  const float scale = max_abs / 127.0F;
  for (const ConvAlgo algo : {ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
                              ConvAlgo::kInt8Winograd4}) {
    const Tensor4f dynamic = run_conv(algo, input, kernels, 1);
    const Tensor4f fixed = run_conv(algo, input, kernels, 1, scale);
    EXPECT_TRUE(same_bits(dynamic, fixed)) << to_string(algo);
  }
}

TEST(Int8Conv, BitIdenticalAcrossThreadCounts) {
  Rng rng(109);
  Tensor4f input(3, 6, 12, 12);
  Tensor4f kernels(5, 6, 3, 3);
  rng.fill_uniform(input.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  for (const ConvAlgo algo : {ConvAlgo::kInt8Im2col, ConvAlgo::kInt8Winograd2,
                              ConvAlgo::kInt8Winograd4}) {
    runtime::ThreadPool::set_global_threads(1);
    const Tensor4f base = run_conv(algo, input, kernels, 1);
    for (const std::size_t threads : {2u, 7u}) {
      runtime::ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(same_bits(run_conv(algo, input, kernels, 1), base))
          << to_string(algo) << " threads=" << threads;
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

// quantize_winograd_kernels transforms its fp32 bank with
// transform_filter_bank over the pool. The int8 bank and its scales must
// be memcmp-equal at every pool size, and equal to the same quantization
// applied to a plain per-filter transform_filter loop.
TEST(Int8Conv, QuantizedWinogradBankBitIdenticalAtEveryPoolSize) {
  Rng rng(113);
  const std::pair<int, int> tiles[] = {{2, 3}, {3, 3}, {4, 3}, {5, 3},
                                       {6, 3}, {2, 5}, {4, 5}};
  const std::pair<std::size_t, std::size_t> banks[] = {
      {1, 3}, {2, 3}, {5, 7}, {16, 9}};  // K*C = 3, 6, 35, 144
  for (const auto& [m, r] : tiles) {
    const winograd::TileTransformer xf(winograd::transforms(m, r));
    const auto rsq = static_cast<std::size_t>(r * r);
    const auto nsq = static_cast<std::size_t>(xf.tile() * xf.tile());
    for (const auto& [k, c] : banks) {
      const auto ur = static_cast<std::size_t>(r);
      Tensor4f kernels(k, c, ur, ur);
      rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
      // The reference: per-filter transforms, then per-(k, position)
      // scales over c, exactly the quantizer's recipe.
      std::vector<float> v(k * c * nsq);
      for (std::size_t f = 0; f < k * c; ++f) {
        xf.transform_filter(kernels.flat().subspan(f * rsq, rsq),
                            std::span<float>(v).subspan(f * nsq, nsq));
      }
      std::vector<std::int8_t> want_data(v.size());
      std::vector<float> want_scale(k * nsq);
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t i = 0; i < nsq; ++i) {
          float pos_max = 0.0F;
          for (std::size_t cc = 0; cc < c; ++cc) {
            pos_max = std::max(pos_max, std::abs(v[(kk * c + cc) * nsq + i]));
          }
          const float scale = pos_max / 127.0F;
          want_scale[kk * nsq + i] = scale;
          const float inv = scale > 0.0F ? 1.0F / scale : 0.0F;
          for (std::size_t cc = 0; cc < c; ++cc) {
            const std::size_t at = (kk * c + cc) * nsq + i;
            want_data[at] = quant::quantize_symmetric(v[at], inv);
          }
        }
      }
      for (const std::size_t threads : {1u, 2u, 7u}) {
        runtime::ThreadPool::set_global_threads(threads);
        const quant::QuantizedWinogradKernels qk =
            quant::quantize_winograd_kernels(xf, kernels);
        ASSERT_EQ(qk.data.size(), want_data.size());
        ASSERT_EQ(qk.scale.size(), want_scale.size());
        EXPECT_EQ(std::memcmp(qk.data.data(), want_data.data(),
                              want_data.size()),
                  0)
            << "F(" << m << "," << r << ") K=" << k << " C=" << c
            << " threads=" << threads;
        EXPECT_EQ(std::memcmp(qk.scale.data(), want_scale.data(),
                              want_scale.size() * sizeof(float)),
                  0)
            << "F(" << m << "," << r << ") K=" << k << " C=" << c
            << " threads=" << threads;
      }
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

// The int8 Winograd walk against a direct per-tile evaluation of the same
// recipe at every tile area it specialises (n*n = 16, 25, 36) and at the
// runtime-n fallback (n*n = 49), over pad 0 and 1, prime extents and a
// single input channel, through the allocating wrapper and, with ReLU
// fused, through the allocation-free core. The int32 sums are exact and
// every fp32 step is the same expression, so any indexing slip shows as a
// bit difference.
TEST(Int8Conv, WinogradWalkMatchesDirectRecipeAtEveryTileArea) {
  struct Case {
    std::size_t imgs, chans, kcount, h, w;
    int pad;
  };
  const Case cases[] = {
      {2, 3, 4, 11, 7, 1}, {2, 3, 4, 11, 7, 0}, {1, 1, 3, 13, 5, 1},
      {1, 1, 2, 17, 13, 0}, {2, 2, 3, 5, 11, 1}};
  Rng rng(127);
  for (const Case& p : cases) {
    Tensor4f input(p.imgs, p.chans, p.h, p.w);
    Tensor4f kernels(p.kcount, p.chans, 3, 3);
    rng.fill_uniform(input.flat(), -1.0F, 1.0F);
    rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
    const std::size_t oh = p.h + 2 * static_cast<std::size_t>(p.pad) - 2;
    const std::size_t ow = p.w + 2 * static_cast<std::size_t>(p.pad) - 2;
    for (const int m : {2, 3, 4, 5}) {
      const winograd::TileTransformer xf(winograd::transforms(m, 3));
      const quant::QuantizedWinogradKernels qk =
          quant::quantize_winograd_kernels(xf, kernels);
      const auto mm = static_cast<std::size_t>(m);
      const auto n = static_cast<std::size_t>(xf.tile());
      const std::size_t nsq = n * n;
      Tensor4f want(p.imgs, p.kcount, oh, ow);
      std::vector<float> d(nsq);
      std::vector<float> u(p.chans * nsq);
      std::vector<float> mf(nsq);
      std::vector<float> y(mm * mm);
      for (std::size_t img = 0; img < p.imgs; ++img) {
        for (std::size_t ty = 0; ty * mm < oh; ++ty) {
          for (std::size_t tx = 0; tx * mm < ow; ++tx) {
            for (std::size_t c = 0; c < p.chans; ++c) {
              for (std::size_t i = 0; i < nsq; ++i) {
                d[i] = input.padded(
                    img, c,
                    static_cast<std::ptrdiff_t>(ty * mm + i / n) - p.pad,
                    static_cast<std::ptrdiff_t>(tx * mm + i % n) - p.pad);
              }
              xf.transform_data(d,
                                std::span<float>(u).subspan(c * nsq, nsq));
            }
            for (std::size_t k = 0; k < p.kcount; ++k) {
              for (std::size_t i = 0; i < nsq; ++i) {
                float pos_max = 0.0F;
                for (std::size_t c = 0; c < p.chans; ++c) {
                  pos_max = std::max(pos_max, std::abs(u[c * nsq + i]));
                }
                const float inv = pos_max > 0.0F ? 127.0F / pos_max : 0.0F;
                std::int32_t acc = 0;
                for (std::size_t c = 0; c < p.chans; ++c) {
                  acc += quant::quantize_symmetric(u[c * nsq + i], inv) *
                         qk.data[(k * p.chans + c) * nsq + i];
                }
                mf[i] = static_cast<float>(acc) *
                        (qk.scale[k * nsq + i] * (pos_max / 127.0F));
              }
              xf.inverse(mf, y);
              for (std::size_t i = 0; i < mm && ty * mm + i < oh; ++i) {
                for (std::size_t j = 0; j < mm && tx * mm + j < ow; ++j) {
                  want(img, k, ty * mm + i, tx * mm + j) = y[i * mm + j];
                }
              }
            }
          }
        }
      }
      const std::string where = "m=" + std::to_string(m) +
                                " c=" + std::to_string(p.chans) + " " +
                                std::to_string(p.h) + "x" +
                                std::to_string(p.w) +
                                " pad=" + std::to_string(p.pad);
      EXPECT_TRUE(
          same_bits(quant::conv2d_winograd_int8(input, qk, xf, p.pad), want))
          << where;

      // Fused ReLU through the allocation-free core: x > 0 ? x : 0 on the
      // same values.
      for (float& v : want.flat()) v = v > 0.0F ? v : 0.0F;
      std::vector<float> sd(nsq), su(p.chans * nsq), sm(nsq), sy(mm * mm),
          sv(nsq);
      std::vector<std::int8_t> uq(p.chans * nsq);
      std::vector<std::int32_t> acc(nsq);
      Tensor4f fused(want.shape());
      quant::conv2d_winograd_int8_into(
          tensor::Tensor4fView(input.shape(), input.flat()), qk, xf, p.pad,
          /*act_scale=*/0.0F, /*fuse_relu=*/true, fused.flat(),
          quant::QuantWinogradScratch{
              .walk = {.d = sd, .u_all = su, .acc_m = sm, .acc_y = sy},
              .sv = sv,
              .uq_all = uq,
              .acc = acc});
      EXPECT_TRUE(same_bits(fused, want)) << where << " fused";
    }
  }
}

// Non-finite activations reach quantize_symmetric from a served session as
// a NaN input, or as an infinity times a zero inverse scale. Either way the
// product is NaN, which quantizes to 0 (casting it to int8 would be
// undefined behaviour); +-inf saturate. These pins fix what each int8 form
// then produces.
TEST(Int8Conv, NonFiniteInputsHaveDefinedOutputs) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(113);
  Tensor4f clean(2, 3, 9, 7);
  Tensor4f kernels(4, 3, 3, 3);
  rng.fill_uniform(clean.flat(), -1.0F, 1.0F);
  rng.fill_normal(kernels.flat(), 0.0F, 0.2F);
  // Image 0, channel 1, pixel (4, 3) carries the non-finite value.
  const std::size_t py = 4;
  const std::size_t px = 3;
  const auto poisoned = [&](float v) {
    Tensor4f t = clean;
    t(0, 1, py, px) = v;
    return t;
  };
  const auto im2col = [&](const Tensor4f& in, float act_scale) {
    return quant::conv2d_im2col_int8(in, kernels, /*pad=*/1, act_scale);
  };

  // im2col at a static scale: NaN quantizes like 0, +-inf like any value
  // past the saturation point.
  const float scale = 1.0F / 127.0F;
  EXPECT_TRUE(same_bits(im2col(poisoned(kNan), scale),
                        im2col(poisoned(0.0F), scale)));
  EXPECT_TRUE(same_bits(im2col(poisoned(kInf), scale),
                        im2col(poisoned(1e30F), scale)));
  EXPECT_TRUE(same_bits(im2col(poisoned(-kInf), scale),
                        im2col(poisoned(-1e30F), scale)));

  // im2col at a per-image scale: max|x| skips the NaN, which then
  // quantizes like 0. An infinity makes its image's scale infinite, so
  // every value of that image quantizes to 0 and dequantizes as 0 * inf:
  // all of its outputs are NaN, and the other image is untouched.
  EXPECT_TRUE(same_bits(im2col(poisoned(kNan), 0.0F),
                        im2col(poisoned(0.0F), 0.0F)));
  const Tensor4f clean_dyn = im2col(clean, 0.0F);
  const std::size_t per_image = clean_dyn.size() / 2;
  for (const float v : {kInf, -kInf}) {
    const Tensor4f got = im2col(poisoned(v), 0.0F);
    const auto flat = got.flat();
    EXPECT_TRUE(std::all_of(flat.begin(), flat.begin() + per_image,
                            [](float x) { return std::isnan(x); }));
    EXPECT_EQ(std::memcmp(flat.data() + per_image,
                          clean_dyn.flat().data() + per_image,
                          per_image * sizeof(float)),
              0);
  }

  // Winograd form: each tile position takes its scale from the max over
  // channels, which skips NaN. A NaN therefore quantizes to 0 and every
  // output stays finite; an infinity makes its positions' scales infinite
  // and the outputs it reaches NaN. Either way the outputs of every tile
  // whose input window misses the pixel are bit-identical to the clean run.
  for (const int m : {2, 4}) {
    const auto mm = static_cast<std::size_t>(m);
    const Tensor4f want = quant::conv2d_winograd_int8(clean, kernels, m, 1);
    const auto window_holds_pixel = [&](std::size_t oy, std::size_t ox) {
      // Tile (oy / m, ox / m) reads input rows/cols [t*m - 1, t*m + m + 1].
      const auto covers = [&](std::size_t o, std::size_t p) {
        const std::size_t lo = o / mm * mm;  // t*m
        return p + 1 >= lo && p <= lo + mm + 1;
      };
      return covers(oy, py) && covers(ox, px);
    };
    for (const float v : {kNan, kInf, -kInf}) {
      const Tensor4f got =
          quant::conv2d_winograd_int8(poisoned(v), kernels, m, 1);
      EXPECT_TRUE(same_bits(
          got, quant::conv2d_winograd_int8(poisoned(v), kernels, m, 1)));
      std::size_t reached = 0;
      for (std::size_t img = 0; img < 2; ++img) {
        for (std::size_t k = 0; k < 4; ++k) {
          for (std::size_t oy = 0; oy < 9; ++oy) {
            for (std::size_t ox = 0; ox < 7; ++ox) {
              const float g = got(img, k, oy, ox);
              const float w = want(img, k, oy, ox);
              const bool same = std::memcmp(&g, &w, sizeof(float)) == 0;
              if (img == 1 || !window_holds_pixel(oy, ox)) {
                EXPECT_TRUE(same) << "m=" << m << " v=" << v;
              } else if (std::isnan(v)) {
                EXPECT_TRUE(std::isfinite(g)) << "m=" << m;
              } else if (!same) {
                EXPECT_TRUE(std::isnan(g)) << "m=" << m << " v=" << v;
                ++reached;
              }
            }
          }
        }
      }
      if (!std::isnan(v)) EXPECT_GT(reached, 0u) << "m=" << m << " v=" << v;
    }
  }
}

TEST(ErrorModel, AmplificationGrowsWithTileSize) {
  const winograd::ErrorModel e2 = winograd::error_model(2, 3);
  const winograd::ErrorModel e4 = winograd::error_model(4, 3);
  EXPECT_GT(e4.kappa_2d, e2.kappa_2d);
  EXPECT_GT(e2.kappa_2d, 1.0);
  // The estimate is linear in the input magnitude.
  EXPECT_DOUBLE_EQ(e4.fp32_error_estimate(2.0),
                   2.0 * e4.fp32_error_estimate(1.0));
}

TEST(ErrorModel, PredictedLayerErrorOrdering) {
  const ConvLayerSpec layer = conv_spec(16, 8, 8);
  const LayerActivationStats stats{.max_abs = 2.0, .rms = 0.5};
  const double fp32_direct =
      predict_layer_rel_error(layer, ConvAlgo::kIm2col, &stats);
  const double fp32_w4 =
      predict_layer_rel_error(layer, ConvAlgo::kWinograd4, &stats);
  const double i8_im2col =
      predict_layer_rel_error(layer, ConvAlgo::kInt8Im2col, &stats);
  const double i8_w2 =
      predict_layer_rel_error(layer, ConvAlgo::kInt8Winograd2, &stats);
  const double i8_w4 =
      predict_layer_rel_error(layer, ConvAlgo::kInt8Winograd4, &stats);
  // fp32 rounding sits orders of magnitude below the int8 grid; within
  // int8, transform-domain quantization costs more as m grows.
  EXPECT_LT(fp32_direct, fp32_w4);
  EXPECT_LT(fp32_w4, i8_im2col);
  EXPECT_LT(i8_im2col, i8_w2);
  EXPECT_LT(i8_w2, i8_w4);
  // fp32 predictions work without stats; int8 without calibration is
  // unbounded so a budgeted planner can never pick it blind.
  EXPECT_GT(predict_layer_rel_error(layer, ConvAlgo::kWinograd2, nullptr),
            0.0);
  EXPECT_TRUE(std::isinf(
      predict_layer_rel_error(layer, ConvAlgo::kInt8Im2col, nullptr)));
}

TEST(Planner, CalibrationRecordsPerConvLayerStats) {
  const auto layers = vgg16_d_scaled(28, 16);
  const WeightBank weights = random_weights(layers, 9);
  std::size_t conv_count = 0;
  for (const LayerSpec& l : layers) {
    conv_count += l.kind == LayerKind::kConv ? 1 : 0;
  }
  Rng rng(11);
  Tensor4f sample(2, 3, 8, 8);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);
  const QuantCalibration cal = calibrate_activations(layers, weights, sample);
  ASSERT_EQ(cal.conv_inputs.size(), conv_count);
  for (std::size_t i = 0; i < cal.conv_inputs.size(); ++i) {
    EXPECT_GT(cal.conv_inputs[i].max_abs, 0.0) << "conv " << i;
    EXPECT_GT(cal.conv_inputs[i].rms, 0.0) << "conv " << i;
    EXPECT_GE(cal.conv_inputs[i].max_abs, cal.conv_inputs[i].rms);
  }
}

TEST(Planner, ErrorBudgetDemotionChain) {
  // One conv layer, analytic scoring, candidates spanning the precision
  // ladder. As the budget tightens through the predicted-error midpoints
  // the planner demotes: int8 Winograd -> int8 im2col -> fp32 — and
  // throws when even fp32 cannot meet it.
  const ConvLayerSpec conv = conv_spec(16, 8, 8);
  std::vector<LayerSpec> layers(1);
  layers[0].kind = LayerKind::kConv;
  layers[0].conv = conv;

  const LayerActivationStats stats{.max_abs = 2.0, .rms = 0.5};
  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.quant = QuantCalibration{{stats}};
  opts.candidates = {ConvAlgo::kInt8Winograd4, ConvAlgo::kInt8Winograd2,
                     ConvAlgo::kInt8Im2col, ConvAlgo::kIm2col};

  const double e_fp32 = predict_layer_rel_error(conv, ConvAlgo::kIm2col,
                                                &stats);
  const double e_i8 =
      predict_layer_rel_error(conv, ConvAlgo::kInt8Im2col, &stats);
  const double e_w2 =
      predict_layer_rel_error(conv, ConvAlgo::kInt8Winograd2, &stats);
  const double e_w4 =
      predict_layer_rel_error(conv, ConvAlgo::kInt8Winograd4, &stats);
  ASSERT_LT(e_fp32, e_i8);
  ASSERT_LT(e_i8, e_w2);
  ASSERT_LT(e_w2, e_w4);

  // Budget above every candidate: int8 wins on (analytic) speed.
  opts.constraints.max_rel_error = e_w4 * 1.01;
  ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_TRUE(is_int8(plan.steps[0].algo));
  EXPECT_EQ(plan.int8_layers, 1u);
  EXPECT_LE(plan.predicted_max_rel_error, opts.constraints.max_rel_error);
  EXPECT_GT(plan.predicted_max_rel_error, 0.0);
  // The chosen int8 layer carries the calibration's static scale.
  EXPECT_FLOAT_EQ(plan.steps[0].act_scale,
                  static_cast<float>(stats.max_abs / 127.0));

  // Between int8-W2 and int8-W4: F(4,3) is out.
  opts.constraints.max_rel_error = (e_w2 + e_w4) / 2;
  plan = plan_execution(layers, opts);
  EXPECT_NE(plan.steps[0].algo, ConvAlgo::kInt8Winograd4);
  EXPECT_TRUE(is_int8(plan.steps[0].algo));

  // Between int8-im2col and int8-W2: only the spatial-domain int8 form
  // survives the gate, and it beats fp32 im2col on speed.
  opts.constraints.max_rel_error = (e_i8 + e_w2) / 2;
  plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.steps[0].algo, ConvAlgo::kInt8Im2col);

  // Between fp32 and int8: every int8 form is out; the plan goes fp32.
  opts.constraints.max_rel_error = (e_fp32 + e_i8) / 2;
  plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.steps[0].algo, ConvAlgo::kIm2col);
  EXPECT_EQ(plan.int8_layers, 0u);

  // Below even fp32's rounding floor: nothing fits.
  opts.constraints.max_rel_error = 1e-12;
  EXPECT_THROW(plan_execution(layers, opts), std::invalid_argument);
}

TEST(Planner, BudgetWithoutCalibrationNeverPicksInt8) {
  const auto layers = vgg16_d_scaled(28, 16);
  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.candidates = quantized_candidates();
  opts.candidates.push_back(ConvAlgo::kIm2col);
  opts.constraints.max_rel_error = 0.5;  // generous — but int8 is unproven
  const ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_EQ(plan.int8_layers, 0u);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind != LayerKind::kConv) continue;
    EXPECT_EQ(plan.steps[i].algo, ConvAlgo::kIm2col);
  }
}

TEST(Planner, UniformInt8PlanFusesRelu) {
  const auto layers = vgg16_d_scaled(28, 16);
  const ExecutionPlan plan = uniform_plan(layers, ConvAlgo::kInt8Im2col);
  std::size_t conv_count = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind == LayerKind::kConv) {
      EXPECT_TRUE(plan.steps[i].fused_relu);
      ++conv_count;
    }
  }
  EXPECT_EQ(plan.int8_layers, conv_count);
}

// The tentpole acceptance pin: a quantized mixed-precision plan executes
// bit-identically to the per-layer reference composition at every batch
// size and thread count, and its end-to-end error against the all-fp32
// network stays within the planner's budget.
TEST(ForwardPlan, QuantizedPlanBitIdenticalAndWithinBudget) {
  const auto layers = vgg16_d_scaled(14, 16);
  const WeightBank weights = random_weights(layers, 55);
  Rng rng(57);
  Tensor4f sample(2, 3, 16, 16);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);

  PlannerOptions opts;
  opts.calibration = default_calibration();
  opts.quant = calibrate_activations(layers, weights, sample);
  opts.constraints.max_rel_error = 0.1;
  opts.candidates = {ConvAlgo::kWinograd2, ConvAlgo::kWinograd4,
                     ConvAlgo::kIm2col};
  for (const ConvAlgo algo : quantized_candidates()) {
    opts.candidates.push_back(algo);
  }
  const ExecutionPlan plan = plan_execution(layers, opts);
  EXPECT_GT(plan.int8_layers, 0u);
  EXPECT_LE(plan.predicted_max_rel_error, 0.1);

  for (const std::size_t batch : {1u, 3u}) {
    Tensor4f input(batch, 3, 16, 16);
    rng.fill_uniform(input.flat(), -1.0F, 1.0F);
    const Tensor4f reference = forward_reference(plan, weights, input);
    for (const std::size_t threads : {1u, 2u, 7u}) {
      runtime::ThreadPool::set_global_threads(threads);
      ASSERT_TRUE(same_bits(forward(plan, weights, input), reference))
          << "batch=" << batch << " threads=" << threads;
    }
    // End-to-end accuracy: the quantized network against the all-fp32 one.
    const Tensor4f fp32 =
        forward(layers, weights, input, ConvAlgo::kIm2col);
    EXPECT_LE(rel_max_error(reference, fp32),
              static_cast<float>(opts.constraints.max_rel_error))
        << "batch=" << batch;
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

// forward(plan) == forward_reference when the input carries a NaN or an
// infinity, for every int8 form and two fp32 ones. The executor fuses ReLU
// into each conv's output store, the reference applies relu_inplace after
// the unfused conv; both must map a NaN conv output to 0 (an infinity
// reaching an int8 Winograd tile's scales makes its outputs NaN).
TEST(ForwardPlan, NonFiniteInputsMatchReferenceForEveryForm) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<LayerSpec> layers(2);
  layers[0].conv = conv_spec(8, 3, 4);
  layers[1].conv = conv_spec(8, 4, 4);
  const WeightBank weights = random_weights(layers, 131);
  Rng rng(137);
  Tensor4f clean(2, 3, 8, 8);
  rng.fill_uniform(clean.flat(), -1.0F, 1.0F);
  for (const float v : {kNan, kInf, -kInf}) {
    Tensor4f input = clean;
    input(0, 1, 4, 3) = v;
    for (const ConvAlgo algo :
         {ConvAlgo::kInt8Winograd2, ConvAlgo::kInt8Winograd4,
          ConvAlgo::kInt8Im2col, ConvAlgo::kWinograd2, ConvAlgo::kIm2col}) {
      const ExecutionPlan plan = uniform_plan(layers, algo);
      EXPECT_TRUE(same_bits(forward(plan, weights, input),
                            forward_reference(plan, weights, input)))
          << to_string(algo) << " v=" << v;
    }
  }
}

TEST(Serve, QuantizedSessionServesBitIdenticalResults) {
  const auto layers = vgg16_d_scaled(14, 16);
  WeightBank weights = random_weights(layers, 63);
  Rng rng(65);
  Tensor4f sample(1, 3, 16, 16);
  rng.fill_uniform(sample.flat(), -1.0F, 1.0F);

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceServer server(cfg);
  PlannerOptions opts;
  opts.calibration = default_calibration();  // deterministic registration
  const auto id = server.add_model_quantized(
      "quantized", layers, weights, sample, /*max_rel_error=*/0.1, opts);
  EXPECT_GT(server.model_plan(id).int8_layers, 0u);

  std::vector<Tensor4f> images;
  for (int i = 0; i < 5; ++i) {
    Tensor4f img(1, 3, 16, 16);
    rng.fill_uniform(img.flat(), -1.0F, 1.0F);
    images.push_back(std::move(img));
  }
  std::vector<std::future<Tensor4f>> futures;
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

}  // namespace
}  // namespace wino::nn
