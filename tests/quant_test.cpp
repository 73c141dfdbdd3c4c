#include "quant/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "conv/spatial.hpp"
#include "winograd/kernels.hpp"

namespace wino::quant {
namespace {

using common::Rng;
using tensor::Tensor4f;

TEST(FixedPointFormat, QuantizesToGrid) {
  const FixedPointFormat q8{.total_bits = 8, .frac_bits = 4};
  EXPECT_FLOAT_EQ(q8.quantize(0.25F), 0.25F);   // exactly representable
  EXPECT_FLOAT_EQ(q8.quantize(0.26F), 0.25F);   // rounds to 4/16
  EXPECT_FLOAT_EQ(q8.quantize(0.21F), 0.1875F); // rounds to 3/16
  EXPECT_FLOAT_EQ(q8.quantize(-0.25F), -0.25F);
}

TEST(FixedPointFormat, Saturates) {
  const FixedPointFormat q8{.total_bits = 8, .frac_bits = 4};
  EXPECT_FLOAT_EQ(q8.quantize(100.0F), q8.max_value());
  EXPECT_FLOAT_EQ(q8.quantize(-100.0F), q8.min_value());
  EXPECT_FLOAT_EQ(static_cast<float>(q8.max_value()), 127.0F / 16.0F);
  EXPECT_FLOAT_EQ(static_cast<float>(q8.min_value()), -8.0F);
}

TEST(FixedPointFormat, RejectsBadWidths) {
  const FixedPointFormat bad{.total_bits = 4, .frac_bits = 8};
  EXPECT_THROW(static_cast<void>(bad.quantize(1.0F)),
               std::invalid_argument);
}

TEST(FixedPointFormat, RejectsDegenerateWidths) {
  // A 1-bit two's-complement format has no magnitude bits, >32 overflows
  // the int64 shifts, and frac_bits must leave at least the sign bit.
  for (const FixedPointFormat fmt :
       {FixedPointFormat{.total_bits = 1, .frac_bits = 0},
        FixedPointFormat{.total_bits = 0, .frac_bits = 0},
        FixedPointFormat{.total_bits = 33, .frac_bits = 8},
        FixedPointFormat{.total_bits = 16, .frac_bits = 16},
        FixedPointFormat{.total_bits = 16, .frac_bits = -1}}) {
    EXPECT_THROW(static_cast<void>(fmt.quantize(0.0F)),
                 std::invalid_argument)
        << "total=" << fmt.total_bits << " frac=" << fmt.frac_bits;
  }
}

TEST(FixedPointFormat, InfinitiesSaturate) {
  const FixedPointFormat q8{.total_bits = 8, .frac_bits = 4};
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_FLOAT_EQ(q8.quantize(kInf), static_cast<float>(q8.max_value()));
  EXPECT_FLOAT_EQ(q8.quantize(-kInf), static_cast<float>(q8.min_value()));
}

TEST(FixedPointFormat, NanMapsToZero) {
  // A naive min/max clamp funnels NaN to the most negative code (every
  // comparison is false); the contract pins it to 0 instead.
  const FixedPointFormat q8{.total_bits = 8, .frac_bits = 4};
  EXPECT_FLOAT_EQ(q8.quantize(std::numeric_limits<float>::quiet_NaN()),
                  0.0F);
}

TEST(FixedPointFormat, NegativeSaturationIsExactCode) {
  // The most negative code is -2^(total-1) / 2^frac — asymmetric (one step
  // deeper than max_value); values below must pin to it exactly.
  const FixedPointFormat q8{.total_bits = 8, .frac_bits = 4};
  EXPECT_FLOAT_EQ(q8.quantize(-8.0F), -8.0F);         // exactly min_value
  EXPECT_FLOAT_EQ(q8.quantize(-8.03125F), -8.0F);     // half step below
  EXPECT_FLOAT_EQ(q8.quantize(-1.0e20F), -8.0F);      // far below
  EXPECT_FLOAT_EQ(static_cast<float>(q8.min_value()), -8.0F);
}

TEST(FixedPointFormat, WideFormatsNearLossless) {
  const FixedPointFormat q24{.total_bits = 24, .frac_bits = 16};
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const float v = rng.uniform(-2.0F, 2.0F);
    EXPECT_NEAR(q24.quantize(v), v, 1.0F / 65536.0F);
  }
}

TEST(QuantizedConv, MatchesFp32ForWideWordlength) {
  Rng rng(11);
  Tensor4f input(1, 3, 8, 8);
  Tensor4f kernels(2, 3, 3, 3);
  rng.fill_uniform(input.flat());
  rng.fill_uniform(kernels.flat());
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  const FixedPointFormat q24{.total_bits = 24, .frac_bits = 16};
  const Tensor4f got = conv2d_winograd_quantized(input, kernels, 2, q24, 1);
  const QuantError e = compare(got, ref);
  EXPECT_LE(e.relative_max(), 1e-3F);
}

TEST(QuantizedConv, ErrorGrowsAsWordlengthShrinks) {
  Rng rng(13);
  Tensor4f input(1, 4, 12, 12);
  Tensor4f kernels(3, 4, 3, 3);
  rng.fill_uniform(input.flat());
  rng.fill_uniform(kernels.flat(), -0.5F, 0.5F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  float prev = -1.0F;
  for (const int bits : {24, 18, 12}) {
    const FixedPointFormat fmt{.total_bits = bits, .frac_bits = bits - 6};
    const Tensor4f got =
        conv2d_winograd_quantized(input, kernels, 2, fmt, 1);
    const float err = compare(got, ref).rms;
    EXPECT_GT(err, prev) << "bits=" << bits;
    prev = err;
  }
}

TEST(QuantizedConv, HigherOrderNeedsMoreBits) {
  // The F(4,3) transform constants (1/24 etc.) amplify quantisation noise
  // relative to F(2,3) at equal wordlength.
  Rng rng(17);
  Tensor4f input(1, 2, 8, 8);
  Tensor4f kernels(2, 2, 3, 3);
  rng.fill_uniform(input.flat());
  rng.fill_uniform(kernels.flat(), -0.5F, 0.5F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  const FixedPointFormat fmt{.total_bits = 16, .frac_bits = 10};
  const float err2 =
      compare(conv2d_winograd_quantized(input, kernels, 2, fmt, 1), ref).rms;
  const float err4 =
      compare(conv2d_winograd_quantized(input, kernels, 4, fmt, 1), ref).rms;
  EXPECT_GT(err4, err2);
}

TEST(QuantizedConv, GuardBitsRescueSaturation) {
  // F(4,3)'s transform constants push intermediates past the external
  // range; without guard bits the datapath saturates and the result is
  // garbage, with them it tracks the reference.
  Rng rng(19);
  Tensor4f input(1, 2, 8, 8);
  Tensor4f kernels(1, 2, 3, 3);
  rng.fill_uniform(input.flat());
  rng.fill_uniform(kernels.flat(), -0.5F, 0.5F);
  const Tensor4f ref =
      conv::conv2d_spatial(input, kernels, {.pad = 1, .stride = 1});
  const FixedPointFormat fmt{.total_bits = 16, .frac_bits = 10};
  const float with_guard =
      compare(conv2d_winograd_quantized(input, kernels, 4, fmt, 1, 8), ref)
          .relative_max();
  const float without =
      compare(conv2d_winograd_quantized(input, kernels, 4, fmt, 1, 0), ref)
          .relative_max();
  EXPECT_LT(with_guard, 0.05F);
  EXPECT_GT(without, with_guard * 10);
}

// The simulated datapath evaluated directly, one (image, kernel, tile) at
// a time: every channel's input tile is rounded to `fmt`, transformed and
// rounded to the guard-bit width per kernel, each product and the channel
// sum are rounded, and the inverse is narrowed back to `fmt`.
Tensor4f quantized_datapath_recipe(const Tensor4f& input,
                                   const Tensor4f& kernels, int m,
                                   const FixedPointFormat& fmt, int pad,
                                   int guard_bits) {
  const auto& is = input.shape();
  const auto& ks = kernels.shape();
  const FixedPointFormat wide{fmt.total_bits + guard_bits, fmt.frac_bits};
  const winograd::TileTransformer xf(winograd::transforms(m, 3));
  const auto mm = static_cast<std::size_t>(m);
  const auto n = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n * n;
  const std::size_t oh = is.h + 2 * static_cast<std::size_t>(pad) - 2;
  const std::size_t ow = is.w + 2 * static_cast<std::size_t>(pad) - 2;
  Tensor4f out(is.n, ks.n, oh, ow);
  std::vector<float> g(9), v(nsq), d(nsq), u(nsq), acc(nsq), y(mm * mm);
  for (std::size_t img = 0; img < is.n; ++img) {
    for (std::size_t k = 0; k < ks.n; ++k) {
      for (std::size_t ty = 0; ty * mm < oh; ++ty) {
        for (std::size_t tx = 0; tx * mm < ow; ++tx) {
          std::fill(acc.begin(), acc.end(), 0.0F);
          for (std::size_t c = 0; c < is.c; ++c) {
            for (std::size_t i = 0; i < 9; ++i) {
              g[i] = fmt.quantize(kernels(k, c, i / 3, i % 3));
            }
            xf.transform_filter(g, v);
            for (float& x : v) x = wide.quantize(x);
            for (std::size_t i = 0; i < nsq; ++i) {
              d[i] = fmt.quantize(input.padded(
                  img, c, static_cast<std::ptrdiff_t>(ty * mm + i / n) - pad,
                  static_cast<std::ptrdiff_t>(tx * mm + i % n) - pad));
            }
            xf.transform_data(d, u);
            for (float& x : u) x = wide.quantize(x);
            for (std::size_t i = 0; i < nsq; ++i) {
              acc[i] += wide.quantize(u[i] * v[i]);
            }
          }
          for (float& x : acc) x = wide.quantize(x);
          xf.inverse(acc, y);
          for (std::size_t i = 0; i < mm && ty * mm + i < oh; ++i) {
            for (std::size_t j = 0; j < mm && tx * mm + j < ow; ++j) {
              out(img, k, ty * mm + i, tx * mm + j) =
                  fmt.quantize(y[i * mm + j]);
            }
          }
        }
      }
    }
  }
  return out;
}

// The shared tile walk transforms each column's data once for all K
// kernels; the datapath it simulates must stay bit-identical to the
// direct per-kernel evaluation over tile sizes, padding, ragged and prime
// extents, wordlengths and guard bits.
TEST(QuantizedConv, WalkMatchesDirectDatapathRecipe) {
  Rng rng(23);
  Tensor4f input(2, 3, 11, 7);
  Tensor4f kernels(4, 3, 3, 3);
  rng.fill_uniform(input.flat(), -2.0F, 2.0F);
  rng.fill_uniform(kernels.flat(), -0.5F, 0.5F);
  const FixedPointFormat formats[] = {
      {.total_bits = 16, .frac_bits = 10},
      {.total_bits = 12, .frac_bits = 8},
      {.total_bits = 8, .frac_bits = 4}};
  for (const int m : {2, 3, 4}) {
    for (const int pad : {0, 1}) {
      for (const FixedPointFormat& fmt : formats) {
        for (const int guard : {0, 4, 8}) {
          const Tensor4f got =
              conv2d_winograd_quantized(input, kernels, m, fmt, pad, guard);
          const Tensor4f want =
              quantized_datapath_recipe(input, kernels, m, fmt, pad, guard);
          ASSERT_EQ(got.shape(), want.shape());
          EXPECT_EQ(std::memcmp(got.flat().data(), want.flat().data(),
                                want.size() * sizeof(float)),
                    0)
              << "m=" << m << " pad=" << pad << " Q" << fmt.total_bits << "."
              << fmt.frac_bits << " guard=" << guard;
        }
      }
    }
  }
}

TEST(QuantizedConv, RejectsExcessGuardBits) {
  const Tensor4f in(1, 1, 4, 4);
  const Tensor4f k(1, 1, 3, 3);
  const FixedPointFormat q32{.total_bits = 32, .frac_bits = 20};
  EXPECT_THROW(conv2d_winograd_quantized(in, k, 2, q32, 1),  // 32 + 8 > 32
               std::invalid_argument);
  EXPECT_NO_THROW(conv2d_winograd_quantized(in, k, 2, q32, 1, 0));
}

TEST(QuantizeTensor, InPlace) {
  Tensor4f t(1, 1, 1, 3);
  t(0, 0, 0, 0) = 0.26F;
  t(0, 0, 0, 1) = -0.22F;
  t(0, 0, 0, 2) = 99.0F;
  const FixedPointFormat q8{.total_bits = 8, .frac_bits = 4};
  quantize_tensor(t, q8);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 0), 0.25F);
  EXPECT_FLOAT_EQ(t(0, 0, 0, 2), q8.max_value());
}

TEST(Compare, ShapeMismatchThrows) {
  const Tensor4f a(1, 1, 2, 2);
  const Tensor4f b(1, 1, 2, 3);
  EXPECT_THROW(compare(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace wino::quant
