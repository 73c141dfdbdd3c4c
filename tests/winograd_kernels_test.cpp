#include "winograd/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "conv/spatial.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::winograd {
namespace {

using common::Rng;
using conv::conv2d_spatial;
using tensor::Tensor4f;

Tensor4f random_tensor(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w, Rng& rng) {
  Tensor4f t(n, c, h, w);
  rng.fill_uniform(t.flat());
  return t;
}

// Error tolerance scaled to data magnitude; higher-order transforms have
// larger constants and thus larger float error.
float tol_for(int m) { return m <= 4 ? 2e-4F : 5e-3F; }

// One tile through the reference walk: a single (m+r-1)^2 input at pad 0
// yields exactly one m x m output tile, Y = A^T[(G g G^T) . (B^T d B)]A.
std::vector<float> single_tile(const TileTransformer& xf,
                               const std::vector<float>& d,
                               const std::vector<float>& g) {
  const auto n = static_cast<std::size_t>(xf.tile());
  const auto r = static_cast<std::size_t>(xf.r());
  const Tensor4f input({1, 1, n, n}, std::vector<float>(d));
  const Tensor4f kernels({1, 1, r, r}, std::vector<float>(g));
  const Tensor4f y = conv2d_winograd(input, kernels, xf);
  return {y.flat().begin(), y.flat().end()};
}

TEST(TileTransformer, OneDMatchesDirectCorrelation) {
  // A kernel whose only non-zero row is the middle one makes every output
  // row the 1-D correlation of the input row below it.
  Rng rng;
  for (int m = 2; m <= 7; ++m) {
    const TileTransformer xf(transforms(m, 3));
    const auto n = static_cast<std::size_t>(xf.tile());
    const auto mm = static_cast<std::size_t>(m);
    std::vector<float> d(n * n);
    std::vector<float> g(9, 0.0F);
    rng.fill_uniform(d);
    rng.fill_uniform(std::span<float>(g).subspan(3, 3));
    const std::vector<float> y = single_tile(xf, d, g);
    for (std::size_t oy = 0; oy < mm; ++oy) {
      for (std::size_t k = 0; k < mm; ++k) {
        float want = 0.0F;
        for (std::size_t j = 0; j < 3; ++j) {
          want += g[3 + j] * d[(oy + 1) * n + k + j];
        }
        EXPECT_NEAR(y[oy * mm + k], want, tol_for(m))
            << "m=" << m << " row=" << oy << " k=" << k;
      }
    }
  }
}

TEST(TileTransformer, TileConvolutionMatchesSpatialSingleTile) {
  Rng rng;
  for (int m = 2; m <= 5; ++m) {
    const TileTransformer xf(transforms(m, 3));
    const auto n = static_cast<std::size_t>(xf.tile());
    const auto mm = static_cast<std::size_t>(m);
    std::vector<float> d(n * n);
    std::vector<float> g(9);
    rng.fill_uniform(d);
    rng.fill_uniform(g);
    const std::vector<float> y = single_tile(xf, d, g);
    for (std::size_t oy = 0; oy < mm; ++oy) {
      for (std::size_t ox = 0; ox < mm; ++ox) {
        float want = 0.0F;
        for (std::size_t u = 0; u < 3; ++u) {
          for (std::size_t v = 0; v < 3; ++v) {
            want += d[(oy + u) * n + (ox + v)] * g[u * 3 + v];
          }
        }
        EXPECT_NEAR(y[oy * mm + ox], want, tol_for(m)) << "m=" << m;
      }
    }
  }
}

TEST(TileTransformer, FilterTransformIdentityKernel) {
  // A centre-tap delta kernel convolved with anything returns the centre
  // crop; checks transform_filter and inverse wiring end to end.
  const TileTransformer xf(transforms(2, 3));
  std::vector<float> g(9, 0.0F);
  g[4] = 1.0F;  // centre tap
  std::vector<float> d(16);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<float>(i);
  const std::vector<float> y = single_tile(xf, d, g);
  EXPECT_NEAR(y[0], d[1 * 4 + 1], 1e-4F);
  EXPECT_NEAR(y[1], d[1 * 4 + 2], 1e-4F);
  EXPECT_NEAR(y[2], d[2 * 4 + 1], 1e-4F);
  EXPECT_NEAR(y[3], d[2 * 4 + 2], 1e-4F);
}

// TileTransformer binds fixed-bound copies of the sandwich for every
// transform of F(2,3), F(3,3) and F(4,3), and the runtime loop for any
// other shape; F(5,3) and F(3,5) cover the latter. Each must write the
// bytes the runtime-bound loop (winograd::sandwich) writes: over 10k
// random tiles of mixed magnitude, and over tiles built from +-0,
// subnormals and +-1e30 (large but finite through both products).
TEST(TileTransformer, FixedBoundTransformsBitIdenticalToRuntimeLoop) {
  Rng rng(4099);
  const float specials[] = {0.0F,    -0.0F,    1e-45F, -1e-45F, 1e-40F,
                            -3e-39F, 1e30F,    -1e30F, 1.0F,    -1.0F};
  const std::pair<int, int> forms[] = {{2, 3}, {3, 3}, {4, 3}, {5, 3}, {3, 5}};
  for (const auto& [m, r] : forms) {
    const TransformSet& t = transforms(m, r);
    const TileTransformer xf(t);
    const auto n = static_cast<std::size_t>(t.tile());
    const auto mm = static_cast<std::size_t>(m);
    const auto rr = static_cast<std::size_t>(r);
    using Method = void (TileTransformer::*)(std::span<const float>,
                                             std::span<float>) const;
    const struct {
      const char* name;
      FMatrix mat;
      std::size_t in, out;
      Method run;
    } transforms_of_form[] = {
        {"data", t.bt_f(), n * n, n * n, &TileTransformer::transform_data},
        {"inverse", t.at_f(), n * n, mm * mm, &TileTransformer::inverse},
        {"filter", t.g_f(), rr * rr, n * n,
         &TileTransformer::transform_filter},
    };
    for (const auto& x : transforms_of_form) {
      std::vector<float> in(x.in);
      std::vector<float> want(x.out);
      std::vector<float> got(x.out);
      for (int tile = 0; tile < 12000; ++tile) {
        if (tile < 10000) {
          // Magnitudes from 2^-20 to 2^20, so the two products round at
          // many exponents.
          for (float& v : in) {
            v = std::ldexp(rng.uniform(),
                           static_cast<int>(rng.uniform_int(-20, 20)));
          }
        } else {
          for (float& v : in) {
            v = specials[rng.uniform_int(0, std::size(specials) - 1)];
          }
        }
        sandwich(x.mat, in, want);
        std::fill(got.begin(), got.end(), -7.0F);
        (xf.*x.run)(in, got);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "F(" << m << "," << r << ") " << x.name << " tile " << tile;
      }
    }
  }
}

struct LayerCase {
  int m;
  std::size_t h, w, c, k;
  int pad;
};

class WinogradLayerConv : public ::testing::TestWithParam<LayerCase> {};

TEST_P(WinogradLayerConv, MatchesSpatialConvolution) {
  const auto p = GetParam();
  Rng rng(p.m * 1000 + p.h);
  const Tensor4f input = random_tensor(1, p.c, p.h, p.w, rng);
  const Tensor4f kernels = random_tensor(p.k, p.c, 3, 3, rng);

  const Tensor4f ref =
      conv2d_spatial(input, kernels, {.pad = p.pad, .stride = 1});
  WinogradConvOptions opt;
  opt.pad = p.pad;
  const Tensor4f fast = conv2d_winograd(input, kernels, p.m, opt);

  ASSERT_EQ(fast.shape(), ref.shape());
  const float scale = std::max(1.0F, tensor::max_abs(ref));
  EXPECT_LE(tensor::max_abs_diff(fast, ref) / scale, tol_for(p.m));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WinogradLayerConv,
    ::testing::Values(
        // Exact multiples of m, with and without padding.
        LayerCase{2, 8, 8, 3, 4, 1}, LayerCase{2, 8, 8, 1, 1, 0},
        LayerCase{3, 11, 11, 2, 3, 1}, LayerCase{4, 10, 10, 4, 2, 1},
        LayerCase{4, 6, 6, 1, 1, 0},
        // Ragged sizes exercising edge-tile clipping.
        LayerCase{2, 7, 9, 2, 2, 1}, LayerCase{3, 7, 5, 3, 2, 1},
        LayerCase{4, 9, 7, 2, 2, 1}, LayerCase{5, 13, 11, 2, 2, 1},
        LayerCase{6, 14, 9, 1, 2, 1}, LayerCase{7, 15, 10, 2, 1, 1},
        // Non-square images.
        LayerCase{2, 4, 16, 2, 2, 1}, LayerCase{4, 16, 4, 2, 2, 0}),
    [](const auto& info) {
      const auto& p = info.param;
      return "m" + std::to_string(p.m) + "_h" + std::to_string(p.h) + "w" +
             std::to_string(p.w) + "c" + std::to_string(p.c) + "k" +
             std::to_string(p.k) + "p" + std::to_string(p.pad);
    });

TEST(WinogradLayer, FiveByFiveKernelsMatchSpatial) {
  // AlexNet's conv2 regime: r = 5, pad = 2 (see nn::alexnet()). The
  // generator, tiling and padding logic must all be r-generic.
  Rng rng(55);
  const Tensor4f input = random_tensor(1, 3, 13, 13, rng);
  const Tensor4f kernels = random_tensor(2, 3, 5, 5, rng);
  const Tensor4f ref =
      conv2d_spatial(input, kernels, {.pad = 2, .stride = 1});
  for (const int m : {2, 4}) {
    WinogradConvOptions opt;
    opt.pad = 2;
    const TileTransformer xf(transforms(m, 5));
    const Tensor4f fast = conv2d_winograd(input, kernels, xf, opt);
    ASSERT_EQ(fast.shape(), ref.shape()) << "m=" << m;
    const float scale = std::max(1.0F, tensor::max_abs(ref));
    EXPECT_LE(tensor::max_abs_diff(fast, ref) / scale, 2e-3F) << "m=" << m;
  }
}

TEST(WinogradLayer, AccumulationOrdersAgree) {
  // Transform-domain accumulation (software) and post-inverse accumulation
  // (the paper's hardware, Fig 7) must agree by linearity of A^T . A.
  Rng rng(99);
  const Tensor4f input = random_tensor(1, 5, 12, 12, rng);
  const Tensor4f kernels = random_tensor(3, 5, 3, 3, rng);
  WinogradConvOptions a;
  a.pad = 1;
  a.accumulation = AccumulationOrder::kTransformDomain;
  WinogradConvOptions b;
  b.pad = 1;
  b.accumulation = AccumulationOrder::kPostInverse;
  const Tensor4f ya = conv2d_winograd(input, kernels, 3, a);
  const Tensor4f yb = conv2d_winograd(input, kernels, 3, b);
  const float scale = std::max(1.0F, tensor::max_abs(ya));
  EXPECT_LE(tensor::max_abs_diff(ya, yb) / scale, 1e-4F);
}

TEST(WinogradLayer, BatchedInputsIndependent) {
  Rng rng(7);
  const Tensor4f batch = random_tensor(3, 2, 8, 8, rng);
  const Tensor4f kernels = random_tensor(2, 2, 3, 3, rng);
  WinogradConvOptions opt;
  opt.pad = 1;
  const Tensor4f all = conv2d_winograd(batch, kernels, 2, opt);

  // Each image processed alone must equal its slice of the batch result.
  for (std::size_t img = 0; img < 3; ++img) {
    Tensor4f one(1, 2, 8, 8);
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t y = 0; y < 8; ++y) {
        for (std::size_t x = 0; x < 8; ++x) {
          one(0, c, y, x) = batch(img, c, y, x);
        }
      }
    }
    const Tensor4f single = conv2d_winograd(one, kernels, 2, opt);
    for (std::size_t k = 0; k < 2; ++k) {
      for (std::size_t y = 0; y < 8; ++y) {
        for (std::size_t x = 0; x < 8; ++x) {
          EXPECT_FLOAT_EQ(single(0, k, y, x), all(img, k, y, x));
        }
      }
    }
  }
}

TEST(WinogradLayer, RejectsChannelMismatch) {
  const Tensor4f input(1, 3, 8, 8);
  const Tensor4f kernels(2, 4, 3, 3);
  EXPECT_THROW(conv2d_winograd(input, kernels, 2), std::invalid_argument);
}

TEST(WinogradLayer, RejectsTooSmallInput) {
  const Tensor4f input(1, 1, 2, 2);
  const Tensor4f kernels(1, 1, 3, 3);
  WinogradConvOptions opt;  // no padding: 2x2 input cannot fit a 3x3 kernel
  EXPECT_THROW(conv2d_winograd(input, kernels, 2, opt),
               std::invalid_argument);
}

TEST(TransformedKernels, LayoutAndValues) {
  Rng rng(3);
  const TileTransformer xf(transforms(2, 3));
  const Tensor4f kernels = random_tensor(2, 3, 3, 3, rng);
  const TransformedKernels tk(xf, kernels);
  EXPECT_EQ(tk.kernel_count(), 2u);
  EXPECT_EQ(tk.channels(), 3u);

  // Spot-check one (k, c) against a direct transform.
  std::vector<float> g(9);
  for (std::size_t u = 0; u < 3; ++u) {
    for (std::size_t v = 0; v < 3; ++v) g[u * 3 + v] = kernels(1, 2, u, v);
  }
  std::vector<float> want(16);
  xf.transform_filter(g, want);
  const auto got = tk.v(1, 2);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_FLOAT_EQ(got[i], want[i]);
  }
}

// transform_filter_bank splits the K*C filter transforms over the pool.
// Each filter runs transform_filter's arithmetic, so the bank, and the
// TransformedKernels built on it, match a plain per-filter loop byte for
// byte at every pool size, with K*C below and above the thread count.
TEST(TransformFilterBank, BitIdenticalToPerFilterLoopAtEveryPoolSize) {
  Rng rng(211);
  const std::pair<int, int> tiles[] = {{2, 3}, {3, 3}, {4, 3}, {5, 3},
                                       {6, 3}, {2, 5}, {4, 5}};
  const std::pair<std::size_t, std::size_t> banks[] = {
      {1, 3}, {2, 3}, {5, 7}, {16, 9}};  // K*C = 3, 6, 35, 144
  for (const auto& [m, r] : tiles) {
    const TileTransformer xf(transforms(m, r));
    const auto rsq = static_cast<std::size_t>(r * r);
    const auto nsq = static_cast<std::size_t>(xf.tile() * xf.tile());
    for (const auto& [k, c] : banks) {
      const Tensor4f kernels =
          random_tensor(k, c, static_cast<std::size_t>(r),
                        static_cast<std::size_t>(r), rng);
      std::vector<float> want(k * c * nsq);
      for (std::size_t f = 0; f < k * c; ++f) {
        xf.transform_filter(kernels.flat().subspan(f * rsq, rsq),
                            std::span<float>(want).subspan(f * nsq, nsq));
      }
      for (const std::size_t threads : {1u, 2u, 7u}) {
        runtime::ThreadPool::set_global_threads(threads);
        std::vector<float> got(want.size(), -1.0F);
        transform_filter_bank(xf, kernels, got);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "F(" << m << "," << r << ") K=" << k << " C=" << c
            << " threads=" << threads;
        const TransformedKernels tk(xf, kernels);
        for (std::size_t kk = 0; kk < k; ++kk) {
          EXPECT_EQ(std::memcmp(tk.v(kk).data(), want.data() + kk * c * nsq,
                                c * nsq * sizeof(float)),
                    0)
              << "F(" << m << "," << r << ") K=" << k << " C=" << c
              << " threads=" << threads << " kernel " << kk;
        }
      }
    }
  }
  runtime::ThreadPool::set_global_threads(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(TransformFilterBank, RejectsWrongFilterSizeOrOutputExtent) {
  const TileTransformer xf(transforms(2, 3));
  const Tensor4f kernels(2, 3, 3, 3, 0.5F);
  std::vector<float> short_out(2 * 3 * 16 - 1);
  EXPECT_THROW(transform_filter_bank(xf, kernels, short_out),
               std::invalid_argument);
  const Tensor4f five(2, 3, 5, 5, 0.5F);
  std::vector<float> out(2 * 3 * 16);
  EXPECT_THROW(transform_filter_bank(xf, five, out), std::invalid_argument);
  EXPECT_THROW((void)TransformedKernels(xf, five), std::invalid_argument);
}

TEST(Conv2dWinograd, RejectsKernelBankFromDifferentTile) {
  // The cached-transform overload must refuse a TransformedKernels bank
  // built for another F(m): the tile areas differ and reading it with the
  // wrong transformer would run past the per-kernel spans.
  const TileTransformer xf2(transforms(2, 3));
  const TileTransformer xf4(transforms(4, 3));
  tensor::Tensor4f kernels(2, 3, 3, 3, 0.5F);
  const TransformedKernels tk2(xf2, kernels);
  const tensor::Tensor4f input(1, 3, 8, 8, 1.0F);
  EXPECT_THROW(conv2d_winograd(input, tk2, xf4, {}),
               std::invalid_argument);
  EXPECT_NO_THROW(conv2d_winograd(input, tk2, xf2, {}));
}

}  // namespace
}  // namespace wino::winograd
