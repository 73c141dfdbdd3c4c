// The analytic Winograd error model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hpp"
#include "winograd/error_model.hpp"
#include "winograd/kernels.hpp"

namespace wino::winograd {
namespace {

using common::Rng;

TEST(ErrorModel, InfNormExact) {
  const RMatrix m{{1, -2, 3}, {{1, 2}, {1, 2}, {0, 1}}};
  EXPECT_EQ(inf_norm(m), common::Rational(6));
}

TEST(ErrorModel, KappaGrowsWithM) {
  double prev = 0;
  for (int m = 2; m <= 7; ++m) {
    const ErrorModel e = error_model(m, 3);
    EXPECT_GT(e.kappa_2d, prev) << "m=" << m;
    EXPECT_DOUBLE_EQ(e.kappa_2d, e.kappa_1d * e.kappa_1d);
    prev = e.kappa_2d;
  }
}

TEST(ErrorModel, PredictsMeasuredErrorOrder) {
  // The analytic estimate must upper-bound (loosely) and rank the
  // empirical max error of random tile convolutions. Note: the ranking is
  // only asserted for m = 2 -> 4; the interpolation-point search can find
  // gentler constants for larger even tiles (F(6,3) measures *below*
  // F(4,3) with the searched points), so monotonicity in m is not a law.
  Rng rng(71);
  double prev_measured = 0;
  for (const int m : {2, 4}) {
    const TileTransformer xf(transforms(m, 3));
    const auto n = static_cast<std::size_t>(xf.tile());
    std::vector<float> d(n * n);
    std::vector<float> g(9);
    std::vector<float> y(static_cast<std::size_t>(m) * m);
    double worst = 0;
    for (int trial = 0; trial < 50; ++trial) {
      rng.fill_uniform(d);
      rng.fill_uniform(g);
      xf.convolve_tile(d, g, y);
      for (int oy = 0; oy < m; ++oy) {
        for (int ox = 0; ox < m; ++ox) {
          double want = 0;
          for (std::size_t u = 0; u < 3; ++u) {
            for (std::size_t v = 0; v < 3; ++v) {
              want += static_cast<double>(
                          d[(static_cast<std::size_t>(oy) + u) * n +
                            static_cast<std::size_t>(ox) + v]) *
                      g[u * 3 + v];
            }
          }
          worst = std::max(
              worst, std::abs(want - y[static_cast<std::size_t>(
                                          oy * m + ox)]));
        }
      }
    }
    const ErrorModel e = error_model(m, 3);
    EXPECT_GT(e.fp32_error_estimate(1.0) * 64, worst) << "m=" << m;
    EXPECT_GT(worst, prev_measured) << "m=" << m;  // same ranking
    prev_measured = worst;
  }
}

TEST(ErrorModel, GuardBitsCoverQuantSaturation) {
  // F(4,3) needed guard bits in the quantised datapath (see quant tests);
  // the model must demand a positive number of them, more for F(4,3) than
  // F(2,3). (F(6,3) demands *fewer* than F(4,3): the point search lands
  // on smaller constants there — same non-monotonicity as above.)
  const int g2 = error_model(2, 3).required_guard_bits();
  const int g4 = error_model(4, 3).required_guard_bits();
  const int g6 = error_model(6, 3).required_guard_bits();
  EXPECT_GE(g2, 1);
  EXPECT_GT(g4, g2);
  EXPECT_GE(g6, 1);
}

}  // namespace
}  // namespace wino::winograd
