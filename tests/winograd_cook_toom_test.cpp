// Exact (rational-arithmetic) verification of the Cook-Toom generator: for
// every supported F(m, r), the generated bilinear algorithm must equal
// direct correlation symbolically — checked on a spanning set of inputs,
// which by bilinearity proves equality for all inputs.
#include "winograd/cook_toom.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/rational.hpp"

namespace wino::winograd {
namespace {

using common::Rational;

std::vector<Rational> unit(std::size_t size, std::size_t hot) {
  std::vector<Rational> v(size);
  v[hot] = Rational(1);
  return v;
}

// Bilinearity: checking equality on all (e_i, e_j) basis pairs proves the
// two bilinear forms identical.
void expect_equals_direct(const TransformSet& t) {
  const auto n = static_cast<std::size_t>(t.tile());
  const auto r = static_cast<std::size_t>(t.r);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      const auto d = unit(n, i);
      const auto g = unit(r, j);
      const auto fast = apply_1d_exact(t, d, g);
      const auto ref = direct_correlation(d, g, t.m);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(fast[k], ref[k])
            << "F(" << t.m << "," << t.r << ") output " << k << " basis ("
            << i << "," << j << ")";
      }
    }
  }
}

struct MrCase {
  int m;
  int r;
};

class CookToomExactness : public ::testing::TestWithParam<MrCase> {};

TEST_P(CookToomExactness, MatchesDirectCorrelationExactly) {
  const auto [m, r] = GetParam();
  expect_equals_direct(cook_toom(m, r));
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperConfigs, CookToomExactness,
    ::testing::Values(MrCase{2, 3}, MrCase{3, 3}, MrCase{4, 3}, MrCase{5, 3},
                      MrCase{6, 3}, MrCase{7, 3}, MrCase{8, 3}, MrCase{2, 2},
                      MrCase{3, 2}, MrCase{2, 5}, MrCase{4, 5}, MrCase{6, 5},
                      MrCase{1, 3}, MrCase{2, 7}, MrCase{4, 7}),
    [](const auto& info) {
      return "F" + std::to_string(info.param.m) + "x" +
             std::to_string(info.param.r);
    });

TEST(CookToom, TileSizeIsMPlusRMinus1) {
  const TransformSet t = cook_toom(4, 3);
  EXPECT_EQ(t.tile(), 6);
  EXPECT_EQ(t.bt.rows(), 6u);
  EXPECT_EQ(t.bt.cols(), 6u);
  EXPECT_EQ(t.g.rows(), 6u);
  EXPECT_EQ(t.g.cols(), 3u);
  EXPECT_EQ(t.at.rows(), 4u);
  EXPECT_EQ(t.at.cols(), 6u);
}

TEST(CookToom, RejectsBadParameters) {
  EXPECT_THROW(cook_toom(0, 3), std::invalid_argument);
  EXPECT_THROW(cook_toom(2, 0), std::invalid_argument);
  EXPECT_THROW(cook_toom(2, 3, {Rational(0), Rational(1)}),
               std::invalid_argument);  // too few points
  EXPECT_THROW(cook_toom(2, 3, {Rational(0), Rational(1), Rational(1)}),
               std::invalid_argument);  // duplicate
}

TEST(CookToom, CustomPointsAlsoExact) {
  const std::vector<Rational> pts{Rational(0), Rational(2), Rational(-1, 3),
                                  Rational(5)};
  expect_equals_direct(cook_toom(3, 3, pts));
}

TEST(CookToom, LavinCanonicalMatricesAreValidAlgorithms) {
  expect_equals_direct(lavin_f2x2_3x3());
  expect_equals_direct(lavin_f4x4_3x3());
}

TEST(CookToom, GeneratorAgreesWithLavinBilinearForm) {
  // Our generator and Lavin's published matrices may differ in row signs
  // and scalings, but must implement the same function.
  for (const auto& [ours, lavin] :
       {std::pair{cook_toom(2, 3), lavin_f2x2_3x3()},
        std::pair{cook_toom(4, 3), lavin_f4x4_3x3()}}) {
    const auto n = static_cast<std::size_t>(ours.tile());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 3u; ++j) {
        const auto d = unit(n, i);
        const auto g = unit(3, j);
        EXPECT_EQ(apply_1d_exact(ours, d, g), apply_1d_exact(lavin, d, g));
      }
    }
  }
}

TEST(CookToom, BtRowsAreLagrangeNumerators) {
  // For F(2,3) with points {0, 1, -1}: L_0(x) = (x-1)(x+1) = x^2 - 1.
  const TransformSet t = cook_toom(2, 3);
  EXPECT_EQ(t.bt(0, 0), Rational(-1));
  EXPECT_EQ(t.bt(0, 1), Rational(0));
  EXPECT_EQ(t.bt(0, 2), Rational(1));
  EXPECT_EQ(t.bt(0, 3), Rational(0));
  // Last row is M(x) = x^3 - x.
  EXPECT_EQ(t.bt(3, 0), Rational(0));
  EXPECT_EQ(t.bt(3, 1), Rational(-1));
  EXPECT_EQ(t.bt(3, 2), Rational(0));
  EXPECT_EQ(t.bt(3, 3), Rational(1));
}

TEST(CookToom, DefaultPointsDistinctAndSmall) {
  const auto pts = default_points(12);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_FALSE(pts[i] == pts[j]);
    }
    EXPECT_LE(pts[i].abs(), Rational(8));
  }
  EXPECT_THROW(default_points(-1), std::invalid_argument);
}

TEST(CookToom, TransformsCacheReturnsStableReference) {
  const TransformSet& a = transforms(4, 3);
  const TransformSet& b = transforms(4, 3);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.m, 4);
  EXPECT_EQ(a.r, 3);
}

// transforms() builds the planned F(m, r) from committed copies of the
// searched point sets; each must be exactly what the search picks.
TEST(CookToom, TransformsEqualsBestCookToomForPlannedForms) {
  for (const auto& [m, r] :
       {std::pair{2, 3}, {3, 3}, {4, 3}}) {
    const TransformSet& got = transforms(m, r);
    const TransformSet want = best_cook_toom(m, r);
    EXPECT_EQ(got.points, want.points) << "F(" << m << "," << r << ")";
    EXPECT_EQ(got.bt, want.bt) << "F(" << m << "," << r << ")";
    EXPECT_EQ(got.g, want.g) << "F(" << m << "," << r << ")";
    EXPECT_EQ(got.at, want.at) << "F(" << m << "," << r << ")";
  }
}

TEST(CookToom, FloatProjectionsMatchRationals) {
  const TransformSet t = cook_toom(3, 3);
  const auto f = t.g_f();
  for (std::size_t i = 0; i < t.g.rows(); ++i) {
    for (std::size_t j = 0; j < t.g.cols(); ++j) {
      EXPECT_FLOAT_EQ(f(i, j), static_cast<float>(t.g(i, j).to_double()));
    }
  }
}

TEST(CookToom, MultiplicationCountIsMinimal) {
  // The whole point of the algorithm: m + r - 1 multiplications per 1-D
  // application — the element-wise stage has exactly tile() entries.
  for (int m = 2; m <= 7; ++m) {
    const TransformSet t = cook_toom(m, 3);
    EXPECT_EQ(t.tile(), m + 2);
  }
}

}  // namespace
}  // namespace wino::winograd
