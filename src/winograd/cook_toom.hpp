// Cook-Toom construction of Winograd minimal filtering transforms F(m, r).
//
// Derivation used here (see also DESIGN.md section 3): the m-output,
// r-tap correlation is the transpose (Tellegen) of the Toom-Cook linear
// convolution of sizes m and r. With n = m + r - 1 evaluation points
// (n - 1 finite points a_i plus the point at infinity):
//
//   y = A^T [ (G g) . (B^T d) ]            (Lavin eq. 7 / paper eq. 2)
//
//   A^T (m x n):  column i = (a_i^0, ..., a_i^{m-1}) for finite points,
//                 last column = e_{m-1}                       (infinity)
//   G   (n x r):  row i = (a_i^0, ..., a_i^{r-1}) / N_i,
//                 N_i = prod_{j != i} (a_i - a_j); last row = e_{r-1}
//   B^T (n x n):  row i = coefficients of L_i(x) = prod_{j != i} (x - a_j),
//                 last row = coefficients of M(x) = prod_j (x - a_j)
//
// All arithmetic is exact (wino::common::Rational); the generated algorithm
// is verified against direct correlation symbolically in the test suite for
// every supported (m, r). The row/column sign conventions differ from
// Lavin's published matrices on some rows; the bilinear form they implement
// is identical (tests/winograd_cook_toom_test.cpp checks this exactly).
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/rational.hpp"

namespace wino::winograd {

using RMatrix = common::Matrix<common::Rational>;
using FMatrix = common::Matrix<float>;
using DMatrix = common::Matrix<double>;

/// The three transform matrices of a minimal filtering algorithm F(m, r),
/// kept in exact rational form together with float projections used by the
/// runtime kernels.
struct TransformSet {
  int m = 0;  ///< outputs per tile (1-D)
  int r = 0;  ///< filter taps
  RMatrix bt;  ///< data transform, n x n
  RMatrix g;   ///< filter transform, n x r
  RMatrix at;  ///< inverse transform, m x n
  std::vector<common::Rational> points;  ///< finite interpolation points

  [[nodiscard]] int tile() const { return m + r - 1; }  ///< n = m + r - 1

  [[nodiscard]] FMatrix bt_f() const;
  [[nodiscard]] FMatrix g_f() const;
  [[nodiscard]] FMatrix at_f() const;
  [[nodiscard]] DMatrix bt_d() const;
  [[nodiscard]] DMatrix g_d() const;
  [[nodiscard]] DMatrix at_d() const;
};

/// The default interpolation-point schedule, in the order used by Lavin's
/// wincnn tool: small-magnitude rationals first to keep transform entries
/// (and hence floating-point error and hardware constant-multiplier cost)
/// small. Returns the first `count` points of
///   0, 1, -1, 2, -2, 1/2, -1/2, 4, -4, 1/4, -1/4, 3, -3, 8, -8, ...
std::vector<common::Rational> default_points(int count);

/// Build F(m, r) from an explicit point set (must contain exactly
/// m + r - 2 pairwise-distinct finite points). Throws std::invalid_argument
/// on bad parameters or duplicate points.
TransformSet cook_toom(int m, int r,
                       const std::vector<common::Rational>& points);

/// Build F(m, r) with the default point schedule.
TransformSet cook_toom(int m, int r);

/// Search interpolation-point sets for F(m, r), minimising the total
/// CSE'd operation count of the three 2-D transform programs (the paper's
/// "optimization schemes for reducing the arithmetic and logic resource
/// costs of transforms"). Candidates are drawn from the small-magnitude
/// pool {0, +-1, +-2, +-1/2, +-4, +-1/4, +-3}; ties break toward smaller
/// transform entries (numerical stability). Deterministic.
TransformSet best_cook_toom(int m, int r);

/// Process-wide cache of cost-optimised transform sets (best_cook_toom's
/// choice); reference stays valid for the program lifetime. F(2,3),
/// F(3,3) and F(4,3) are built from committed copies of the searched
/// point sets, so only other sizes pay the search, once per
/// process. Thread-safe lookup.
const TransformSet& transforms(int m, int r);

/// Lavin's canonical published matrices for F(2, 3) and F(4, 3), used as a
/// cross-check of the generator. (Row signs may differ from cook_toom();
/// the implemented bilinear forms are equal, which tests assert exactly.)
TransformSet lavin_f2x2_3x3();
TransformSet lavin_f4x4_3x3();

/// Exact correlation y_k = sum_j g_j d_{k+j} over rationals; the ground
/// truth for generator verification.
std::vector<common::Rational> direct_correlation(
    const std::vector<common::Rational>& d,
    const std::vector<common::Rational>& g, int m);

/// Apply a transform set symbolically: y = A^T[(G g) . (B^T d)] over
/// rationals. d.size() == m + r - 1, g.size() == r.
std::vector<common::Rational> apply_1d_exact(
    const TransformSet& t, const std::vector<common::Rational>& d,
    const std::vector<common::Rational>& g);

}  // namespace wino::winograd
