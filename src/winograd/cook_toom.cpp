#include "winograd/cook_toom.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "winograd/program.hpp"

namespace wino::winograd {

using common::Rational;

namespace {

FMatrix to_float(const RMatrix& m) {
  return m.map<float>(
      [](const Rational& r) { return static_cast<float>(r.to_double()); });
}

DMatrix to_double(const RMatrix& m) {
  return m.map<double>([](const Rational& r) { return r.to_double(); });
}

/// Coefficients (ascending powers, padded to `size`) of
/// prod_{j in J} (x - a_j).
std::vector<Rational> monic_product_coeffs(const std::vector<Rational>& a,
                                           std::size_t skip,
                                           std::size_t size) {
  std::vector<Rational> coeffs{Rational(1)};
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (j == skip) continue;
    // Multiply the running polynomial by (x - a_j).
    std::vector<Rational> next(coeffs.size() + 1);
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      next[k + 1] += coeffs[k];
      next[k] -= coeffs[k] * a[j];
    }
    coeffs = std::move(next);
  }
  coeffs.resize(size);
  return coeffs;
}

}  // namespace

FMatrix TransformSet::bt_f() const { return to_float(bt); }
FMatrix TransformSet::g_f() const { return to_float(g); }
FMatrix TransformSet::at_f() const { return to_float(at); }
DMatrix TransformSet::bt_d() const { return to_double(bt); }
DMatrix TransformSet::g_d() const { return to_double(g); }
DMatrix TransformSet::at_d() const { return to_double(at); }

std::vector<Rational> default_points(int count) {
  static const std::vector<Rational> kSchedule = {
      Rational(0),      Rational(1),      Rational(-1),    Rational(2),
      Rational(-2),     Rational(1, 2),   Rational(-1, 2), Rational(4),
      Rational(-4),     Rational(1, 4),   Rational(-1, 4), Rational(3),
      Rational(-3),     Rational(8),      Rational(-8),    Rational(1, 8),
      Rational(-1, 8),  Rational(5),      Rational(-5),    Rational(1, 3),
      Rational(-1, 3),  Rational(6),      Rational(-6),    Rational(7),
      Rational(-7)};
  if (count < 0 || static_cast<std::size_t>(count) > kSchedule.size()) {
    throw std::invalid_argument("default_points: unsupported point count");
  }
  return {kSchedule.begin(), kSchedule.begin() + count};
}

TransformSet cook_toom(int m, int r, const std::vector<Rational>& points) {
  if (m < 1 || r < 1) {
    throw std::invalid_argument("cook_toom: m and r must be positive");
  }
  const int n = m + r - 1;
  if (points.size() != static_cast<std::size_t>(n - 1)) {
    throw std::invalid_argument(
        "cook_toom: need exactly m + r - 2 finite points");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (points[i] == points[j]) {
        throw std::invalid_argument("cook_toom: duplicate point");
      }
    }
  }

  TransformSet t;
  t.m = m;
  t.r = r;
  t.points = points;

  const auto nu = static_cast<std::size_t>(n);

  // B^T: rows 0..n-2 are the Lagrange numerators L_i, last row is M.
  t.bt = RMatrix(nu, nu);
  for (std::size_t i = 0; i + 1 < nu; ++i) {
    const auto row = monic_product_coeffs(points, i, nu);
    for (std::size_t j = 0; j < nu; ++j) t.bt(i, j) = row[j];
  }
  {
    const auto m_row =
        monic_product_coeffs(points, points.size() /*skip none*/, nu);
    for (std::size_t j = 0; j < nu; ++j) t.bt(nu - 1, j) = m_row[j];
  }

  // G: Vandermonde rows scaled by 1/N_i; last row selects the leading
  // filter coefficient (the point at infinity).
  t.g = RMatrix(nu, static_cast<std::size_t>(r));
  for (std::size_t i = 0; i + 1 < nu; ++i) {
    Rational norm(1);
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j != i) norm *= points[i] - points[j];
    }
    const Rational inv = norm.reciprocal();
    for (int p = 0; p < r; ++p) {
      t.g(i, static_cast<std::size_t>(p)) = points[i].pow(p) * inv;
    }
  }
  t.g(nu - 1, static_cast<std::size_t>(r - 1)) = Rational(1);

  // A^T: Vandermonde columns in the output size m; infinity contributes
  // only to the highest output power.
  t.at = RMatrix(static_cast<std::size_t>(m), nu);
  for (std::size_t i = 0; i + 1 < nu; ++i) {
    for (int k = 0; k < m; ++k) {
      t.at(static_cast<std::size_t>(k), i) = points[i].pow(k);
    }
  }
  t.at(static_cast<std::size_t>(m - 1), nu - 1) = Rational(1);

  return t;
}

TransformSet cook_toom(int m, int r) {
  return cook_toom(m, r, default_points(m + r - 2));
}

namespace {

/// Cost of one F(m, r) candidate: total 2-D transform FLOPs with CSE, then
/// entry-magnitude sum as a numerical-stability tie-break.
struct CandidateCost {
  std::size_t flops = 0;
  std::size_t const_mults = 0;
  double entry_magnitude = 0;

  friend bool operator<(const CandidateCost& a, const CandidateCost& b) {
    if (a.flops != b.flops) return a.flops < b.flops;
    if (a.const_mults != b.const_mults) return a.const_mults < b.const_mults;
    return a.entry_magnitude < b.entry_magnitude;
  }
};

CandidateCost score_candidate(const TransformSet& t) {
  const auto n = static_cast<std::size_t>(t.tile());
  const auto m = static_cast<std::size_t>(t.m);
  const auto r = static_cast<std::size_t>(t.r);
  const auto data = LinearProgram::from_matrix(t.bt, true).counts();
  const auto filter = LinearProgram::from_matrix(t.g, true).counts();
  const auto inverse = LinearProgram::from_matrix(t.at, true).counts();
  CandidateCost c;
  c.flops = 2 * n * data.flops() + (r + n) * filter.flops() +
            (n + m) * inverse.flops();
  c.const_mults = 2 * n * data.const_mults + (r + n) * filter.const_mults +
                  (n + m) * inverse.const_mults;
  for (const auto* mat : {&t.bt, &t.at}) {
    for (std::size_t i = 0; i < mat->rows(); ++i) {
      for (std::size_t j = 0; j < mat->cols(); ++j) {
        c.entry_magnitude += (*mat)(i, j).abs().to_double();
      }
    }
  }
  return c;
}

}  // namespace

TransformSet best_cook_toom(int m, int r) {
  const std::vector<Rational> pool{
      Rational(0),     Rational(1),     Rational(-1),   Rational(2),
      Rational(-2),    Rational(1, 2),  Rational(-1, 2), Rational(4),
      Rational(-4),    Rational(1, 4),  Rational(-1, 4), Rational(3),
      Rational(-3)};
  const int need = m + r - 2;
  if (need <= 0 || static_cast<std::size_t>(need) > pool.size()) {
    return cook_toom(m, r);
  }

  TransformSet best;
  CandidateCost best_cost;
  bool have_best = false;
  std::vector<Rational> pts(static_cast<std::size_t>(need));
  // Enumerate all point subsets of the pool (order within a set does not
  // change the algorithm's cost, only row permutations).
  const auto recurse = [&](auto&& self, std::size_t from,
                           std::size_t chosen) -> void {
    if (chosen == pts.size()) {
      TransformSet cand = cook_toom(m, r, pts);
      const CandidateCost cost = score_candidate(cand);
      if (!have_best || cost < best_cost) {
        best = std::move(cand);
        best_cost = cost;
        have_best = true;
      }
      return;
    }
    for (std::size_t i = from; i < pool.size(); ++i) {
      pts[chosen] = pool[i];
      self(self, i + 1, chosen + 1);
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

namespace {

/// best_cook_toom's point sets for the F(m, r) the planner's candidates
/// run on 3x3 layers, committed so that transforms() builds them without
/// the search, which took 7, 36 and 119 ms for F(2,3), F(3,3) and F(4,3)
/// on a 4-vCPU Xeon, once per process. Empty for any other F(m, r).
/// tests/winograd_cook_toom_test.cpp pins each set to the search.
std::vector<Rational> searched_points(int m, int r) {
  struct Entry {
    int m, r;
    std::vector<Rational> points;
  };
  static const Entry kSearched[] = {
      {2, 3, {0, 1, -1}},
      {3, 3, {0, 1, -1, Rational(1, 2)}},
      {4, 3, {0, 1, -1, Rational(1, 4), Rational(-1, 4)}},
  };
  for (const Entry& e : kSearched) {
    if (e.m == m && e.r == r) return e.points;
  }
  return {};
}

}  // namespace

const TransformSet& transforms(int m, int r) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, TransformSet> cache;
  const std::scoped_lock lock(mu);
  auto [it, inserted] = cache.try_emplace({m, r});
  if (inserted) {
    const std::vector<Rational> points = searched_points(m, r);
    it->second =
        points.empty() ? best_cook_toom(m, r) : cook_toom(m, r, points);
  }
  return it->second;
}

TransformSet lavin_f2x2_3x3() {
  TransformSet t;
  t.m = 2;
  t.r = 3;
  t.points = default_points(3);
  t.bt = RMatrix{{1, 0, -1, 0}, {0, 1, 1, 0}, {0, -1, 1, 0}, {0, 1, 0, -1}};
  t.g = RMatrix{{1, 0, 0},
                {{1, 2}, {1, 2}, {1, 2}},
                {{1, 2}, {-1, 2}, {1, 2}},
                {0, 0, 1}};
  t.at = RMatrix{{1, 1, 1, 0}, {0, 1, -1, -1}};
  return t;
}

TransformSet lavin_f4x4_3x3() {
  TransformSet t;
  t.m = 4;
  t.r = 3;
  t.points = default_points(5);
  t.bt = RMatrix{{4, 0, -5, 0, 1, 0},  {0, -4, -4, 1, 1, 0},
                 {0, 4, -4, -1, 1, 0}, {0, -2, -1, 2, 1, 0},
                 {0, 2, -1, -2, 1, 0}, {0, 4, 0, -5, 0, 1}};
  t.g = RMatrix{{{1, 4}, {0}, {0}},
                {{-1, 6}, {-1, 6}, {-1, 6}},
                {{-1, 6}, {1, 6}, {-1, 6}},
                {{1, 24}, {1, 12}, {1, 6}},
                {{1, 24}, {-1, 12}, {1, 6}},
                {0, 0, 1}};
  t.at = RMatrix{{1, 1, 1, 1, 1, 0},
                 {0, 1, -1, 2, -2, 0},
                 {0, 1, 1, 4, 4, 0},
                 {0, 1, -1, 8, -8, 1}};
  return t;
}

std::vector<Rational> direct_correlation(const std::vector<Rational>& d,
                                         const std::vector<Rational>& g,
                                         int m) {
  if (d.size() + 1 != g.size() + static_cast<std::size_t>(m)) {
    throw std::invalid_argument("direct_correlation: size mismatch");
  }
  std::vector<Rational> y(static_cast<std::size_t>(m));
  for (std::size_t k = 0; k < y.size(); ++k) {
    for (std::size_t j = 0; j < g.size(); ++j) y[k] += g[j] * d[k + j];
  }
  return y;
}

std::vector<Rational> apply_1d_exact(const TransformSet& t,
                                     const std::vector<Rational>& d,
                                     const std::vector<Rational>& g) {
  const auto n = static_cast<std::size_t>(t.tile());
  if (d.size() != n || g.size() != static_cast<std::size_t>(t.r)) {
    throw std::invalid_argument("apply_1d_exact: size mismatch");
  }
  std::vector<Rational> u(n);  // B^T d
  std::vector<Rational> v(n);  // G g
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) u[i] += t.bt(i, j) * d[j];
    for (std::size_t j = 0; j < g.size(); ++j) v[i] += t.g(i, j) * g[j];
  }
  std::vector<Rational> y(static_cast<std::size_t>(t.m));
  for (std::size_t k = 0; k < y.size(); ++k) {
    for (std::size_t i = 0; i < n; ++i) y[k] += t.at(k, i) * u[i] * v[i];
  }
  return y;
}

}  // namespace wino::winograd
