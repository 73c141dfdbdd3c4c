// Small dense row-major matrix template over an arbitrary field element.
//
// Used with wino::common::Rational for exact Cook-Toom transform
// construction and with float/double for runtime kernels. This is a
// deliberately small linear-algebra substrate: the transform matrices are at
// most ~10x10, so clarity and exactness beat BLAS-style tuning here. The
// one concession (and the one dependency on runtime/) is that large float
// products dispatch to the shared blocked SIMD GEMM core, so callers that
// outgrow transform-sized matrices are not silently cubic-slow.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "runtime/gemm.hpp"

namespace wino::common {

/// Dense ROWSxCOLS matrix with value semantics. Dimensions are fixed at
/// construction; element access is bounds-checked via at() and unchecked via
/// operator().
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Construct from nested initializer lists; all rows must have equal
  /// length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      if (row.size() != cols_) {
        throw std::invalid_argument("ragged matrix initializer");
      }
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Row-major elements, rows() * cols() of them.
  [[nodiscard]] const T* data() const { return data_.data(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  T& at(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    }
    return t;
  }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_) {
      throw std::invalid_argument("matrix product dimension mismatch");
    }
    Matrix out(a.rows_, b.cols_);
    // Large float products route to the shared cache-blocked SIMD GEMM
    // core; the exact-arithmetic types (Rational) and the small transform
    // matrices keep the clear triple loop.
    if constexpr (std::is_same_v<T, float>) {
      constexpr std::size_t kGemmMnkThreshold = 64 * 64 * 64;
      if (a.rows_ * a.cols_ * b.cols_ >= kGemmMnkThreshold) {
        wino::runtime::sgemm(a.rows_, b.cols_, a.cols_, 1.0F,
                             a.data_.data(), a.cols_, b.data_.data(),
                             b.cols_, 0.0F, out.data_.data(), b.cols_);
        return out;
      }
    }
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T& aik = a(i, k);
        for (std::size_t j = 0; j < b.cols_; ++j) {
          out(i, j) += aik * b(k, j);
        }
      }
    }
    return out;
  }

  friend Matrix operator+(const Matrix& a, const Matrix& b) {
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_) {
      throw std::invalid_argument("matrix sum dimension mismatch");
    }
    Matrix out = a;
    for (std::size_t i = 0; i < out.data_.size(); ++i) {
      out.data_[i] += b.data_[i];
    }
    return out;
  }

  /// Identity matrix of order n (requires T constructible from 0 and 1).
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  /// Exact inverse via Gauss-Jordan elimination with partial row search for
  /// a non-zero pivot. Intended for field types (Rational); throws on
  /// singular input.
  [[nodiscard]] Matrix inverse() const {
    if (rows_ != cols_) {
      throw std::invalid_argument("inverse of non-square matrix");
    }
    const std::size_t n = rows_;
    Matrix a = *this;
    Matrix inv = identity(n);
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      while (pivot < n && a(pivot, col) == T{}) ++pivot;
      if (pivot == n) throw std::invalid_argument("singular matrix");
      if (pivot != col) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(a(pivot, j), a(col, j));
          std::swap(inv(pivot, j), inv(col, j));
        }
      }
      const T scale = T{1} / a(col, col);
      for (std::size_t j = 0; j < n; ++j) {
        a(col, j) *= scale;
        inv(col, j) *= scale;
      }
      for (std::size_t row = 0; row < n; ++row) {
        if (row == col) continue;
        const T factor = a(row, col);
        if (factor == T{}) continue;
        for (std::size_t j = 0; j < n; ++j) {
          a(row, j) -= factor * a(col, j);
          inv(row, j) -= factor * inv(col, j);
        }
      }
    }
    return inv;
  }

  /// Elementwise conversion to another scalar type via a projection
  /// functor, e.g. Rational -> double.
  template <typename U, typename Fn>
  [[nodiscard]] Matrix<U> map(Fn&& fn) const {
    Matrix<U> out(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) out(r, c) = fn((*this)(r, c));
    }
    return out;
  }

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("matrix index out of range");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace wino::common
