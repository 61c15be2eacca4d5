// Lightweight non-owning vector/matrix views (row-major storage with
// leading dimension, strided vectors), in the spirit of std::mdspan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace fblas {

/// Strided view over `n` elements: element i lives at data[i * inc].
/// `inc` mirrors the BLAS increment argument (must be >= 1 here).
template <typename T>
class VectorView {
 public:
  VectorView() = default;
  VectorView(T* data, std::int64_t n, std::int64_t inc = 1)
      : data_(data), n_(n), inc_(inc) {
    FBLAS_REQUIRE(n >= 0, "vector length must be non-negative");
    FBLAS_REQUIRE(inc >= 1, "vector increment must be positive");
  }
  // NOLINTNEXTLINE(google-explicit-constructor): vectors decay naturally.
  VectorView(std::vector<std::remove_const_t<T>>& v)
      : data_(v.data()), n_(static_cast<std::int64_t>(v.size())), inc_(1) {}
  /// A mutable view reads as a read-only one.
  template <typename U>
    requires std::is_same_v<const U, T>
  VectorView(VectorView<U> v)  // NOLINT(google-explicit-constructor)
      : VectorView(v.data(), v.size(), v.inc()) {}

  T& operator[](std::int64_t i) const { return data_[i * inc_]; }
  T* data() const { return data_; }
  std::int64_t size() const { return n_; }
  std::int64_t inc() const { return inc_; }

  VectorView sub(std::int64_t offset, std::int64_t len) const {
    return VectorView(data_ + offset * inc_, len, inc_);
  }

 private:
  T* data_ = nullptr;
  std::int64_t n_ = 0;
  std::int64_t inc_ = 1;
};

/// Row-major matrix view: element (i, j) lives at data[i * ld + j].
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, std::int64_t rows, std::int64_t cols, std::int64_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    FBLAS_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
    FBLAS_REQUIRE(ld >= cols, "leading dimension must cover a full row");
  }
  MatrixView(T* data, std::int64_t rows, std::int64_t cols)
      : MatrixView(data, rows, cols, cols) {}
  /// A mutable view reads as a read-only one.
  template <typename U>
    requires std::is_same_v<const U, T>
  MatrixView(MatrixView<U> m)  // NOLINT(google-explicit-constructor)
      : MatrixView(m.data(), m.rows(), m.cols(), m.ld()) {}

  T& operator()(std::int64_t i, std::int64_t j) const {
    return data_[i * ld_ + j];
  }
  T* data() const { return data_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t ld() const { return ld_; }

  /// A view of the rectangle [r0, r0+nr) x [c0, c0+nc).
  MatrixView block(std::int64_t r0, std::int64_t c0, std::int64_t nr,
                   std::int64_t nc) const {
    return MatrixView(data_ + r0 * ld_ + c0, nr, nc, ld_);
  }

 private:
  T* data_ = nullptr;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t ld_ = 0;
};

}  // namespace fblas
