#ifndef RPAS_TENSOR_MATRIX_H_
#define RPAS_TENSOR_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/logging.h"

namespace rpas::tensor {

/// Dense row-major matrix of doubles. The numeric substrate for the
/// autodiff/NN stack, ARIMA estimation, and the simplex solver.
///
/// Design notes:
///  * Row-major, contiguous storage; (rows()==1 or cols()==1) doubles as a
///    vector. Shapes are checked with RPAS_CHECK — shape mismatches are
///    programming errors, not data errors.
///  * Kernels (MatMul etc.) live in ops.h; the class itself stays small.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Matrix from nested initializer list: Matrix m{{1,2},{3,4}};
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Column vector (n x 1) from values.
  static Matrix ColumnVector(const std::vector<double>& values);
  /// Row vector (1 x n) from values.
  static Matrix RowVector(const std::vector<double>& values);
  /// n x n identity.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    RPAS_HOT_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    RPAS_HOT_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Flat element access (row-major order).
  double& operator[](size_t i) {
    RPAS_HOT_CHECK(i < data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    RPAS_HOT_CHECK(i < data_.size());
    return data_[i];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Raw storage (row-major).
  const std::vector<double>& values() const { return data_; }

  /// Sets every element to `value`.
  void Fill(double value);

  /// Reshapes to rows x cols and zero-fills, reusing the existing heap
  /// allocation when capacity suffices (the autodiff arena's recycling
  /// primitive — no new allocation on the steady-state training path).
  void ResizeZero(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Heap capacity in doubles (used by arena stats to detect reallocation).
  size_t capacity() const { return data_.capacity(); }

  /// Reshape preserving element order; new shape must have equal size.
  Matrix Reshaped(size_t rows, size_t cols) const;

  /// Copies row r as a 1 x cols row vector.
  Matrix Row(size_t r) const;
  /// Copies column c as a rows x 1 column vector.
  Matrix Col(size_t c) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace rpas::tensor

#endif  // RPAS_TENSOR_MATRIX_H_
