// Dense row-major matrices — the only tensor shape the M-SWG needs
// (batches of encoded tuples). Deliberately minimal: no views, no
// broadcasting; everything the training loop uses is spelled out.
#ifndef MOSAIC_NN_MATRIX_H_
#define MOSAIC_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace mosaic {
namespace nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void Fill(double v);
  void Zero() { Fill(0.0); }

  /// Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6/(fan_in +
  /// fan_out)).
  static Matrix XavierUniform(size_t rows, size_t cols, Rng* rng);

  /// i.i.d. standard Gaussians (scaled), e.g. latent batches.
  static Matrix Gaussian(size_t rows, size_t cols, Rng* rng,
                         double stddev = 1.0);

  /// C = A * B.
  static Matrix MatMul(const Matrix& a, const Matrix& b);
  /// C = A^T * B.
  static Matrix MatMulTransA(const Matrix& a, const Matrix& b);
  /// C = A * B^T.
  static Matrix MatMulTransB(const Matrix& a, const Matrix& b);

  /// this += other * scale (same shape).
  void AddScaled(const Matrix& other, double scale);

  /// One row as a vector copy.
  std::vector<double> Row(size_t r) const;

 private:
  size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

}  // namespace nn
}  // namespace mosaic

#endif  // MOSAIC_NN_MATRIX_H_
