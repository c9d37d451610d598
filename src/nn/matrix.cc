#include "nn/matrix.h"

#include <cmath>

namespace mosaic {
namespace nn {

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

Matrix Matrix::XavierUniform(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double a = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& x : m.data_) x = rng->Uniform(-a, a);
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, Rng* rng, double stddev) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols_ == b.rows_);
  Matrix c(a.rows_, b.cols_);
  for (size_t i = 0; i < a.rows_; ++i) {
    for (size_t k = 0; k < a.cols_; ++k) {
      double av = a.data_[i * a.cols_ + k];
      if (av == 0.0) continue;
      const double* brow = &b.data_[k * b.cols_];
      double* crow = &c.data_[i * c.cols_];
      for (size_t j = 0; j < b.cols_; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix Matrix::MatMulTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows_ == b.rows_);
  Matrix c(a.cols_, b.cols_);
  for (size_t k = 0; k < a.rows_; ++k) {
    const double* arow = &a.data_[k * a.cols_];
    const double* brow = &b.data_[k * b.cols_];
    for (size_t i = 0; i < a.cols_; ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* crow = &c.data_[i * c.cols_];
      for (size_t j = 0; j < b.cols_; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix Matrix::MatMulTransB(const Matrix& a, const Matrix& b) {
  assert(a.cols_ == b.cols_);
  Matrix c(a.rows_, b.rows_);
  for (size_t i = 0; i < a.rows_; ++i) {
    const double* arow = &a.data_[i * a.cols_];
    for (size_t j = 0; j < b.rows_; ++j) {
      const double* brow = &b.data_[j * b.cols_];
      double acc = 0.0;
      for (size_t k = 0; k < a.cols_; ++k) acc += arow[k] * brow[k];
      c.data_[i * c.cols_ + j] = acc;
    }
  }
  return c;
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i] * scale;
  }
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

}  // namespace nn
}  // namespace mosaic
