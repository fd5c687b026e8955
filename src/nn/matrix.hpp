// Dense row-major matrix and the linear-algebra kernels the neural substrate
// is built on. Everything is double precision: the models are small (the
// paper's Table 1 hyper-parameters, scaled for CPU), and doubles make the
// finite-difference gradient checks in the test suite decisive.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <stdexcept>

#include "nn/aligned.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

class matrix {
 public:
  matrix() = default;
  matrix(std::size_t rows, std::size_t cols)
      : rows_{rows}, cols_{cols}, data_(rows * cols, 0.0) {}
  matrix(std::size_t rows, std::size_t cols, aligned_vector data)
      : rows_{rows}, cols_{cols}, data_{std::move(data)} {
    if (data_.size() != rows * cols)
      throw std::invalid_argument{"matrix: data size does not match shape"};
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] aligned_vector& data() noexcept { return data_; }
  [[nodiscard]] const aligned_vector& data() const noexcept { return data_; }

  void fill(double value) noexcept {
    for (auto& x : data_) x = value;
  }

  // Reshape without shrinking the underlying allocation: once the buffer has
  // grown to the largest shape a call site uses, later resizes are free.
  // Contents after resize are unspecified (workspace users overwrite).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  // Doubles currently reserved by the backing allocation (for the
  // nn.workspace_bytes gauge and the zero-allocation tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.capacity(); }

  // Gaussian init with the given standard deviation.
  static matrix randn(std::size_t rows, std::size_t cols, util::rng& rng,
                      double stddev) {
    matrix m{rows, cols};
    for (auto& x : m.data_) x = rng.normal(0.0, stddev);
    return m;
  }

  // Xavier/Glorot uniform init, the default for the layer weights.
  static matrix glorot(std::size_t rows, std::size_t cols, util::rng& rng) {
    matrix m{rows, cols};
    const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
    for (auto& x : m.data_) x = rng.uniform(-limit, limit);
    return m;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  aligned_vector data_;
};

// out = a * b            (m×k · k×n → m×n)
[[nodiscard]] matrix matmul(const matrix& a, const matrix& b);
// out = aᵀ * b           (k×m · k×n → m×n); used for weight gradients.
[[nodiscard]] matrix matmul_tn(const matrix& a, const matrix& b);
// out = a * bᵀ           (m×k · n×k → m×n); used for input gradients.
[[nodiscard]] matrix matmul_nt(const matrix& a, const matrix& b);

// Accumulating variants (out += ...), used in backward passes.
void matmul_acc(const matrix& a, const matrix& b, matrix& out);
void matmul_tn_acc(const matrix& a, const matrix& b, matrix& out);
void matmul_nt_acc(const matrix& a, const matrix& b, matrix& out);

// Elementwise helpers.
void add_inplace(matrix& a, const matrix& b);
void add_row_vector(matrix& m, std::span<const double> bias);
[[nodiscard]] matrix transpose(const matrix& m);

// Binary (de)serialization of a matrix.
void save_matrix(std::ostream& out, const matrix& m);
[[nodiscard]] matrix load_matrix(std::istream& in);

}  // namespace dqn::nn
