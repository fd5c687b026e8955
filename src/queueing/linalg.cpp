#include "queueing/linalg.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

namespace dqn::queueing {

namespace {

// In-place partial-pivot LU; returns permutation, throws on singularity.
std::vector<std::size_t> lu_decompose(matrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument{"lu: matrix must be square"};
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > best) {
        best = std::abs(a(r, col));
        pivot = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error{"lu: singular matrix"};
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(perm[col], perm[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      a(r, col) /= a(col, col);
      const double factor = a(r, col);
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
    }
  }
  return perm;
}

void lu_solve_inplace(const matrix& lu, const std::vector<std::size_t>& perm,
                      std::span<const double> b, std::span<double> x) {
  const std::size_t n = lu.rows();
  // Forward substitution with permutation.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc;
  }
  // Backward substitution.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc / lu(i, i);
  }
}

}  // namespace

matrix solve(const matrix& a, const matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument{"solve: shape mismatch"};
  matrix lu = a;
  const auto perm = lu_decompose(lu);
  const std::size_t n = a.rows();
  matrix x{n, b.cols()};
  std::vector<double> col(n), out(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    lu_solve_inplace(lu, perm, col, out);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = out[r];
  }
  return x;
}

matrix identity(std::size_t n) {
  matrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1;
  return m;
}

matrix inverse(const matrix& a) { return solve(a, identity(a.rows())); }

matrix expm(const matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument{"expm: matrix must be square"};
  // Scale so the infinity norm is below 0.5, apply Padé(6,6), square back.
  double norm = 0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double row_sum = 0;
    for (std::size_t c = 0; c < a.cols(); ++c) row_sum += std::abs(a(r, c));
    norm = std::max(norm, row_sum);
  }
  int squarings = 0;
  while (norm > 0.5) {
    norm /= 2;
    ++squarings;
  }
  matrix scaled = a;
  const double factor = std::ldexp(1.0, -squarings);
  for (auto& x : scaled.data()) x *= factor;

  // Padé(6,6): N = sum c_k A^k, D = sum (-1)^k c_k A^k.
  constexpr double coeffs[] = {1.0,        1.0 / 2,      5.0 / 44,    1.0 / 66,
                               1.0 / 792,  1.0 / 15840,  1.0 / 665280};
  const std::size_t n = a.rows();
  matrix power = identity(n);
  matrix num = identity(n);
  matrix den = identity(n);
  for (int k = 1; k <= 6; ++k) {
    power = nn::matmul(power, scaled);
    for (std::size_t i = 0; i < power.size(); ++i) {
      num.data()[i] += coeffs[k] * power.data()[i];
      den.data()[i] += (k % 2 == 0 ? coeffs[k] : -coeffs[k]) * power.data()[i];
    }
  }
  matrix result = solve(den, num);
  for (int s = 0; s < squarings; ++s) result = nn::matmul(result, result);
  return result;
}

matrix kron(const matrix& a, const matrix& b) {
  matrix out{a.rows() * b.rows(), a.cols() * b.cols()};
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      if (aij == 0.0) continue;
      for (std::size_t k = 0; k < b.rows(); ++k)
        for (std::size_t l = 0; l < b.cols(); ++l)
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
    }
  return out;
}

std::vector<double> ctmc_stationary(const matrix& q) {
  const std::size_t n = q.rows();
  if (q.cols() != n) throw std::invalid_argument{"ctmc_stationary: square required"};
  // pi q = 0 with the last column replaced by the normalisation pi 1 = 1:
  // solve qᵀ' piᵀ = e_n.
  matrix a = nn::transpose(q);
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  matrix b{n, 1};
  b(n - 1, 0) = 1.0;
  matrix x = solve(a, b);
  std::vector<double> pi(n);
  for (std::size_t i = 0; i < n; ++i) pi[i] = x(i, 0);
  return pi;
}

std::vector<double> dtmc_stationary(const matrix& p) {
  const std::size_t n = p.rows();
  if (p.cols() != n) throw std::invalid_argument{"dtmc_stationary: square required"};
  // pi (p - I) = 0, pi 1 = 1.
  matrix q = p;
  for (std::size_t i = 0; i < n; ++i) q(i, i) -= 1.0;
  return ctmc_stationary(q);
}

}  // namespace dqn::queueing
