#include "nn/matrix.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/kernels/gemm.hpp"
#include "util/check.hpp"

namespace dqn::nn {

// The matrix-typed matmul entry points are shape-checking shims over the
// kernel layer (nn/kernels/gemm.hpp), which picks the strongest compiled-in
// backend for the running CPU once at startup.
void matmul_acc(const matrix& a, const matrix& b, matrix& out) {
  DQN_CHECK(a.cols() == b.rows(), "matmul: inner dimensions differ: ", a.rows(),
            "x", a.cols(), " * ", b.rows(), "x", b.cols());
  DQN_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
            "matmul: bad out shape ", out.rows(), "x", out.cols());
  kernels::gemm_nn(a.data().data(), b.data().data(), out.data().data(),
                   a.rows(), b.cols(), a.cols(), /*accumulate=*/true);
}

matrix matmul(const matrix& a, const matrix& b) {
  matrix out{a.rows(), b.cols()};
  matmul_acc(a, b, out);
  return out;
}

void matmul_tn_acc(const matrix& a, const matrix& b, matrix& out) {
  DQN_CHECK(a.rows() == b.rows(), "matmul_tn: leading dimensions differ: ",
            a.rows(), "x", a.cols(), " vs ", b.rows(), "x", b.cols());
  DQN_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
            "matmul_tn: bad out shape ", out.rows(), "x", out.cols());
  kernels::gemm_tn(a.data().data(), b.data().data(), out.data().data(),
                   a.cols(), b.cols(), a.rows(), /*accumulate=*/true);
}

matrix matmul_tn(const matrix& a, const matrix& b) {
  matrix out{a.cols(), b.cols()};
  matmul_tn_acc(a, b, out);
  return out;
}

void matmul_nt_acc(const matrix& a, const matrix& b, matrix& out) {
  DQN_CHECK(a.cols() == b.cols(), "matmul_nt: trailing dimensions differ: ",
            a.rows(), "x", a.cols(), " vs ", b.rows(), "x", b.cols());
  DQN_CHECK(out.rows() == a.rows() && out.cols() == b.rows(),
            "matmul_nt: bad out shape ", out.rows(), "x", out.cols());
  kernels::gemm_nt(a.data().data(), b.data().data(), out.data().data(),
                   a.rows(), b.rows(), a.cols(), /*accumulate=*/true);
}

matrix matmul_nt(const matrix& a, const matrix& b) {
  matrix out{a.rows(), b.rows()};
  matmul_nt_acc(a, b, out);
  return out;
}

void add_inplace(matrix& a, const matrix& b) {
  DQN_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
            "add_inplace: shape mismatch: ", a.rows(), "x", a.cols(), " vs ",
            b.rows(), "x", b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] += b.data()[i];
}

void add_row_vector(matrix& m, std::span<const double> bias) {
  DQN_CHECK(bias.size() == m.cols(), "add_row_vector: width mismatch: bias ",
            bias.size(), " vs ", m.cols(), " cols");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias[c];
  }
}

matrix transpose(const matrix& m) {
  matrix out{m.cols(), m.rows()};
  kernels::transpose_blocked(m.data().data(), out.data().data(), m.rows(),
                             m.cols());
  return out;
}

void save_matrix(std::ostream& out, const matrix& m) {
  const std::uint64_t rows = m.rows(), cols = m.cols();
  out.write(reinterpret_cast<const char*>(&rows), sizeof rows);
  out.write(reinterpret_cast<const char*>(&cols), sizeof cols);
  out.write(reinterpret_cast<const char*>(m.data().data()),
            static_cast<std::streamsize>(m.size() * sizeof(double)));
}

matrix load_matrix(std::istream& in) {
  std::uint64_t rows = 0, cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof rows);
  in.read(reinterpret_cast<char*>(&cols), sizeof cols);
  if (!in) throw std::runtime_error{"load_matrix: truncated header"};
  // Bounds each dimension and the element count (512 MiB of weights), so a
  // corrupt header can neither overflow rows * cols nor ask for terabytes.
  constexpr std::uint64_t max_elements = std::uint64_t{1} << 26;
  DQN_ENSURE(rows <= max_elements && cols <= max_elements &&
                 (cols == 0 || rows <= max_elements / cols),
             "load_matrix: implausible shape ", rows, "x", cols,
             " (corrupt stream?)");
  matrix m{static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)};
  in.read(reinterpret_cast<char*>(m.data().data()),
          static_cast<std::streamsize>(m.size() * sizeof(double)));
  if (!in) throw std::runtime_error{"load_matrix: truncated payload"};
  return m;
}

}  // namespace dqn::nn
