// Dense linear algebra for the queueing-theoretic substrate: LU solves,
// inversion, and the matrix exponential (scaling-and-squaring Padé), over the
// same dense matrix type the nn substrate uses. CTMC generators here are
// small (MAP state spaces of 2-8), so dense direct methods are exact and fast.
#pragma once

#include <vector>

#include "nn/matrix.hpp"

namespace dqn::queueing {

using nn::matrix;

// Solve a x = b for x (a square, b a column-stacked matrix). Partial-pivot LU.
[[nodiscard]] matrix solve(const matrix& a, const matrix& b);

[[nodiscard]] matrix inverse(const matrix& a);

[[nodiscard]] matrix identity(std::size_t n);

// e^{a} via scaling-and-squaring with a degree-6 Padé approximant.
[[nodiscard]] matrix expm(const matrix& a);

// Kronecker product a (x) b.
[[nodiscard]] matrix kron(const matrix& a, const matrix& b);

// Stationary row vector of a CTMC generator q (row sums zero): solves
// pi q = 0, pi 1 = 1 by replacing one equation with the normalisation.
[[nodiscard]] std::vector<double> ctmc_stationary(const matrix& q);

// Stationary row vector of a DTMC transition matrix p: pi p = pi, pi 1 = 1.
[[nodiscard]] std::vector<double> dtmc_stationary(const matrix& p);

}  // namespace dqn::queueing
