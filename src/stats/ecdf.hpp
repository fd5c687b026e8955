// Empirical CDF helper for the CDF-plot benches (Figures 10, 12, 14).
#pragma once

#include <span>
#include <vector>

namespace dqn::stats {

class ecdf {
 public:
  explicit ecdf(std::span<const double> samples);

  // P(X <= x) under the empirical distribution.
  [[nodiscard]] double operator()(double x) const noexcept;

  // Evaluate the ECDF at `points` evenly spaced values between the sample
  // min and max; returns (x, F(x)) pairs — convenient for printing CDFs.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace dqn::stats
