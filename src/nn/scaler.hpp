// MinMax feature scaling to [0, 1], matching the paper's use of
// scikit-learn's MinMaxScaler (§4.1). Fitted bounds are persisted with the
// model so that inference applies the exact training-time transform.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

namespace dqn::nn {

class min_max_scaler {
 public:
  min_max_scaler() = default;

  // Fit per-feature bounds from rows of width `features`.
  void fit(std::span<const double> flat_rows, std::size_t features);

  // x' = (x - min) / (max - min); constant features map to 0.
  [[nodiscard]] double transform_one(std::size_t feature, double x) const;
  [[nodiscard]] double inverse_one(std::size_t feature, double x) const;
  // transform_one over a whole row, in place. The row must be features()
  // wide; that is the caller's check, made once per batch, not per element.
  void transform_row(std::span<double> row) const noexcept {
    for (std::size_t f = 0; f < row.size(); ++f) {
      const double range = hi_[f] - lo_[f];
      row[f] = range <= 0 ? 0.0 : (row[f] - lo_[f]) / range;
    }
  }

  [[nodiscard]] bool fitted() const noexcept { return !lo_.empty(); }
  [[nodiscard]] std::size_t features() const noexcept { return lo_.size(); }

  void save(std::ostream& out) const;
  // Throws util::contract_violation for a feature count above
  // max_features (a corrupt header), before allocating.
  void load(std::istream& in);

  static constexpr std::size_t max_features = std::size_t{1} << 16;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

// Scalar target scaling (the sojourn-time label), same min-max convention.
class target_scaler {
 public:
  void fit(std::span<const double> targets);
  [[nodiscard]] double transform(double y) const noexcept;
  [[nodiscard]] double inverse(double y) const noexcept;
  [[nodiscard]] bool fitted() const noexcept { return hi_ > lo_; }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  double lo_ = 0;
  double hi_ = 0;
};

}  // namespace dqn::nn
