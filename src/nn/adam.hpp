// Adam optimizer (Kingma & Ba). The paper trains the PTM with Adam at a
// fixed learning rate of 1e-3 (§5.2).
#pragma once

#include <vector>

#include "nn/params.hpp"

namespace dqn::nn {

struct adam_config {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double grad_clip = 5.0;  // global-norm clip; 0 disables
};

class adam {
 public:
  adam(param_list params, const adam_config& config = {});

  // Apply one update from the accumulated gradients, then zero them.
  void step();

  [[nodiscard]] const param_list& params() const noexcept { return params_; }

 private:
  param_list params_;
  adam_config config_;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
  std::size_t t_ = 0;
};

}  // namespace dqn::nn
