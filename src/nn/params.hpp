// Parameter registry: every trainable layer exposes its (value, gradient)
// vector pairs through collect_params, and the optimizer walks the flat list.
#pragma once

#include <vector>

#include "nn/aligned.hpp"

namespace dqn::nn {

struct param_ref {
  aligned_vector* value = nullptr;
  aligned_vector* grad = nullptr;
};

using param_list = std::vector<param_ref>;

inline void zero_grads(const param_list& params) {
  for (const auto& p : params)
    for (auto& g : *p.grad) g = 0.0;
}

}  // namespace dqn::nn
