// Plain multi-layer perceptron regressor. Used by the RouteNet baseline's
// readout, the MimicNet mimic heads, and as the PTM's fast architecture
// variant (DESIGN.md §4).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "nn/dense.hpp"
#include "nn/matrix.hpp"
#include "nn/params.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

class mlp {
 public:
  mlp() = default;
  // layer_dims = {in, hidden..., out}; hidden layers use `act`, output is linear.
  mlp(const std::vector<std::size_t>& layer_dims, activation act, util::rng& rng);

  [[nodiscard]] matrix forward(const matrix& x);
  // Allocation-free inference forward: layer outputs ping-pong through `ws`
  // slots. Result valid until the next ws.reset().
  [[nodiscard]] const matrix& forward(const matrix& x, workspace& ws) const;
  [[nodiscard]] matrix backward(const matrix& grad_y);

  void collect_params(param_list& out);

  void save(std::ostream& out) const;
  // Throws util::contract_violation for a layer count above max_layers
  // (a corrupt header), before allocating.
  void load(std::istream& in);

  static constexpr std::size_t max_layers = 64;

 private:
  std::vector<dense> layers_;
};

}  // namespace dqn::nn
