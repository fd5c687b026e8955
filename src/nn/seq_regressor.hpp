// The PTM's network: a stack of bidirectional LSTM layers feeding multi-head
// self-attention, with a dense regression head on the final time step. This
// mirrors the paper's architecture (Figure 5, Table 1): 2-layer BLSTM
// encoder/decoder, 3 attention heads, sojourn-time regression trained with
// MSE + Adam. Hidden sizes are configurable so benches can use CPU-sized
// models while tests use tiny ones.
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/attention.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/params.hpp"
#include "nn/seq.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

struct seq_regressor_config {
  std::size_t input_dim = 14;
  std::vector<std::size_t> lstm_hidden = {32, 16};  // per-direction widths
  std::size_t heads = 3;
  std::size_t key_dim = 16;
  std::size_t value_dim = 16;
  std::size_t attention_out = 32;
  std::size_t head_hidden = 32;  // regression-head hidden width
};

class seq_regressor {
 public:
  seq_regressor() = default;
  seq_regressor(const seq_regressor_config& config, util::rng& rng);

  // x: (B, T, input_dim) → (B, 1) predicted (scaled) sojourn of the final
  // packet in each window.
  [[nodiscard]] matrix forward(const seq_batch& x);
  // Allocation-free inference forward: the whole chain (encoder, attention,
  // head) runs out of `ws`. The CALLER owns the workspace lifecycle — this
  // method only takes slots and never resets, so `x` may itself live in `ws`.
  // Result valid until the next ws.reset().
  [[nodiscard]] const matrix& forward(const seq_batch& x, workspace& ws) const;

  // MSE loss against targets (B, 1): runs backward, accumulates grads, and
  // returns the batch loss.
  double backward_mse(const matrix& predictions, const matrix& targets);

  void collect_params(param_list& out);
  [[nodiscard]] const seq_regressor_config& config() const noexcept { return config_; }

  // The attention layer, exposing per-head weight matrices from the last
  // (training-mode) forward pass — used for interpretability.
  [[nodiscard]] const multi_head_attention& attention() const noexcept {
    return attention_;
  }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  seq_regressor_config config_;
  std::vector<bilstm> encoder_;
  multi_head_attention attention_;
  dense head_hidden_;
  dense head_out_;
  // Forward caches needed to route gradients.
  seq_batch last_attn_out_;
  std::size_t last_time_ = 0;
};

}  // namespace dqn::nn
