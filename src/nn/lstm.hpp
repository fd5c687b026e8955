// LSTM and bidirectional LSTM with explicit backprop-through-time. The PTM's
// encoder is a stack of bidirectional layers (the paper uses a 2-layer BLSTM,
// Table 1).
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/params.hpp"
#include "nn/seq.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

// Single-direction LSTM. Gate layout in the fused weight matrices is
// [input, forget, cell, output] along the column axis.
class lstm {
 public:
  lstm() = default;
  lstm(std::size_t input_dim, std::size_t hidden_dim, bool reverse, util::rng& rng);

  // x: (B, T, F) → hidden states (B, T, H). Caches activations for backward.
  [[nodiscard]] seq_batch forward(const seq_batch& x);
  // Allocation-free inference forward: all state (h, c, per-step gate
  // pre-activations) lives in `ws`; result valid until the next ws.reset().
  [[nodiscard]] const seq_batch& forward(const seq_batch& x, workspace& ws) const;

  // grad_h: (B, T, H) → grad_x (B, T, F); accumulates weight grads.
  [[nodiscard]] seq_batch backward(const seq_batch& grad_h);

  void collect_params(param_list& out);

  [[nodiscard]] std::size_t input_dim() const noexcept { return wx_.rows(); }
  [[nodiscard]] std::size_t hidden_dim() const noexcept { return wh_.rows(); }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  struct step_cache {
    matrix x;      // (B, F)
    matrix gates;  // (B, 4H), post-activation [i f g o]
    matrix c;      // (B, H)
    matrix h;      // (B, H)
    matrix c_prev; // (B, H)
    matrix h_prev; // (B, H)
  };

  // Run one training step given x_t and previous state; fills `cache`.
  void step(const matrix& x_t, matrix& h, matrix& c, step_cache& cache) const;

  matrix wx_;  // (F, 4H)
  matrix wh_;  // (H, 4H)
  aligned_vector b_;  // (4H)
  matrix gwx_;
  matrix gwh_;
  aligned_vector gb_;
  bool reverse_ = false;
  std::vector<step_cache> caches_;  // indexed by processing step
  std::size_t cached_time_ = 0;
};

// Bidirectional LSTM: concatenates forward and reverse hidden states, giving
// (B, T, 2H) outputs.
class bilstm {
 public:
  bilstm() = default;
  bilstm(std::size_t input_dim, std::size_t hidden_dim, util::rng& rng);

  [[nodiscard]] seq_batch forward(const seq_batch& x);
  // Allocation-free inference forward (see lstm::forward overload).
  [[nodiscard]] const seq_batch& forward(const seq_batch& x, workspace& ws) const;
  [[nodiscard]] seq_batch backward(const seq_batch& grad_out);

  void collect_params(param_list& out);

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  lstm fwd_;
  lstm bwd_;
};

}  // namespace dqn::nn
