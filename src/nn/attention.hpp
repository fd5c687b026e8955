// Multi-head scaled-dot-product self-attention over packet windows. The PTM
// uses 3 parallel heads (Table 1) on top of the BLSTM encoder so the model
// can attend to the packets that actually contend for the same queue.
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/params.hpp"
#include "nn/seq.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

struct attention_config {
  std::size_t model_dim = 64;  // D: input feature width (BLSTM output)
  std::size_t heads = 3;
  std::size_t key_dim = 16;    // d_k per head
  std::size_t value_dim = 16;  // d_v per head
  std::size_t out_dim = 64;    // output projection width
};

class multi_head_attention {
 public:
  multi_head_attention() = default;
  multi_head_attention(const attention_config& config, util::rng& rng);

  // x: (B, T, D) → (B, T, out_dim). Caches per-sample activations.
  [[nodiscard]] seq_batch forward(const seq_batch& x);
  // Allocation-free inference forward: per-head scratch (q/k/v/scores) is
  // hoisted out of the sample loop into `ws` slots and reused across the
  // whole batch. Result valid until the next ws.reset().
  [[nodiscard]] const seq_batch& forward(const seq_batch& x, workspace& ws) const;

  [[nodiscard]] seq_batch backward(const seq_batch& grad_out);

  void collect_params(param_list& out);

  [[nodiscard]] const attention_config& config() const noexcept { return config_; }

  // Attention weights of head `h` for sample `b` from the last forward pass:
  // row i gives the distribution over the window positions packet i attends
  // to. Exposed for the interpretability example.
  [[nodiscard]] const matrix& attention_weights(std::size_t b, std::size_t h) const;

  void save(std::ostream& out) const;
  // Throws util::contract_violation for a head count or dimension outside
  // [1, max_heads] / [1, max_dim], or a weight whose shape disagrees with
  // the header, before sizing any buffer from it.
  void load(std::istream& in);

  static constexpr std::size_t max_heads = 64;
  static constexpr std::size_t max_dim = std::size_t{1} << 16;

 private:
  struct head_cache {
    matrix q, k, v;  // (T, dk/dv)
    matrix attn;     // (T, T) softmax weights
  };
  struct sample_cache {
    matrix x;       // (T, D)
    matrix concat;  // (T, heads*dv)
    std::vector<head_cache> heads;
  };

  // Training forward for a single sample; fills `cache`.
  [[nodiscard]] matrix forward_sample(const matrix& x, sample_cache& cache) const;

  attention_config config_;
  std::vector<matrix> wq_, wk_, wv_;  // per head: (D, dk), (D, dk), (D, dv)
  matrix wo_;                         // (heads*dv, out_dim)
  std::vector<matrix> gwq_, gwk_, gwv_;
  matrix gwo_;
  std::vector<sample_cache> caches_;
};

}  // namespace dqn::nn
