#include "nn/attention.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/kernels/gemm.hpp"
#include "util/check.hpp"

namespace dqn::nn {

multi_head_attention::multi_head_attention(const attention_config& config,
                                           util::rng& rng)
    : config_{config} {
  DQN_ENSURE(config.heads > 0, "attention: heads must be > 0");
  for (std::size_t h = 0; h < config.heads; ++h) {
    wq_.push_back(matrix::glorot(config.model_dim, config.key_dim, rng));
    wk_.push_back(matrix::glorot(config.model_dim, config.key_dim, rng));
    wv_.push_back(matrix::glorot(config.model_dim, config.value_dim, rng));
    gwq_.emplace_back(config.model_dim, config.key_dim);
    gwk_.emplace_back(config.model_dim, config.key_dim);
    gwv_.emplace_back(config.model_dim, config.value_dim);
  }
  wo_ = matrix::glorot(config.heads * config.value_dim, config.out_dim, rng);
  gwo_ = matrix{wo_.rows(), wo_.cols()};
}

matrix multi_head_attention::forward_sample(const matrix& x, sample_cache& cache) const {
  const std::size_t time = x.rows();
  const double scale = 1.0 / std::sqrt(static_cast<double>(config_.key_dim));
  matrix concat{time, config_.heads * config_.value_dim};
  cache.x = x;
  cache.heads.assign(config_.heads, {});
  for (std::size_t h = 0; h < config_.heads; ++h) {
    matrix q = matmul(x, wq_[h]);
    matrix k = matmul(x, wk_[h]);
    matrix v = matmul(x, wv_[h]);
    matrix scores = matmul_nt(q, k);
    for (auto& s : scores.data()) s *= scale;
    // Row-wise softmax with max-subtraction for stability.
    for (std::size_t i = 0; i < time; ++i) {
      auto row = scores.row(i);
      double mx = row[0];
      for (double s : row) mx = std::max(mx, s);
      double total = 0;
      for (auto& s : row) {
        s = std::exp(s - mx);
        total += s;
      }
      for (auto& s : row) s /= total;
    }
    matrix head_out = matmul(scores, v);
    for (std::size_t t = 0; t < time; ++t)
      for (std::size_t f = 0; f < config_.value_dim; ++f)
        concat(t, h * config_.value_dim + f) = head_out(t, f);
    cache.heads[h].q = std::move(q);
    cache.heads[h].k = std::move(k);
    cache.heads[h].v = std::move(v);
    cache.heads[h].attn = std::move(scores);
  }
  matrix out = matmul(concat, wo_);
  cache.concat = std::move(concat);
  return out;
}

seq_batch multi_head_attention::forward(const seq_batch& x) {
  DQN_CHECK(x.features() == config_.model_dim, "attention::forward: got ",
            x.features(), " features, want ", config_.model_dim);
  caches_.assign(x.batch(), {});
  seq_batch out{x.batch(), x.time(), config_.out_dim};
  for (std::size_t b = 0; b < x.batch(); ++b)
    out.set_sample(b, forward_sample(x.sample(b), caches_[b]));
  return out;
}

const seq_batch& multi_head_attention::forward(const seq_batch& x,
                                               workspace& ws) const {
  DQN_CHECK(x.features() == config_.model_dim, "attention::forward: got ",
            x.features(), " features, want ", config_.model_dim);
  const std::size_t batch = x.batch(), time = x.time();
  const double scale = 1.0 / std::sqrt(static_cast<double>(config_.key_dim));
  seq_batch& out = ws.take_seq(batch, time, config_.out_dim);
  matrix& xs = ws.take(time, config_.model_dim);
  matrix& q = ws.take(time, config_.key_dim);
  matrix& k = ws.take(time, config_.key_dim);
  matrix& v = ws.take(time, config_.value_dim);
  matrix& scores = ws.take(time, time);
  matrix& head_out = ws.take(time, config_.value_dim);
  matrix& concat = ws.take(time, config_.heads * config_.value_dim);
  matrix& proj = ws.take(time, config_.out_dim);
  for (std::size_t b = 0; b < batch; ++b) {
    x.sample_into(b, xs);
    for (std::size_t h = 0; h < config_.heads; ++h) {
      kernels::gemm_nn(xs.data().data(), wq_[h].data().data(), q.data().data(),
                       time, config_.key_dim, config_.model_dim, false);
      kernels::gemm_nn(xs.data().data(), wk_[h].data().data(), k.data().data(),
                       time, config_.key_dim, config_.model_dim, false);
      kernels::gemm_nn(xs.data().data(), wv_[h].data().data(), v.data().data(),
                       time, config_.value_dim, config_.model_dim, false);
      kernels::gemm_nt(q.data().data(), k.data().data(), scores.data().data(),
                       time, time, config_.key_dim, false);
      for (auto& s : scores.data()) s *= scale;
      // Row-wise softmax with max-subtraction, same order as forward_sample.
      for (std::size_t i = 0; i < time; ++i) {
        auto row = scores.row(i);
        double mx = row[0];
        for (double s : row) mx = std::max(mx, s);
        double total = 0;
        for (auto& s : row) {
          s = std::exp(s - mx);
          total += s;
        }
        for (auto& s : row) s /= total;
      }
      kernels::gemm_nn(scores.data().data(), v.data().data(),
                       head_out.data().data(), time, config_.value_dim, time,
                       false);
      for (std::size_t t = 0; t < time; ++t)
        for (std::size_t f = 0; f < config_.value_dim; ++f)
          concat(t, h * config_.value_dim + f) = head_out(t, f);
    }
    kernels::gemm_nn(concat.data().data(), wo_.data().data(),
                     proj.data().data(), time, config_.out_dim,
                     config_.heads * config_.value_dim, false);
    out.set_sample(b, proj);
  }
  return out;
}

seq_batch multi_head_attention::backward(const seq_batch& grad_out) {
  if (caches_.size() != grad_out.batch())
    throw std::logic_error{"attention::backward before forward"};
  const double scale = 1.0 / std::sqrt(static_cast<double>(config_.key_dim));
  seq_batch grad_x{grad_out.batch(), grad_out.time(), config_.model_dim};
  for (std::size_t b = 0; b < grad_out.batch(); ++b) {
    const sample_cache& cache = caches_[b];
    const matrix d_out = grad_out.sample(b);
    // Output projection.
    matmul_tn_acc(cache.concat, d_out, gwo_);
    const matrix d_concat = matmul_nt(d_out, wo_);
    matrix dx{grad_out.time(), config_.model_dim};
    for (std::size_t h = 0; h < config_.heads; ++h) {
      const head_cache& hc = cache.heads[h];
      const std::size_t time = hc.q.rows();
      matrix d_head{time, config_.value_dim};
      for (std::size_t t = 0; t < time; ++t)
        for (std::size_t f = 0; f < config_.value_dim; ++f)
          d_head(t, f) = d_concat(t, h * config_.value_dim + f);
      // head_out = attn · v
      matrix d_attn = matmul_nt(d_head, hc.v);
      matrix d_v = matmul_tn(hc.attn, d_head);
      // Softmax backward, row-wise: ds = a ∘ (da − <da, a>).
      matrix d_scores{time, time};
      for (std::size_t i = 0; i < time; ++i) {
        double dot = 0;
        for (std::size_t j = 0; j < time; ++j) dot += d_attn(i, j) * hc.attn(i, j);
        for (std::size_t j = 0; j < time; ++j)
          d_scores(i, j) = hc.attn(i, j) * (d_attn(i, j) - dot);
      }
      for (auto& s : d_scores.data()) s *= scale;
      // scores = q·kᵀ
      const matrix d_q = matmul(d_scores, hc.k);
      const matrix d_k = matmul_tn(d_scores, hc.q);
      matmul_tn_acc(cache.x, d_q, gwq_[h]);
      matmul_tn_acc(cache.x, d_k, gwk_[h]);
      matmul_tn_acc(cache.x, d_v, gwv_[h]);
      matmul_nt_acc(d_q, wq_[h], dx);
      matmul_nt_acc(d_k, wk_[h], dx);
      matmul_nt_acc(d_v, wv_[h], dx);
    }
    grad_x.set_sample(b, dx);
  }
  return grad_x;
}

void multi_head_attention::collect_params(param_list& out) {
  for (std::size_t h = 0; h < config_.heads; ++h) {
    out.push_back({&wq_[h].data(), &gwq_[h].data()});
    out.push_back({&wk_[h].data(), &gwk_[h].data()});
    out.push_back({&wv_[h].data(), &gwv_[h].data()});
  }
  out.push_back({&wo_.data(), &gwo_.data()});
}

const matrix& multi_head_attention::attention_weights(std::size_t b,
                                                      std::size_t h) const {
  if (b >= caches_.size() || h >= config_.heads)
    throw std::out_of_range{"attention_weights: no cached forward pass for index"};
  return caches_[b].heads[h].attn;
}

void multi_head_attention::save(std::ostream& out) const {
  const std::uint64_t heads = config_.heads;
  const std::uint64_t dims[4] = {config_.model_dim, config_.key_dim,
                                 config_.value_dim, config_.out_dim};
  out.write(reinterpret_cast<const char*>(&heads), sizeof heads);
  out.write(reinterpret_cast<const char*>(dims), sizeof dims);
  for (std::size_t h = 0; h < config_.heads; ++h) {
    save_matrix(out, wq_[h]);
    save_matrix(out, wk_[h]);
    save_matrix(out, wv_[h]);
  }
  save_matrix(out, wo_);
}

void multi_head_attention::load(std::istream& in) {
  std::uint64_t heads = 0;
  std::uint64_t dims[4] = {};
  in.read(reinterpret_cast<char*>(&heads), sizeof heads);
  in.read(reinterpret_cast<char*>(dims), sizeof dims);
  if (!in) throw std::runtime_error{"attention::load: truncated stream"};
  // Range-check the header before anything is sized from it, then hold every
  // weight to the shape it promises.
  DQN_ENSURE(heads >= 1 && heads <= max_heads, "attention::load: ", heads,
             " heads, outside [1, ", max_heads, "] (corrupt stream?)");
  for (const std::uint64_t dim : dims)
    DQN_ENSURE(dim >= 1 && dim <= max_dim, "attention::load: dimension ", dim,
               " outside [1, ", max_dim, "] (corrupt stream?)");
  config_.heads = static_cast<std::size_t>(heads);
  config_.model_dim = static_cast<std::size_t>(dims[0]);
  config_.key_dim = static_cast<std::size_t>(dims[1]);
  config_.value_dim = static_cast<std::size_t>(dims[2]);
  config_.out_dim = static_cast<std::size_t>(dims[3]);
  const auto load_shaped = [&in](std::size_t rows, std::size_t cols) {
    matrix m = load_matrix(in);
    DQN_ENSURE(m.rows() == rows && m.cols() == cols, "attention::load: weight ",
               m.rows(), "x", m.cols(), ", header says ", rows, "x", cols,
               " (corrupt stream?)");
    return m;
  };
  wq_.clear(); wk_.clear(); wv_.clear();
  gwq_.clear(); gwk_.clear(); gwv_.clear();
  for (std::size_t h = 0; h < config_.heads; ++h) {
    wq_.push_back(load_shaped(config_.model_dim, config_.key_dim));
    wk_.push_back(load_shaped(config_.model_dim, config_.key_dim));
    wv_.push_back(load_shaped(config_.model_dim, config_.value_dim));
    gwq_.emplace_back(config_.model_dim, config_.key_dim);
    gwk_.emplace_back(config_.model_dim, config_.key_dim);
    gwv_.emplace_back(config_.model_dim, config_.value_dim);
  }
  wo_ = load_shaped(config_.heads * config_.value_dim, config_.out_dim);
  gwo_ = matrix{wo_.rows(), wo_.cols()};
}

}  // namespace dqn::nn
