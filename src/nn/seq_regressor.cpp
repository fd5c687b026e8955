#include "nn/seq_regressor.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

namespace dqn::nn {

namespace {

// The serialized header has a fixed slot per encoder width.
constexpr std::size_t max_encoder_layers = 16;

}  // namespace

seq_regressor::seq_regressor(const seq_regressor_config& config, util::rng& rng)
    : config_{config} {
  if (config.lstm_hidden.empty() || config.lstm_hidden.size() > max_encoder_layers)
    throw std::invalid_argument{"seq_regressor: need 1 to 16 BLSTM layers"};
  std::size_t dim = config.input_dim;
  for (std::size_t width : config.lstm_hidden) {
    encoder_.emplace_back(dim, width, rng);
    dim = 2 * width;
  }
  attention_config attn;
  attn.model_dim = dim;
  attn.heads = config.heads;
  attn.key_dim = config.key_dim;
  attn.value_dim = config.value_dim;
  attn.out_dim = config.attention_out;
  attention_ = multi_head_attention{attn, rng};
  head_hidden_ = dense{config.attention_out, config.head_hidden, activation::tanh, rng};
  head_out_ = dense{config.head_hidden, 1, activation::identity, rng};
}

matrix seq_regressor::forward(const seq_batch& x) {
  seq_batch h = x;
  for (auto& layer : encoder_) h = layer.forward(h);
  last_attn_out_ = attention_.forward(h);
  last_time_ = x.time();
  // Regression head reads the attended representation of the final packet.
  const matrix final_step = last_attn_out_.time_slice(last_time_ - 1);
  return head_out_.forward(head_hidden_.forward(final_step));
}

const matrix& seq_regressor::forward(const seq_batch& x, workspace& ws) const {
  const seq_batch* h = &x;
  for (const auto& layer : encoder_) h = &layer.forward(*h, ws);
  const seq_batch& attended = attention_.forward(*h, ws);
  matrix& final_step = ws.take(x.batch(), config_.attention_out);
  attended.time_slice_into(x.time() - 1, final_step);
  return head_out_.forward(head_hidden_.forward(final_step, ws), ws);
}

double seq_regressor::backward_mse(const matrix& predictions, const matrix& targets) {
  if (predictions.rows() != targets.rows() || predictions.cols() != 1 ||
      targets.cols() != 1)
    throw std::invalid_argument{"backward_mse: expected (B,1) shapes"};
  const auto batch = static_cast<double>(predictions.rows());
  matrix grad{predictions.rows(), 1};
  double loss = 0;
  for (std::size_t i = 0; i < predictions.rows(); ++i) {
    const double diff = predictions(i, 0) - targets(i, 0);
    loss += diff * diff;
    grad(i, 0) = 2.0 * diff / batch;
  }
  loss /= batch;

  const matrix grad_final = head_hidden_.backward(head_out_.backward(grad));
  seq_batch grad_attn{last_attn_out_.batch(), last_time_, config_.attention_out};
  grad_attn.set_time_slice(last_time_ - 1, grad_final);
  seq_batch g = attention_.backward(grad_attn);
  for (auto it = encoder_.rbegin(); it != encoder_.rend(); ++it) g = it->backward(g);
  return loss;
}

void seq_regressor::collect_params(param_list& out) {
  for (auto& layer : encoder_) layer.collect_params(out);
  attention_.collect_params(out);
  head_hidden_.collect_params(out);
  head_out_.collect_params(out);
}

void seq_regressor::save(std::ostream& out) const {
  const std::uint64_t layers = encoder_.size();
  const std::uint64_t input_dim = config_.input_dim;
  const std::uint64_t head_hidden = config_.head_hidden;
  out.write(reinterpret_cast<const char*>(&layers), sizeof layers);
  out.write(reinterpret_cast<const char*>(&input_dim), sizeof input_dim);
  out.write(reinterpret_cast<const char*>(&head_hidden), sizeof head_hidden);
  std::uint64_t widths[max_encoder_layers] = {};
  for (std::size_t i = 0; i < encoder_.size(); ++i)
    widths[i] = config_.lstm_hidden[i];
  out.write(reinterpret_cast<const char*>(widths), sizeof widths);
  for (const auto& layer : encoder_) layer.save(out);
  attention_.save(out);
  head_hidden_.save(out);
  head_out_.save(out);
}

void seq_regressor::load(std::istream& in) {
  std::uint64_t layers = 0, input_dim = 0, head_hidden = 0;
  in.read(reinterpret_cast<char*>(&layers), sizeof layers);
  in.read(reinterpret_cast<char*>(&input_dim), sizeof input_dim);
  in.read(reinterpret_cast<char*>(&head_hidden), sizeof head_hidden);
  std::uint64_t widths[max_encoder_layers] = {};
  in.read(reinterpret_cast<char*>(widths), sizeof widths);
  if (!in) throw std::runtime_error{"seq_regressor::load: truncated stream"};
  DQN_ENSURE(layers >= 1 && layers <= max_encoder_layers,
             "seq_regressor::load: ", layers,
             " encoder layers out of range [1, ", max_encoder_layers,
             "] (corrupt stream?)");
  config_.input_dim = static_cast<std::size_t>(input_dim);
  config_.head_hidden = static_cast<std::size_t>(head_hidden);
  config_.lstm_hidden.clear();
  encoder_.assign(static_cast<std::size_t>(layers), bilstm{});
  for (std::size_t i = 0; i < encoder_.size(); ++i)
    config_.lstm_hidden.push_back(static_cast<std::size_t>(widths[i]));
  for (auto& layer : encoder_) layer.load(in);
  attention_.load(in);
  config_.heads = attention_.config().heads;
  config_.key_dim = attention_.config().key_dim;
  config_.value_dim = attention_.config().value_dim;
  config_.attention_out = attention_.config().out_dim;
  head_hidden_.load(in);
  head_out_.load(in);
}

}  // namespace dqn::nn
