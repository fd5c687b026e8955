#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "nn/adam.hpp"
#include "nn/attention.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "nn/seq.hpp"
#include "nn/seq_regressor.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"

namespace {

using namespace dqn::nn;
using dqn::util::rng;

TEST(matrix, matmul_known_values) {
  matrix a{2, 3, {1, 2, 3, 4, 5, 6}};
  matrix b{3, 2, {7, 8, 9, 10, 11, 12}};
  const matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(matrix, matmul_tn_equals_transpose_then_matmul) {
  rng r{1};
  const matrix a = matrix::randn(4, 3, r, 1.0);
  const matrix b = matrix::randn(4, 5, r, 1.0);
  const matrix direct = matmul_tn(a, b);
  const matrix reference = matmul(transpose(a), b);
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct.data()[i], reference.data()[i], 1e-12);
}

TEST(matrix, matmul_nt_equals_matmul_with_transpose) {
  rng r{2};
  const matrix a = matrix::randn(3, 4, r, 1.0);
  const matrix b = matrix::randn(5, 4, r, 1.0);
  const matrix direct = matmul_nt(a, b);
  const matrix reference = matmul(a, transpose(b));
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct.data()[i], reference.data()[i], 1e-12);
}

TEST(matrix, shape_mismatch_throws) {
  matrix a{2, 3};
  matrix b{2, 3};
  if (!dqn::util::contracts_enabled)
    GTEST_SKIP() << "DQN_CHECK compiled out in this build";
  EXPECT_THROW((void)matmul(a, b), dqn::util::contract_violation);
  EXPECT_THROW(add_inplace(a, matrix{3, 2}), dqn::util::contract_violation);
}

TEST(matrix, save_load_roundtrip) {
  rng r{3};
  const matrix m = matrix::randn(4, 7, r, 2.0);
  std::stringstream buffer;
  save_matrix(buffer, m);
  const matrix loaded = load_matrix(buffer);
  ASSERT_EQ(loaded.rows(), m.rows());
  ASSERT_EQ(loaded.cols(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i)
    EXPECT_DOUBLE_EQ(loaded.data()[i], m.data()[i]);
}

TEST(seq_batch, slices_and_samples_are_views_of_same_data) {
  seq_batch x{2, 3, 4};
  x.at(1, 2, 3) = 42.0;
  EXPECT_DOUBLE_EQ(x.time_slice(2)(1, 3), 42.0);
  EXPECT_DOUBLE_EQ(x.sample(1)(2, 3), 42.0);
}

// --- Gradient checking ----------------------------------------------------
//
// Loss = 0.5 * sum(output^2); analytic grads via backward(output), numeric
// via central differences on every parameter.

template <typename Forward, typename Backward>
void check_gradients(param_list& params, Forward&& forward, Backward&& backward,
                     double tolerance = 1e-6) {
  // Analytic pass.
  zero_grads(params);
  backward();
  std::vector<std::vector<double>> analytic;
  for (auto& p : params)
    analytic.emplace_back(p.grad->begin(), p.grad->end());

  const double eps = 1e-5;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto& value = *params[pi].value;
    for (std::size_t j = 0; j < value.size(); ++j) {
      const double original = value[j];
      value[j] = original + eps;
      const double up = forward();
      value[j] = original - eps;
      const double down = forward();
      value[j] = original;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(analytic[pi][j], numeric, tolerance)
          << "param block " << pi << " index " << j;
    }
  }
}

double half_sum_squares(const matrix& y) {
  double loss = 0;
  for (double v : y.data()) loss += 0.5 * v * v;
  return loss;
}

double half_sum_squares(const seq_batch& y) {
  double loss = 0;
  for (double v : y.data()) loss += 0.5 * v * v;
  return loss;
}

TEST(gradients, dense_layer) {
  rng r{10};
  dense layer{3, 2, activation::tanh, r};
  const matrix x = matrix::randn(4, 3, r, 1.0);
  param_list params;
  layer.collect_params(params);
  auto forward = [&] { return half_sum_squares(layer.forward(x)); };
  auto backward = [&] {
    const matrix y = layer.forward(x);
    (void)layer.backward(y);  // dL/dy = y for 0.5*sum(y^2)
  };
  check_gradients(params, forward, backward);
}

TEST(gradients, dense_input_gradient) {
  rng r{11};
  dense layer{3, 2, activation::sigmoid, r};
  matrix x = matrix::randn(2, 3, r, 1.0);
  const matrix y0 = layer.forward(x);
  const matrix grad_x = layer.backward(y0);
  const double eps = 1e-5;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double original = x.data()[i];
    x.data()[i] = original + eps;
    const double up = half_sum_squares(layer.forward(x));
    x.data()[i] = original - eps;
    const double down = half_sum_squares(layer.forward(x));
    x.data()[i] = original;
    EXPECT_NEAR(grad_x.data()[i], (up - down) / (2 * eps), 1e-6);
  }
}

TEST(gradients, lstm_layer) {
  rng r{12};
  lstm layer{3, 4, /*reverse=*/false, r};
  seq_batch x{2, 5, 3};
  for (auto& v : x.data()) v = r.normal(0, 1);
  param_list params;
  layer.collect_params(params);
  auto forward = [&] { return half_sum_squares(layer.forward(x)); };
  auto backward = [&] {
    const seq_batch y = layer.forward(x);
    (void)layer.backward(y);
  };
  check_gradients(params, forward, backward, 1e-5);
}

TEST(gradients, lstm_reverse_direction) {
  rng r{13};
  lstm layer{2, 3, /*reverse=*/true, r};
  seq_batch x{1, 4, 2};
  for (auto& v : x.data()) v = r.normal(0, 1);
  param_list params;
  layer.collect_params(params);
  auto forward = [&] { return half_sum_squares(layer.forward(x)); };
  auto backward = [&] {
    const seq_batch y = layer.forward(x);
    (void)layer.backward(y);
  };
  check_gradients(params, forward, backward, 1e-5);
}

TEST(gradients, bilstm_layer) {
  rng r{14};
  bilstm layer{3, 3, r};
  seq_batch x{2, 4, 3};
  for (auto& v : x.data()) v = r.normal(0, 1);
  param_list params;
  layer.collect_params(params);
  auto forward = [&] { return half_sum_squares(layer.forward(x)); };
  auto backward = [&] {
    const seq_batch y = layer.forward(x);
    (void)layer.backward(y);
  };
  check_gradients(params, forward, backward, 1e-5);
}

TEST(gradients, multi_head_attention) {
  rng r{15};
  attention_config cfg;
  cfg.model_dim = 4;
  cfg.heads = 2;
  cfg.key_dim = 3;
  cfg.value_dim = 3;
  cfg.out_dim = 4;
  multi_head_attention layer{cfg, r};
  seq_batch x{2, 5, 4};
  for (auto& v : x.data()) v = r.normal(0, 1);
  param_list params;
  layer.collect_params(params);
  auto forward = [&] { return half_sum_squares(layer.forward(x)); };
  auto backward = [&] {
    const seq_batch y = layer.forward(x);
    (void)layer.backward(y);
  };
  check_gradients(params, forward, backward, 1e-5);
}

TEST(gradients, attention_input_gradient) {
  rng r{16};
  attention_config cfg;
  cfg.model_dim = 3;
  cfg.heads = 1;
  cfg.key_dim = 2;
  cfg.value_dim = 2;
  cfg.out_dim = 3;
  multi_head_attention layer{cfg, r};
  seq_batch x{1, 4, 3};
  for (auto& v : x.data()) v = r.normal(0, 1);
  const seq_batch y0 = layer.forward(x);
  const seq_batch grad_x = layer.backward(y0);
  const double eps = 1e-5;
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    const double original = x.data()[i];
    x.data()[i] = original + eps;
    const double up = half_sum_squares(layer.forward(x));
    x.data()[i] = original - eps;
    const double down = half_sum_squares(layer.forward(x));
    x.data()[i] = original;
    EXPECT_NEAR(grad_x.data()[i], (up - down) / (2 * eps), 1e-6);
  }
}

TEST(gradients, seq_regressor_mse) {
  rng r{17};
  seq_regressor_config cfg;
  cfg.input_dim = 3;
  cfg.lstm_hidden = {3};
  cfg.heads = 2;
  cfg.key_dim = 2;
  cfg.value_dim = 2;
  cfg.attention_out = 4;
  cfg.head_hidden = 4;
  seq_regressor model{cfg, r};
  seq_batch x{3, 4, 3};
  for (auto& v : x.data()) v = r.normal(0, 1);
  matrix targets{3, 1};
  for (auto& v : targets.data()) v = r.normal(0, 1);
  param_list params;
  model.collect_params(params);
  auto forward = [&] {
    const matrix pred = model.forward(x);
    double loss = 0;
    for (std::size_t i = 0; i < pred.rows(); ++i) {
      const double diff = pred(i, 0) - targets(i, 0);
      loss += diff * diff;
    }
    return loss / static_cast<double>(pred.rows());
  };
  auto backward = [&] {
    const matrix pred = model.forward(x);
    (void)model.backward_mse(pred, targets);
  };
  check_gradients(params, forward, backward, 1e-5);
}

// --- Training ------------------------------------------------------------

TEST(adam, minimizes_quadratic) {
  // Minimize (w - 3)^2 elementwise.
  aligned_vector w(8, 0.0);
  aligned_vector g(8, 0.0);
  param_list params{{&w, &g}};
  adam_config cfg;
  cfg.learning_rate = 0.05;
  adam opt{params, cfg};
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < w.size(); ++i) g[i] = 2 * (w[i] - 3.0);
    opt.step();
  }
  for (double v : w) EXPECT_NEAR(v, 3.0, 1e-3);
}

TEST(adam, grad_clip_bounds_update) {
  aligned_vector w{0.0};
  aligned_vector g{1e9};
  adam_config cfg;
  cfg.grad_clip = 1.0;
  cfg.learning_rate = 0.1;
  adam opt{{{&w, &g}}, cfg};
  opt.step();
  EXPECT_LT(std::abs(w[0]), 1.0);
}

TEST(mlp, learns_xor_like_function) {
  rng r{19};
  mlp net{{2, 8, 1}, activation::tanh, r};
  matrix x{4, 2, {0, 0, 0, 1, 1, 0, 1, 1}};
  matrix y{4, 1, {0, 1, 1, 0}};
  param_list params;
  net.collect_params(params);
  adam opt{params, {.learning_rate = 0.02}};
  for (int step = 0; step < 3000; ++step) {
    const matrix pred = net.forward(x);
    matrix grad{4, 1};
    for (std::size_t i = 0; i < 4; ++i) grad(i, 0) = 2 * (pred(i, 0) - y(i, 0)) / 4;
    (void)net.backward(grad);
    opt.step();
  }
  const matrix pred = net.forward(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(pred(i, 0), y(i, 0), 0.1);
}

TEST(seq_regressor, learns_sum_of_last_inputs) {
  // Target = sum of feature 0 over the last 2 time steps: needs temporal
  // context, exercises the full stack end-to-end.
  rng r{20};
  seq_regressor_config cfg;
  cfg.input_dim = 2;
  cfg.lstm_hidden = {8};
  cfg.heads = 2;
  cfg.key_dim = 4;
  cfg.value_dim = 4;
  cfg.attention_out = 8;
  cfg.head_hidden = 8;
  seq_regressor model{cfg, r};
  param_list params;
  model.collect_params(params);
  adam opt{params, {.learning_rate = 5e-3}};

  const std::size_t batch = 32, time = 5;
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    seq_batch x{batch, time, 2};
    matrix y{batch, 1};
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t t = 0; t < time; ++t) {
        x.at(b, t, 0) = r.uniform(-1, 1);
        x.at(b, t, 1) = r.uniform(-1, 1);
      }
      y(b, 0) = x.at(b, time - 1, 0) + x.at(b, time - 2, 0);
    }
    const matrix pred = model.forward(x);
    final_loss = model.backward_mse(pred, y);
    opt.step();
  }
  EXPECT_LT(final_loss, 0.05);
}

// --- Scalers --------------------------------------------------------------

TEST(min_max_scaler, scales_to_unit_interval) {
  min_max_scaler scaler;
  const std::vector<double> rows{0, 10, 5, 20, 10, 15};  // 3 rows x 2 features
  scaler.fit(rows, 2);
  EXPECT_DOUBLE_EQ(scaler.transform_one(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform_one(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(scaler.transform_one(1, 15), 0.5);
  EXPECT_DOUBLE_EQ(scaler.inverse_one(1, 0.5), 15.0);
}

TEST(min_max_scaler, constant_feature_maps_to_zero) {
  min_max_scaler scaler;
  const std::vector<double> rows{5, 5, 5};
  scaler.fit(rows, 1);
  EXPECT_DOUBLE_EQ(scaler.transform_one(0, 5), 0.0);
}

TEST(min_max_scaler, save_load_roundtrip) {
  min_max_scaler scaler;
  const std::vector<double> rows{0, 1, 2, 3};
  scaler.fit(rows, 2);
  std::stringstream buffer;
  scaler.save(buffer);
  min_max_scaler loaded;
  loaded.load(buffer);
  EXPECT_DOUBLE_EQ(loaded.transform_one(0, 1), scaler.transform_one(0, 1));
}

TEST(target_scaler, roundtrip) {
  target_scaler scaler;
  const std::vector<double> ys{2, 4, 10};
  scaler.fit(ys);
  EXPECT_DOUBLE_EQ(scaler.transform(2), 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform(10), 1.0);
  EXPECT_DOUBLE_EQ(scaler.inverse(scaler.transform(7.0)), 7.0);
}

TEST(serialization, seq_regressor_roundtrip_preserves_outputs) {
  rng r{21};
  seq_regressor_config cfg;
  cfg.input_dim = 3;
  cfg.lstm_hidden = {4, 3};
  seq_regressor model{cfg, r};
  seq_batch x{2, 5, 3};
  for (auto& v : x.data()) v = r.normal(0, 1);
  const matrix before = model.forward(x);

  std::stringstream buffer;
  model.save(buffer);
  seq_regressor loaded;
  loaded.load(buffer);
  const matrix after = loaded.forward(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
}

// Loaders validate what they read: one corrupted byte that puts an enum or a
// count out of range is a typed error, never silently wrong inference.
TEST(serialization, dense_load_rejects_out_of_range_activation) {
  rng r{23};
  const dense layer{3, 2, activation::relu, r};
  std::stringstream buffer;
  layer.save(buffer);
  std::string bytes = buffer.str();
  bytes[bytes.size() - sizeof(std::int32_t)] = 9;  // trailing activation int32
  std::istringstream in{bytes};
  dense loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, seq_regressor_load_rejects_out_of_range_depth) {
  rng r{24};
  seq_regressor_config cfg;
  cfg.input_dim = 3;
  cfg.lstm_hidden = {4, 3};
  const seq_regressor model{cfg, r};
  std::stringstream buffer;
  model.save(buffer);
  std::string bytes = buffer.str();
  bytes[0] = 17;  // low byte of the leading encoder-layer count
  std::istringstream in{bytes};
  seq_regressor loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, seq_regressor_rejects_more_layers_than_save_records) {
  rng r{25};
  seq_regressor_config cfg;
  cfg.lstm_hidden.assign(17, 2);
  EXPECT_THROW((seq_regressor{cfg, r}), std::invalid_argument);
}

// Size fields: a corrupt count or dimension is a typed error before anything
// is allocated from it, never std::bad_alloc.
TEST(serialization, mlp_load_rejects_oversized_layer_count) {
  rng r{26};
  const mlp net{{3, 4, 1}, activation::tanh, r};
  std::stringstream buffer;
  net.save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 1;  // leading u64 layer count: 2 -> 2^32 + 2
  std::istringstream in{bytes};
  mlp loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, mlp_rejects_more_layers_than_load_accepts) {
  rng r{27};
  const std::vector<std::size_t> dims(mlp::max_layers + 2, 2);
  EXPECT_THROW((mlp{dims, activation::tanh, r}), dqn::util::contract_violation);
}

// A saved 4-wide, 1-head attention layer: u64 head count, then the u64
// model/key/value/out dims, then the weights.
std::string saved_attention_layer() {
  rng r{28};
  attention_config cfg;
  cfg.model_dim = 4;
  cfg.heads = 1;
  cfg.key_dim = 2;
  cfg.value_dim = 2;
  cfg.out_dim = 3;
  const multi_head_attention layer{cfg, r};
  std::stringstream buffer;
  layer.save(buffer);
  return buffer.str();
}

TEST(serialization, attention_load_rejects_oversized_model_dim) {
  std::string bytes = saved_attention_layer();
  bytes[8 + 4] = 0x7f;  // byte 4 of model_dim, the u64 after the head count
  std::istringstream in{bytes};
  multi_head_attention loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, attention_load_rejects_weights_that_disagree_with_header) {
  std::string bytes = saved_attention_layer();
  bytes[8] = 5;  // model_dim 4 -> 5: in range, but the weights are 4 rows
  std::istringstream in{bytes};
  multi_head_attention loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, scaler_load_rejects_oversized_feature_count) {
  min_max_scaler scaler;
  scaler.fit(std::vector<double>{0, 1, 2, 3, 4, 5}, 3);
  std::stringstream buffer;
  scaler.save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 1;  // leading u64 feature count: 3 -> 2^32 + 3
  std::istringstream in{bytes};
  min_max_scaler loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, dense_load_rejects_bias_count_that_disagrees_with_weights) {
  rng r{30};
  const dense layer{3, 2, activation::relu, r};
  std::stringstream buffer;
  layer.save(buffer);
  std::string bytes = buffer.str();
  // Weight header (2 x u64) and 3x2 payload, then the u64 bias count.
  bytes[16 + 6 * sizeof(double) + 4] = 1;
  std::istringstream in{bytes};
  dense loaded;
  EXPECT_THROW(loaded.load(in), dqn::util::contract_violation);
}

TEST(serialization, load_matrix_rejects_oversized_element_count) {
  const matrix m{2, 2};
  std::stringstream buffer;
  save_matrix(buffer, m);
  std::string bytes = buffer.str();
  bytes[3] = 1;      // rows 2 -> 2^24 + 2
  bytes[8 + 3] = 1;  // cols 2 -> 2^24 + 2: each in range, the product not
  std::istringstream in{bytes};
  EXPECT_THROW((void)load_matrix(in), dqn::util::contract_violation);
}

TEST(serialization, mlp_roundtrip_preserves_outputs) {
  rng r{22};
  mlp net{{3, 5, 2}, activation::relu, r};
  const matrix x = matrix::randn(4, 3, r, 1.0);
  const matrix before = net.forward(x);
  std::stringstream buffer;
  net.save(buffer);
  mlp loaded;
  loaded.load(buffer);
  const matrix after = loaded.forward(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
}

}  // namespace
