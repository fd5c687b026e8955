#include "nn/lstm.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/kernels/epilogue.hpp"
#include "nn/kernels/gemm.hpp"
#include "util/check.hpp"

namespace dqn::nn {

namespace {

[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

lstm::lstm(std::size_t input_dim, std::size_t hidden_dim, bool reverse, util::rng& rng)
    : wx_{matrix::glorot(input_dim, 4 * hidden_dim, rng)},
      wh_{matrix::glorot(hidden_dim, 4 * hidden_dim, rng)},
      b_(4 * hidden_dim, 0.0),
      gwx_{input_dim, 4 * hidden_dim},
      gwh_{hidden_dim, 4 * hidden_dim},
      gb_(4 * hidden_dim, 0.0),
      reverse_{reverse} {
  // Initialize forget-gate bias to 1: the standard trick to keep gradients
  // flowing early in training.
  for (std::size_t j = hidden_dim; j < 2 * hidden_dim; ++j) b_[j] = 1.0;
}

void lstm::step(const matrix& x_t, matrix& h, matrix& c, step_cache& cache) const {
  const std::size_t hidden = wh_.rows();
  matrix z = matmul(x_t, wx_);
  matmul_acc(h, wh_, z);
  add_row_vector(z, b_);
  const std::size_t batch = x_t.rows();
  matrix gates{batch, 4 * hidden};
  matrix c_next{batch, hidden};
  matrix h_next{batch, hidden};
  for (std::size_t bi = 0; bi < batch; ++bi) {
    for (std::size_t j = 0; j < hidden; ++j) {
      const double zi = z(bi, j);
      const double zf = z(bi, hidden + j);
      const double zg = z(bi, 2 * hidden + j);
      const double zo = z(bi, 3 * hidden + j);
      const double gi = sigmoid(zi);
      const double gf = sigmoid(zf);
      const double gg = std::tanh(zg);
      const double go = sigmoid(zo);
      gates(bi, j) = gi;
      gates(bi, hidden + j) = gf;
      gates(bi, 2 * hidden + j) = gg;
      gates(bi, 3 * hidden + j) = go;
      const double cn = gf * c(bi, j) + gi * gg;
      c_next(bi, j) = cn;
      h_next(bi, j) = go * std::tanh(cn);
    }
  }
  cache.x = x_t;
  cache.gates = std::move(gates);
  cache.c_prev = c;
  cache.h_prev = h;
  cache.c = c_next;
  cache.h = h_next;
  c = std::move(c_next);
  h = std::move(h_next);
}

seq_batch lstm::forward(const seq_batch& x) {
  DQN_CHECK(x.features() == input_dim(), "lstm::forward: got ", x.features(),
            " features, want ", input_dim());
  const std::size_t batch = x.batch(), time = x.time(), hidden = hidden_dim();
  caches_.assign(time, {});
  cached_time_ = time;
  seq_batch out{batch, time, hidden};
  matrix h{batch, hidden};
  matrix c{batch, hidden};
  for (std::size_t s = 0; s < time; ++s) {
    const std::size_t t = reverse_ ? time - 1 - s : s;
    step(x.time_slice(t), h, c, caches_[s]);
    out.set_time_slice(t, h);
  }
  return out;
}

const seq_batch& lstm::forward(const seq_batch& x, workspace& ws) const {
  DQN_CHECK(x.features() == input_dim(), "lstm::forward: got ", x.features(),
            " features, want ", input_dim());
  const std::size_t batch = x.batch(), time = x.time(), hidden = hidden_dim();
  seq_batch& out = ws.take_seq(batch, time, hidden);
  matrix& h = ws.take_zeroed(batch, hidden);
  matrix& c = ws.take_zeroed(batch, hidden);
  matrix& xt = ws.take(batch, input_dim());
  matrix& z = ws.take(batch, 4 * hidden);
  for (std::size_t s = 0; s < time; ++s) {
    const std::size_t t = reverse_ ? time - 1 - s : s;
    x.time_slice_into(t, xt);
    kernels::gemm_nn(xt.data().data(), wx_.data().data(), z.data().data(),
                     batch, 4 * hidden, input_dim(), /*accumulate=*/false);
    kernels::gemm_nn(h.data().data(), wh_.data().data(), z.data().data(),
                     batch, 4 * hidden, hidden, /*accumulate=*/true);
    kernels::lstm_gates(z.data().data(), b_.data(), batch, hidden);
    kernels::lstm_state(z.data().data(), c.data().data(), h.data().data(),
                        batch, hidden);
    out.set_time_slice(t, h);
  }
  return out;
}

seq_batch lstm::backward(const seq_batch& grad_h_ext) {
  if (caches_.empty()) throw std::logic_error{"lstm::backward before forward"};
  const std::size_t time = cached_time_;
  const std::size_t batch = grad_h_ext.batch();
  const std::size_t hidden = hidden_dim();
  seq_batch grad_x{batch, time, input_dim()};
  matrix dh{batch, hidden};  // recurrent gradient flowing backwards
  matrix dc{batch, hidden};
  for (std::size_t s = time; s-- > 0;) {
    const std::size_t t = reverse_ ? time - 1 - s : s;
    const step_cache& cache = caches_[s];
    // Total gradient on h_t: external + recurrent.
    add_inplace(dh, grad_h_ext.time_slice(t));
    matrix dz{batch, 4 * hidden};
    matrix dc_prev{batch, hidden};
    for (std::size_t bi = 0; bi < batch; ++bi) {
      for (std::size_t j = 0; j < hidden; ++j) {
        const double gi = cache.gates(bi, j);
        const double gf = cache.gates(bi, hidden + j);
        const double gg = cache.gates(bi, 2 * hidden + j);
        const double go = cache.gates(bi, 3 * hidden + j);
        const double tanh_c = std::tanh(cache.c(bi, j));
        const double dht = dh(bi, j);
        const double dct = dc(bi, j) + dht * go * (1 - tanh_c * tanh_c);
        const double d_go = dht * tanh_c;
        const double d_gi = dct * gg;
        const double d_gf = dct * cache.c_prev(bi, j);
        const double d_gg = dct * gi;
        dz(bi, j) = d_gi * gi * (1 - gi);
        dz(bi, hidden + j) = d_gf * gf * (1 - gf);
        dz(bi, 2 * hidden + j) = d_gg * (1 - gg * gg);
        dz(bi, 3 * hidden + j) = d_go * go * (1 - go);
        dc_prev(bi, j) = dct * gf;
      }
    }
    matmul_tn_acc(cache.x, dz, gwx_);
    matmul_tn_acc(cache.h_prev, dz, gwh_);
    for (std::size_t bi = 0; bi < batch; ++bi)
      for (std::size_t j = 0; j < 4 * hidden; ++j) gb_[j] += dz(bi, j);
    grad_x.set_time_slice(t, matmul_nt(dz, wx_));
    dh = matmul_nt(dz, wh_);
    dc = std::move(dc_prev);
  }
  return grad_x;
}

void lstm::collect_params(param_list& out) {
  out.push_back({&wx_.data(), &gwx_.data()});
  out.push_back({&wh_.data(), &gwh_.data()});
  out.push_back({&b_, &gb_});
}

void lstm::save(std::ostream& out) const {
  save_matrix(out, wx_);
  save_matrix(out, wh_);
  const std::uint64_t n = b_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(b_.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  const std::uint8_t rev = reverse_ ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&rev), sizeof rev);
}

void lstm::load(std::istream& in) {
  wx_ = load_matrix(in);
  wh_ = load_matrix(in);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  b_.assign(n, 0.0);
  in.read(reinterpret_cast<char*>(b_.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  std::uint8_t rev = 0;
  in.read(reinterpret_cast<char*>(&rev), sizeof rev);
  if (!in) throw std::runtime_error{"lstm::load: truncated stream"};
  DQN_ENSURE(wx_.cols() == wh_.cols() && wh_.rows() * 4 == wh_.cols() &&
                 b_.size() == wx_.cols(),
             "lstm::load: inconsistent shapes wx=", wx_.rows(), "x", wx_.cols(),
             " wh=", wh_.rows(), "x", wh_.cols(), " b=", b_.size());
  reverse_ = rev != 0;
  gwx_ = matrix{wx_.rows(), wx_.cols()};
  gwh_ = matrix{wh_.rows(), wh_.cols()};
  gb_.assign(b_.size(), 0.0);
}

bilstm::bilstm(std::size_t input_dim, std::size_t hidden_dim, util::rng& rng)
    : fwd_{input_dim, hidden_dim, /*reverse=*/false, rng},
      bwd_{input_dim, hidden_dim, /*reverse=*/true, rng} {}

namespace {

seq_batch concat_features(const seq_batch& a, const seq_batch& b) {
  seq_batch out{a.batch(), a.time(), a.features() + b.features()};
  for (std::size_t bi = 0; bi < a.batch(); ++bi)
    for (std::size_t t = 0; t < a.time(); ++t) {
      for (std::size_t f = 0; f < a.features(); ++f) out.at(bi, t, f) = a.at(bi, t, f);
      for (std::size_t f = 0; f < b.features(); ++f)
        out.at(bi, t, a.features() + f) = b.at(bi, t, f);
    }
  return out;
}

}  // namespace

seq_batch bilstm::forward(const seq_batch& x) {
  return concat_features(fwd_.forward(x), bwd_.forward(x));
}

const seq_batch& bilstm::forward(const seq_batch& x, workspace& ws) const {
  const seq_batch& a = fwd_.forward(x, ws);
  const seq_batch& b = bwd_.forward(x, ws);
  seq_batch& out = ws.take_seq(a.batch(), a.time(), a.features() + b.features());
  for (std::size_t bi = 0; bi < a.batch(); ++bi)
    for (std::size_t t = 0; t < a.time(); ++t) {
      for (std::size_t f = 0; f < a.features(); ++f)
        out.at(bi, t, f) = a.at(bi, t, f);
      for (std::size_t f = 0; f < b.features(); ++f)
        out.at(bi, t, a.features() + f) = b.at(bi, t, f);
    }
  return out;
}

seq_batch bilstm::backward(const seq_batch& grad_out) {
  const std::size_t hidden = fwd_.hidden_dim();
  seq_batch grad_fwd{grad_out.batch(), grad_out.time(), hidden};
  seq_batch grad_bwd{grad_out.batch(), grad_out.time(), hidden};
  for (std::size_t bi = 0; bi < grad_out.batch(); ++bi)
    for (std::size_t t = 0; t < grad_out.time(); ++t) {
      for (std::size_t f = 0; f < hidden; ++f) {
        grad_fwd.at(bi, t, f) = grad_out.at(bi, t, f);
        grad_bwd.at(bi, t, f) = grad_out.at(bi, t, hidden + f);
      }
    }
  seq_batch grad_x = fwd_.backward(grad_fwd);
  const seq_batch grad_x2 = bwd_.backward(grad_bwd);
  for (std::size_t i = 0; i < grad_x.data().size(); ++i)
    grad_x.data()[i] += grad_x2.data()[i];
  return grad_x;
}

void bilstm::collect_params(param_list& out) {
  fwd_.collect_params(out);
  bwd_.collect_params(out);
}

void bilstm::save(std::ostream& out) const {
  fwd_.save(out);
  bwd_.save(out);
}

void bilstm::load(std::istream& in) {
  fwd_.load(in);
  bwd_.load(in);
}

}  // namespace dqn::nn
