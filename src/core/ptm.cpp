#include "core/ptm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

#include "core/features.hpp"
#include "obs/scoped_timer.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dqn::core {

const char* to_string(ptm_arch arch) noexcept {
  switch (arch) {
    case ptm_arch::mlp: return "mlp";
    case ptm_arch::attention: return "attention";
  }
  return "?";
}

std::size_t ptm_dataset::count() const {
  if (time_steps == 0) return 0;
  return windows.size() / (time_steps * feature_count);
}

void ptm_dataset::append(const ptm_dataset& other) {
  if (time_steps == 0) time_steps = other.time_steps;
  DQN_ENSURE(time_steps == other.time_steps,
             "ptm_dataset::append: time_steps mismatch: ", time_steps, " vs ",
             other.time_steps);
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
  targets.insert(targets.end(), other.targets.begin(), other.targets.end());
}

ptm_model::ptm_model(const ptm_config& config) : config_{config} {
  util::rng rng{config.seed};
  if (config_.arch == ptm_arch::attention) {
    nn::seq_regressor_config seq;
    seq.input_dim = feature_count;
    seq.lstm_hidden = config_.lstm_hidden;
    seq.heads = config_.heads;
    seq.key_dim = config_.key_dim;
    seq.value_dim = config_.value_dim;
    seq.attention_out = config_.attention_out;
    attention_net_ = nn::seq_regressor{seq, rng};
  } else {
    std::vector<std::size_t> dims;
    dims.push_back(config_.time_steps * feature_count);
    for (std::size_t h : config_.mlp_hidden) dims.push_back(h);
    dims.push_back(1);
    mlp_net_ = nn::mlp{dims, nn::activation::tanh, rng};
  }
}

namespace {

// x -> log1p(x / scale) for the heavy-tailed features (features.hpp), one
// feature row from `in` to `out`.
void log_row(const double* in, double* out) {
  for (std::size_t f = 0; f < feature_count; ++f) {
    const double scale = feature_log_scale[f];
    out[f] = scale > 0 ? std::log1p(in[f] / scale) : in[f];
  }
}

// Applies `row_fn(in_row, out_row)` to every feature row of `windows`
// (count x time_steps x feature_count) and writes the results to `out`, the
// same shape. Rows are pure functions of their bits, so when a window's first
// time_steps-1 rows are byte-equal to the previous window's last ones, as in
// every window make_windows builds after the first, their results are copied
// from the previous output window and only the final row is computed. Any
// other input (shuffled, hand-built) is computed row by row. Either way the
// output is bit-identical to applying `row_fn` to every row.
template <typename RowFn>
void map_window_rows(std::span<const double> windows, std::span<double> out,
                     std::size_t time_steps, RowFn row_fn) {
  const std::size_t window_size = time_steps * feature_count;
  const std::size_t shared = window_size - feature_count;  // rows 0..T-2
  const std::size_t n = windows.size() / window_size;
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = windows.data() + i * window_size;
    double* dst = out.data() + i * window_size;
    std::size_t t = 0;
    if (i > 0 && shared > 0 &&
        std::memcmp(src, src - shared, shared * sizeof(double)) == 0) {
      std::copy_n(dst - shared, shared, dst);
      t = time_steps - 1;
    }
    for (; t < time_steps; ++t)
      row_fn(src + t * feature_count, dst + t * feature_count);
  }
}

// Residual learning: the regression target is the *deviation* of the sojourn
// from the class-resolved work-conserving bound W_k (the unfinished work of
// the packet's own-and-higher classes). W_k is exactly the FIFO wait under
// FIFO and the non-preemptive SP wait ignoring future arrivals under SP, so
// the DNN spends its capacity only on the genuinely intractable part
// (future-arrival preemption, weighted interleaving). asinh gives a
// symmetric log-like transform for the signed residual.
double residual_to_net(double sojourn_seconds, double prior_bound) {
  return std::asinh((sojourn_seconds - prior_bound) / sojourn_log_scale);
}

double residual_from_net(double net_value, double prior_bound) {
  return prior_bound + std::sinh(net_value) * sojourn_log_scale;
}

// The prior bound of window i is a raw feature of its final time step.
double window_prior_bound(std::span<const double> windows, std::size_t i,
                          std::size_t time_steps) {
  return windows[(i * time_steps + time_steps - 1) * feature_count +
                 f_own_class_work];
}

// Scheduler kind of window i, decoded from the one-hot of its final step.
std::size_t window_scheduler(std::span<const double> windows, std::size_t i,
                             std::size_t time_steps) {
  const std::size_t row = (i * time_steps + time_steps - 1) * feature_count;
  for (std::size_t f = f_sched_fifo; f <= f_sched_wfq; ++f)
    if (windows[row + f] > 0.5) return f - f_sched_fifo;
  return 0;  // default to FIFO if the one-hot is absent
}

}  // namespace

void ptm_model::scale_windows_into(std::span<const double> windows,
                                   std::span<double> out) const {
  const std::size_t window_size = config_.time_steps * feature_count;
  DQN_ENSURE(windows.size() % window_size == 0 && out.size() == windows.size(),
             "ptm_model: ", windows.size(), " window values into ", out.size(),
             " outputs; want equal sizes, a multiple of window ", window_size);
  DQN_ENSURE(feature_scaler_.features() == feature_count,
             "ptm_model: feature scaler is ", feature_scaler_.features(),
             " wide, want ", feature_count);
  map_window_rows(windows, out, config_.time_steps,
                  [this](const double* in, double* row) {
                    log_row(in, row);
                    feature_scaler_.transform_row({row, feature_count});
                  });
}

training_report ptm_model::train(
    const ptm_dataset& data, const std::function<void(std::size_t, double)>& on_epoch) {
  DQN_ENSURE(data.time_steps == config_.time_steps,
             "ptm_model::train: dataset has time_steps=", data.time_steps,
             ", model wants ", config_.time_steps);
  const std::size_t n = data.count();
  DQN_ENSURE(n > 0 && data.targets.size() == n,
             "ptm_model::train: empty or inconsistent dataset (", n,
             " windows, ", data.targets.size(), " targets)");

  util::stopwatch watch;
  // One buffer serves twice: the log-transformed rows the scaler is fit on,
  // then the scaled windows every batch gathers from.
  std::vector<double> scaled(data.windows.size());
  map_window_rows(data.windows, scaled, config_.time_steps, log_row);
  feature_scaler_.fit(scaled, feature_count);
  {
    std::vector<double> net_targets(data.targets.size());
    for (std::size_t i = 0; i < data.targets.size(); ++i)
      net_targets[i] = residual_to_net(
          data.targets[i],
          window_prior_bound(data.windows, i, config_.time_steps));
    target_scaler_.fit(net_targets);
  }
  scale_windows_into(data.windows, scaled);

  nn::param_list params;
  if (config_.arch == ptm_arch::attention)
    attention_net_.collect_params(params);
  else
    mlp_net_.collect_params(params);
  nn::adam optimizer{params, config_.adam};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::rng shuffle_rng{util::derive_seed(config_.seed, 0x5ec5)};

  training_report report;
  // Per-batch telemetry through pre-resolved handles: the batch loop is the
  // training hot path, so it must not take the registry's name lock.
  obs::counter_handle batches_handle;
  obs::histogram_handle batch_mse_handle;
  if (config_.sink != nullptr) {
    batches_handle = config_.sink->counter_handle_for("ptm.batches");
    batch_mse_handle = config_.sink->histogram_handle_for("ptm.batch_mse");
  }
  const std::size_t batch_size = std::min(config_.batch_size, n);
  // Batch staging buffers hoisted out of the loops: every iteration reuses
  // the same allocations instead of constructing fresh tensors per batch.
  // Each architecture gathers its batch straight into the tensor its
  // forward pass reads.
  const std::size_t window_size = config_.time_steps * feature_count;
  const bool attention = config_.arch == ptm_arch::attention;
  nn::seq_batch batch{attention ? batch_size : 0, config_.time_steps, feature_count};
  nn::matrix flat{attention ? 0 : batch_size, window_size};
  double* const gather = attention ? batch.data().data() : flat.data().data();
  nn::matrix targets{batch_size, 1};
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::scoped_timer epoch_timer{config_.sink, "ptm", "epoch", epoch};
    shuffle_rng.shuffle(order);
    double epoch_loss = 0;
    double grad_norm = 0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin + batch_size <= n; begin += batch_size) {
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::size_t src = order[begin + b];
        std::copy_n(scaled.data() + src * window_size, window_size,
                    gather + b * window_size);
        targets(b, 0) = target_scaler_.transform(residual_to_net(
            data.targets[src],
            window_prior_bound(data.windows, src, config_.time_steps)));
      }
      double loss = 0;
      if (attention) {
        const nn::matrix pred = attention_net_.forward(batch);
        loss = attention_net_.backward_mse(pred, targets);
      } else {
        const nn::matrix pred = mlp_net_.forward(flat);
        nn::matrix grad{batch_size, 1};  // backward consumes it; cheap next to the GEMMs
        for (std::size_t b = 0; b < batch_size; ++b) {
          const double diff = pred(b, 0) - targets(b, 0);
          loss += diff * diff;
          grad(b, 0) = 2.0 * diff / static_cast<double>(batch_size);
        }
        loss /= static_cast<double>(batch_size);
        (void)mlp_net_.backward(grad);
      }
      if (config_.sink != nullptr && begin + 2 * batch_size > n) {
        // Gradient L2 norm of the epoch's final batch (pre-step, so the
        // grads are still the raw backward output) — the training-health
        // signal next to the loss curve.
        double grad_sq = 0;
        for (const auto& p : params)
          for (const double g : *p.grad) grad_sq += g * g;
        grad_norm = std::sqrt(grad_sq);
      }
      optimizer.step();
      epoch_loss += loss;
      ++batches;
      batches_handle.add();
      batch_mse_handle.observe(loss);
    }
    const double mse = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    report.epoch_mse.push_back(mse);
    if (config_.sink != nullptr) {
      epoch_timer.set_value(mse);
      config_.sink->observe("ptm.epoch_mse", mse);
      config_.sink->observe("ptm.grad_norm", grad_norm);
      config_.sink->gauge("ptm.last_mse", mse);
      config_.sink->count("ptm.epochs");
    }
    if (on_epoch) on_epoch(epoch, mse);
  }
  trained_ = true;
  report.train_seconds = watch.elapsed_seconds();
  return report;
}

std::vector<double> ptm_model::predict(std::span<const double> windows,
                                       nn::workspace& ws, bool apply_sec,
                                       std::vector<double>* raw_out) const {
  if (!trained_) throw std::logic_error{"ptm_model::predict: model not trained"};
  ws.reset();
  // The windows are scaled straight into the operand the network reads.
  const std::size_t n = windows.size() / (config_.time_steps * feature_count);
  std::vector<double> out(n);
  if (config_.arch == ptm_arch::attention) {
    nn::seq_batch& batch = ws.take_seq(n, config_.time_steps, feature_count);
    scale_windows_into(windows, batch.data());
    const nn::matrix& pred = attention_net_.forward(batch, ws);
    for (std::size_t i = 0; i < n; ++i) out[i] = pred(i, 0);
  } else {
    nn::matrix& x = ws.take(n, config_.time_steps * feature_count);
    scale_windows_into(windows, x.data());
    const nn::matrix& pred = mlp_net_.forward(x, ws);
    for (std::size_t i = 0; i < n; ++i) out[i] = pred(i, 0);
  }
  if (config_.sink != nullptr) {
    // Pre-resolved handle, same idiom as the SEC metrics below: one name
    // lookup per call, lock-free store.
    obs::gauge_handle ws_bytes = config_.sink->gauge_handle_for("nn.workspace_bytes");
    ws_bytes.set(static_cast<double>(ws.bytes()));
  }
  if (raw_out != nullptr) {
    raw_out->clear();
    raw_out->resize(n);
  }
  // SEC telemetry goes through pre-resolved handles (one name lookup per
  // predict call, lock-free per packet); null handles when no sink is set.
  obs::counter_handle sec_corrections;
  obs::histogram_handle sec_relative;
  if (config_.sink != nullptr && apply_sec) {
    sec_corrections = config_.sink->counter_handle_for("sec.corrections");
    sec_relative = config_.sink->histogram_handle_for("sec.relative_correction");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Clamp to (slightly beyond) the training range: scaled outputs past it
    // are extrapolation noise that the inverse transform would amplify.
    double y = std::clamp(out[i], 0.0, 1.0);
    y = residual_from_net(
        target_scaler_.inverse(y),
        window_prior_bound(windows, i, config_.time_steps));
    if (raw_out != nullptr) (*raw_out)[i] = std::max(0.0, y);
    if (apply_sec) {
      const auto& table = sec_[window_scheduler(windows, i, config_.time_steps)];
      if (table.fitted()) {
        const double rel = table.relative_correction(y);
        if (rel != 0.0) {
          sec_corrections.add();
          sec_relative.observe(std::abs(rel));
          y = std::max(0.0, y * (1.0 - rel));
        }
      }
    }
    out[i] = std::max(0.0, y);  // sojourn times cannot be negative
  }
  return out;
}

std::vector<nn::matrix> ptm_model::attention_maps(std::span<const double> window) {
  if (config_.arch != ptm_arch::attention)
    throw std::logic_error{"attention_maps: PTM uses the MLP architecture"};
  if (!trained_) throw std::logic_error{"attention_maps: model not trained"};
  if (window.size() != config_.time_steps * feature_count)
    throw std::invalid_argument{"attention_maps: expected exactly one window"};
  nn::seq_batch batch{1, config_.time_steps, feature_count};
  scale_windows_into(window, batch.data());
  (void)attention_net_.forward(batch);  // training-mode forward fills caches
  std::vector<nn::matrix> maps;
  for (std::size_t head = 0; head < config_.heads; ++head)
    maps.push_back(attention_net_.attention().attention_weights(0, head));
  return maps;
}

void ptm_model::fit_sec(const ptm_dataset& validation, double eps_fraction,
                        std::size_t min_points) {
  nn::workspace ws;
  const auto predictions =
      predict(validation.windows, ws, /*apply_sec=*/false);
  // Fit one table per scheduler kind: residual structure is
  // discipline-specific (Figure 6).
  std::array<std::vector<double>, 5> pred_by_kind;
  std::array<std::vector<double>, 5> truth_by_kind;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const std::size_t kind =
        window_scheduler(validation.windows, i, config_.time_steps);
    pred_by_kind[kind].push_back(predictions[i]);
    truth_by_kind[kind].push_back(validation.targets[i]);
  }
  for (std::size_t kind = 0; kind < sec_.size(); ++kind)
    sec_[kind].fit(pred_by_kind[kind], truth_by_kind[kind], eps_fraction,
                   min_points);
}

void ptm_model::save(std::ostream& out) const {
  const std::uint8_t arch = static_cast<std::uint8_t>(config_.arch);
  const std::uint64_t time_steps = config_.time_steps;
  const std::uint8_t is_trained = trained_ ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&arch), sizeof arch);
  out.write(reinterpret_cast<const char*>(&time_steps), sizeof time_steps);
  out.write(reinterpret_cast<const char*>(&is_trained), sizeof is_trained);
  if (config_.arch == ptm_arch::attention)
    attention_net_.save(out);
  else
    mlp_net_.save(out);
  feature_scaler_.save(out);
  target_scaler_.save(out);
  for (const auto& table : sec_) table.save(out);
}

void ptm_model::load(std::istream& in) {
  std::uint8_t arch = 0, is_trained = 0;
  std::uint64_t time_steps = 0;
  in.read(reinterpret_cast<char*>(&arch), sizeof arch);
  in.read(reinterpret_cast<char*>(&time_steps), sizeof time_steps);
  in.read(reinterpret_cast<char*>(&is_trained), sizeof is_trained);
  if (!in) throw std::runtime_error{"ptm_model::load: truncated stream"};
  DQN_ENSURE(arch <= static_cast<std::uint8_t>(ptm_arch::attention),
             "ptm_model::load: architecture byte ", static_cast<int>(arch),
             " out of range (corrupt stream?)");
  DQN_ENSURE(time_steps >= 1 && time_steps <= max_time_steps,
             "ptm_model::load: time_steps ", time_steps, " outside [1, ",
             max_time_steps, "] (corrupt stream?)");
  config_.arch = static_cast<ptm_arch>(arch);
  config_.time_steps = static_cast<std::size_t>(time_steps);
  if (config_.arch == ptm_arch::attention)
    attention_net_.load(in);
  else
    mlp_net_.load(in);
  feature_scaler_.load(in);
  // The front end indexes the scaler per feature without a bounds check.
  // An untrained model may carry no scaler at all.
  DQN_ENSURE(feature_scaler_.features() == feature_count ||
                 (is_trained == 0 && !feature_scaler_.fitted()),
             "ptm_model::load: feature scaler is ", feature_scaler_.features(),
             " wide, want ", feature_count, " (corrupt or foreign model?)");
  target_scaler_.load(in);
  for (auto& table : sec_) table.load(in);
  trained_ = is_trained != 0;
}

}  // namespace dqn::core
