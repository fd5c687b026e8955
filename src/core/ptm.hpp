// Packet-level traffic-management model (PTM, §3.2.2/§4.2): the per-device
// DNN that predicts each packet's sojourn time (scheduler waiting time) from
// a sliding window of augmented packet features.
//
// Two architectures are provided:
//  * `attention` — the paper's Figure 5 network: BLSTM encoder stack +
//    multi-head self-attention + dense head (Table 1, CPU-scaled widths);
//  * `mlp` — a flattened-window MLP. Same inputs, same targets, ~30x
//    cheaper inference; the default for network-scale simulation on CPU
//    (DESIGN.md §2 documents this GPU→CPU substitution).
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "des/traffic_manager.hpp"

#include "core/sec.hpp"
#include "obs/sink.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "nn/seq_regressor.hpp"
#include "nn/workspace.hpp"

namespace dqn::core {

enum class ptm_arch : std::uint8_t { mlp, attention };

[[nodiscard]] const char* to_string(ptm_arch arch) noexcept;

struct ptm_config {
  ptm_arch arch = ptm_arch::mlp;
  std::size_t time_steps = 21;  // Table 1
  // Attention variant (paper's (200,100) BLSTM scaled for CPU training).
  std::vector<std::size_t> lstm_hidden = {32, 16};
  std::size_t heads = 3;       // Table 1: 3 parallel heads
  std::size_t key_dim = 16;
  std::size_t value_dim = 16;
  std::size_t attention_out = 32;
  // MLP variant.
  std::vector<std::size_t> mlp_hidden = {64, 32};
  // Training (§5.2: Adam, lr 1e-3, batch 256, MSE).
  nn::adam_config adam;
  std::size_t batch_size = 256;
  std::size_t epochs = 12;
  std::uint64_t seed = 7;
  // Optional observability: train() records one "ptm"/"epoch" trace event
  // per epoch (duration = epoch wall time, value = scaled-space MSE) plus
  // gradient-norm and loss histograms. Null = no-op.
  obs::sink* sink = nullptr;
};

// Flattened training data: `windows` is (count, time_steps, feature_count)
// raw (unscaled) features; `targets` are sojourn times in seconds.
struct ptm_dataset {
  std::size_t time_steps = 0;
  std::vector<double> windows;
  std::vector<double> targets;

  [[nodiscard]] std::size_t count() const;
  void append(const ptm_dataset& other);
};

struct training_report {
  std::vector<double> epoch_mse;  // scaled-space MSE per epoch (Figure 7)
  double train_seconds = 0;
};

class ptm_model {
 public:
  ptm_model() = default;
  explicit ptm_model(const ptm_config& config);

  // Train on `data` (fits feature/target scalers first). `on_epoch` is
  // called after each epoch with (epoch, mse).
  training_report train(
      const ptm_dataset& data,
      const std::function<void(std::size_t, double)>& on_epoch = {});

  // Fit the SEC table from held-out data (uncorrected predictions vs truth).
  void fit_sec(const ptm_dataset& validation, double eps_fraction = 0.02,
               std::size_t min_points = 8);

  // Predict sojourn seconds for raw windows. SEC is applied when fitted
  // unless `apply_sec` is false (the §6.1 ablation). `raw_out`, if non-null,
  // receives the pre-SEC sojourns (same length as the return value) — the
  // journey tracer reports both so per-packet hops show what SEC changed.
  //
  // The entire forward pass (scaled windows, layer activations) runs out of
  // `ws`, so the steady state allocates nothing. The model is const and
  // shareable; a workspace is not: the engine hands each partition worker
  // its own, and one-shot callers use a local one. Resets `ws` on entry.
  // When config().sink is set, records the "nn.workspace_bytes" gauge and
  // "sec.corrections" / "sec.relative_correction" through lock-free handles.
  [[nodiscard]] std::vector<double> predict(
      std::span<const double> windows, nn::workspace& ws, bool apply_sec = true,
      std::vector<double>* raw_out = nullptr) const;

  // The front end predict() and train() share: log-transform and min-max
  // scale raw windows into `out` (the same size), which is the network's
  // input operand. Each distinct feature row is scaled once: a window that
  // repeats its predecessor's last time_steps-1 rows bit for bit, as every
  // make_windows window after the first does, copies their scaled values.
  // The result is bit-identical to scaling every value on its own.
  void scale_windows_into(std::span<const double> windows,
                          std::span<double> out) const;

  [[nodiscard]] const ptm_config& config() const noexcept { return config_; }
  [[nodiscard]] bool trained() const noexcept { return trained_; }
  // SEC is fit per scheduler kind: the residual structure differs between
  // disciplines (Figure 6), so corrections must not cross-contaminate.
  [[nodiscard]] const sec_table& sec(des::scheduler_kind kind) const noexcept {
    return sec_[static_cast<std::size_t>(kind)];
  }

  // Interpretability (attention architecture only): run one raw window
  // through the network and return each head's attention matrix (T x T,
  // row i = the distribution packet i attends over the window). Throws for
  // the MLP architecture. Not thread-safe (uses the training forward pass).
  [[nodiscard]] std::vector<nn::matrix> attention_maps(
      std::span<const double> window);

  void save(std::ostream& out) const;
  // Throws util::contract_violation for a header or scaler that does not
  // fit this build: time_steps outside [1, max_time_steps], or a fitted
  // feature scaler that is not feature_count wide.
  void load(std::istream& in);

  static constexpr std::size_t max_time_steps = 1024;

 private:
  ptm_config config_;
  nn::seq_regressor attention_net_;
  nn::mlp mlp_net_;
  nn::min_max_scaler feature_scaler_;
  nn::target_scaler target_scaler_;
  std::array<sec_table, 5> sec_;  // indexed by des::scheduler_kind
  bool trained_ = false;
};

}  // namespace dqn::core
