// Attention inspection: the paper credits the PTM's accuracy to multi-head
// attention "capturing relationships and correlations between packets"
// (§4.2). This example trains the BLSTM+attention PTM variant on a small
// corpus and prints, for one bursty window, which earlier packets each
// attention head weights when predicting the final packet's sojourn.
#include "examples/example_util.hpp"

#include <algorithm>
#include <memory>

#include "core/delay_provider.hpp"
#include "core/features.hpp"
#include "nn/attention.hpp"

using namespace dqn;

int main() {
  std::printf("=== PTM attention inspection (BLSTM + multi-head attention) ===\n\n");

  // A small attention-architecture PTM, trained fresh (not cached: the
  // point of this example is the training + introspection path).
  core::dutil_config cfg;
  cfg.ports = 4;
  cfg.streams = 24;
  cfg.packets_per_stream = 800;
  cfg.ptm.arch = core::ptm_arch::attention;
  cfg.ptm.time_steps = 10;
  cfg.ptm.lstm_hidden = {12, 8};
  cfg.ptm.heads = 3;
  cfg.ptm.key_dim = 8;
  cfg.ptm.value_dim = 8;
  cfg.ptm.attention_out = 16;
  cfg.ptm.epochs = 6;
  cfg.seed = 515;
  std::printf("[setup] training a small attention PTM (~1-2 minutes)...\n");
  const auto bundle = core::train_device_model(cfg);
  std::printf("[setup] done; final MSE %.5f\n\n", bundle.report.epoch_mse.back());

  // One bursty window: 6 idle-spaced packets, then a 4-packet burst.
  traffic::packet_stream window;
  double t = 0;
  for (int i = 0; i < 10; ++i) {
    traffic::packet p;
    p.pid = static_cast<std::uint64_t>(i);
    p.size_bytes = 1000;
    t += i < 6 ? 1e-3 : 2e-6;  // burst at the end
    window.push_back({p, t});
  }
  core::scheduler_context ctx;
  ctx.bandwidth_bps = examples::link_bps;
  const auto rows = core::compute_features(window, ctx);
  const auto windows = core::make_windows(rows, cfg.ptm.time_steps);
  // Take the last window (predicting packet 10's sojourn).
  const std::size_t window_values = cfg.ptm.time_steps * core::feature_count;
  std::vector<double> last(windows.end() - window_values, windows.end());
  // Inference through the delay-provider layer (ptm_model::predict stays
  // private to src/core); the no-op deleter aliases the in-place model.
  const core::delay_provider provider{
      std::shared_ptr<const core::ptm_model>{&bundle.model,
                                             [](const core::ptm_model*) {}},
      des::delay_policy{}};
  const auto sojourn = provider.predict_windows(last);
  std::printf("predicted sojourn of the window's final packet: %.2f us\n\n",
              sojourn.back() * 1e6);

  auto model = bundle.model;  // attention_maps needs a mutable model
  const auto maps = model.attention_maps(last);
  std::printf("attention of the final position over the window (%zu heads):\n",
              maps.size());
  std::printf("%-10s", "position");
  for (std::size_t pos = 0; pos < cfg.ptm.time_steps; ++pos)
    std::printf("%8zu", pos);
  std::printf("\n");
  for (std::size_t head = 0; head < maps.size(); ++head) {
    const auto& weights = maps[head];
    std::printf("head %-5zu", head);
    for (std::size_t pos = 0; pos < cfg.ptm.time_steps; ++pos)
      std::printf("%8.3f", weights(weights.rows() - 1, pos));
    std::printf("\n");
  }
  std::printf(
      "\nreading: positions 6-9 are the burst contending for the same queue\n"
      "as the predicted packet; that is where informative heads concentrate.\n"
      "At this small CPU-trained scale the distributions stay fairly flat —\n"
      "most of the queueing signal rides on the engineered work-bound\n"
      "features — but the sojourn prediction above is on target (the burst\n"
      "puts ~3 services of backlog ahead of the final packet). At the paper's\n"
      "model/data scale the heads specialise (§4.2).\n");
  return 0;
}
