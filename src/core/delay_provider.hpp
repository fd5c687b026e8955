// Device-level delay provider: the tiered-estimation layer between the
// engine's per-device inference loop and the sojourn models it can ride on
// (ROADMAP "tiered estimation"; modelled on Sniper's QueueModelHistoryList —
// one queue model whose analytical and detailed paths are private members,
// plus a counter for the fraction served analytically).
//
// One class serves every backend; des::delay_policy::backend is a policy, not
// a type:
//  * ptm        — the paper's learned PTM (+ SEC correction): the tier policy
//                 at threshold 0, so no window is ever served analytically;
//  * analytical — queueing-theoretic closed forms evaluated per packet from
//                 the Lindley features the feature stage already computes
//                 (exact FIFO waits; SP/GPS priors for the rest), with the
//                 LDQBD/MAP machinery of src/queueing as the stationary
//                 reference (queueing/sojourn.hpp): the tier policy at
//                 threshold +inf with no error budget, so the PTM never runs
//                 and none is needed;
//  * tiered     — the policy as given: routes each egress queue per
//                 iteration by a utilization threshold with hysteresis plus a
//                 one-shot error-budget spot check, so cold queues skip DNN
//                 inference entirely.
//
// Tier state lives per egress queue: one slot per (device, port), where a
// host NIC is the one-port device named by the host's node id. The spot check
// runs on a queue's first analytical call and is bounded: the PTM sees at
// most probe_window_cap windows, taken at a fixed stride through the series
// and built from the feature rows in make_windows' layout, and their mean is
// compared with the analytical estimates at the same packets. A queue that
// fails is pinned to the PTM, which then serves its whole series.
//
// Threading contract (matches the engine's partition loop): estimate_sojourn
// may be called concurrently for *different* devices; two concurrent calls
// for the same device id are a data race. bind_sink/prepare/publish are
// run-boundary calls made by a single thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/ptm.hpp"
#include "des/run_api.hpp"
#include "obs/handles.hpp"
#include "traffic/packet.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dqn::obs {
class sink;
}  // namespace dqn::obs

namespace dqn::core {

// Everything a backend may consult about one egress queue's arrival series.
// Views are non-owning and valid only for the duration of the call.
struct device_state {
  std::int64_t device = -1;   // topology node id; a host NIC passes its host's
  std::size_t port = 0;       // egress port within the device
  std::size_t iteration = 0;  // IRSA iteration this estimate belongs to
  const traffic::packet_stream* arrivals = nullptr;  // time-ordered series
  std::span<const double> feature_rows;  // (n, feature_count) raw features
  const scheduler_context* ctx = nullptr;  // port-resolved line rate
  // Offered load of the egress line over the arrival window: byte-work
  // brought by the series divided by the span it arrives in (0 for a
  // single-packet window; may exceed 1 under overload).
  double utilization = 0;
  bool apply_sec = true;            // §6.1 ablation flag (PTM tier only)
  nn::workspace* workspace = nullptr;  // caller-owned inference arena
  // Pre-correction sojourns for journey tracing (same length as the return
  // value); the analytical tier has no correction stage and echoes its
  // estimates.
  std::vector<double>* raw_out = nullptr;
};

class delay_provider {
 public:
  struct tier_stats {
    std::uint64_t analytical_packets = 0;
    std::uint64_t ptm_packets = 0;
    std::uint64_t analytical_calls = 0;
    std::uint64_t ptm_calls = 0;
    std::uint64_t promotions = 0;         // analytical -> ptm (threshold)
    std::uint64_t demotions = 0;          // ptm -> analytical (threshold)
    std::uint64_t budget_promotions = 0;  // analytical -> ptm (error budget)
    std::uint64_t probes = 0;             // error-budget spot checks run
    std::uint64_t probe_windows = 0;      // windows those checks ran the PTM on

    [[nodiscard]] double analytical_fraction() const noexcept {
      const std::uint64_t total = analytical_packets + ptm_packets;
      return total == 0
                 ? 0.0
                 : static_cast<double>(analytical_packets) /
                       static_cast<double>(total);
    }
  };

  // Most windows one error-budget spot check runs the PTM on.
  static constexpr std::size_t probe_window_cap = 64;

  // Maps policy.backend onto the tier policy (see the header comment). Every
  // backend but `analytical` needs a trained PTM (std::invalid_argument).
  delay_provider(std::shared_ptr<const ptm_model> ptm, des::delay_policy policy);

  // Predicted sojourn seconds (scheduler waiting time), one per packet in
  // state.arrivals, over the observation window `window_seconds`.
  [[nodiscard]] std::vector<double> estimate_sojourn(const device_state& state,
                                                     double window_seconds);

  // Short stable identifier: "ptm", "analytical", "tiered".
  [[nodiscard]] const char* name() const noexcept {
    return des::to_string(policy_.backend);
  }

  // Run boundary: resolve lock-free metric handles against `sink` (nullptr
  // detaches). The engine calls this once per run, before any estimates.
  void bind_sink(obs::sink* sink);

  // Run boundary: reset the tier state and size it for device ids in
  // [-1, device_slots - 1). The engine passes node_count + 1, so every
  // switch and every host NIC (by its node id) has its own slot; a device's
  // per-port row is sized by its first estimate.
  void prepare(std::size_t device_slots);

  // Run boundary: export the tiered.* counters and gauge accumulated since
  // the last publish (the engine calls this at the end of every sunk run).
  void publish(obs::sink& sink);

  // The effective tier policy, after the backend mapping.
  [[nodiscard]] const des::delay_policy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] tier_stats stats() const noexcept;

  // Window-level access for model-study code (SEC residual figures, PTM
  // ablations, attention inspection): same contract as ptm_model::predict
  // on a fresh workspace, routed through the provider so the lint rule holds
  // tree-wide.
  [[nodiscard]] std::vector<double> predict_windows(
      std::span<const double> windows, bool apply_sec = true,
      std::vector<double>* raw_out = nullptr) const;

  // Stationary per-class mean waits for `ctx`'s discipline at arrival rate
  // `lambda_pps`, from the Appendix-B LDQBD model fed by a Poisson MAP
  // (queueing/sojourn.hpp adapter): the slow-but-exact reference the tests
  // hold the analytical tier's empirical means against. `classes` <= 1
  // collapses to single-class (M/M/1-like) service.
  [[nodiscard]] static std::vector<double> ldqbd_reference_waits(
      const scheduler_context& ctx, double lambda_pps, double mean_packet_bytes,
      std::size_t classes = 1, std::size_t truncation_level = 30);

 private:
  enum class tier : std::uint8_t { unset, analytical, ptm };

  struct queue_tier {
    tier current = tier::unset;
    bool budget_checked = false;
    bool pinned_ptm = false;  // error-budget promotion is permanent
  };

  // The tier state of state's (device, port), or nullptr for a device outside
  // the prepared range.
  queue_tier* tier_of(const device_state& state);

  // Resolve the tier for `utilization`, applying the hysteresis band and
  // counting transitions. A null queue (unprepared) gets a stateless
  // threshold decision (no hysteresis memory).
  tier decide(queue_tier* queue, double utilization);

  // Error-budget spot check: runs the PTM on at most probe_window_cap
  // windows at a fixed stride and reports whether the analytical mean at
  // the same packets lies within the budget of the PTM mean.
  [[nodiscard]] bool within_error_budget(const device_state& state);

  // Learned tier: windows the feature rows and runs ptm_model::predict
  // (+ SEC). This is the only first-party predict call site outside the PTM
  // itself — scripts/lint.sh enforces that everything else goes through a
  // provider.
  [[nodiscard]] std::vector<double> ptm_sojourns(const device_state& state);

  // Analytical tier: per-packet closed forms from the raw feature rows. FIFO
  // waits are the exact Lindley unfinished work; strict priority uses the
  // own-or-higher-class work (the W_0 bound of §3.2.2's prior-knowledge
  // clamp); weighted schedulers use the GPS wait estimate. No DNN, no SEC —
  // cost is one table read per packet.
  [[nodiscard]] std::vector<double> analytical_sojourns(
      const device_state& state);

  std::shared_ptr<const ptm_model> ptm_;
  des::delay_policy policy_;
  // Indexed [device id + 1][port]: one slot per egress queue. Each row
  // belongs to one device, so concurrent calls for different devices touch
  // disjoint rows.
  std::vector<std::vector<queue_tier>> tiers_;
  obs::histogram_handle ptm_sojourn_;  // delay.ptm.predicted_sojourn_seconds
  // delay.analytical.predicted_sojourn_seconds
  obs::histogram_handle analytical_sojourn_;

  std::atomic<std::uint64_t> analytical_packets_{0};
  std::atomic<std::uint64_t> ptm_packets_{0};
  std::atomic<std::uint64_t> analytical_calls_{0};
  std::atomic<std::uint64_t> ptm_calls_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> demotions_{0};
  std::atomic<std::uint64_t> budget_promotions_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probe_windows_{0};
  // publish() is documented single-thread (run boundary), but the guard makes
  // the contract checkable: concurrent publish() calls would double-count
  // deltas, so published_ is mutex-protected rather than trusted.
  util::mutex publish_mutex_;
  tier_stats published_ DQN_GUARDED_BY(publish_mutex_){};
};

// Construct the provider selected by `policy` over a shared trained PTM.
[[nodiscard]] std::unique_ptr<delay_provider> make_delay_provider(
    std::shared_ptr<const ptm_model> ptm, const des::delay_policy& policy);

}  // namespace dqn::core
