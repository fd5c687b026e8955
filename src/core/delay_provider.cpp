#include "core/delay_provider.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/sink.hpp"
#include "queueing/sojourn.hpp"
#include "util/check.hpp"

namespace dqn::core {

namespace {

// Feature rows arrive flattened (n, feature_count).
std::size_t row_count(const device_state& state) {
  DQN_ENSURE(state.feature_rows.size() % feature_count == 0,
             "delay_provider: feature rows not a multiple of feature_count (",
             state.feature_rows.size(), ")");
  return state.feature_rows.size() / feature_count;
}

// The feature column the analytical tier reads for `kind`. FIFO's Lindley
// unfinished work is the *exact* waiting time; SP's own-or-higher-class work
// is the W_0 bound of the device model's prior-knowledge clamp; the weighted
// disciplines use the GPS wait estimate (exact under permanent backlog).
std::size_t analytical_column(des::scheduler_kind kind) {
  switch (kind) {
    case des::scheduler_kind::fifo: return f_unfinished_work;
    case des::scheduler_kind::sp: return f_own_class_work;
    default: return f_gps_wait;
  }
}

}  // namespace

std::unique_ptr<delay_provider> make_delay_provider(
    std::shared_ptr<const ptm_model> ptm, const des::delay_policy& policy) {
  return std::make_unique<delay_provider>(std::move(ptm), policy);
}

delay_provider::delay_provider(std::shared_ptr<const ptm_model> ptm,
                               des::delay_policy policy)
    : ptm_{std::move(ptm)}, policy_{policy} {
  switch (policy_.backend) {
    case des::delay_backend::ptm:
      policy_.utilization_threshold = 0;  // strict "<": never analytical
      break;
    case des::delay_backend::analytical:
      policy_.utilization_threshold = std::numeric_limits<double>::infinity();
      policy_.error_budget = 0;  // never probes the PTM
      break;
    case des::delay_backend::tiered: break;
  }
  if (policy_.backend != des::delay_backend::analytical &&
      (!ptm_ || !ptm_->trained()))
    throw std::invalid_argument{std::string{"delay_provider: backend '"} +
                                name() + "' needs a trained PTM"};
  DQN_ENSURE(policy_.utilization_threshold >= 0,
             "delay_provider: threshold must be >= 0 (got ",
             policy_.utilization_threshold, ")");
  DQN_ENSURE(policy_.hysteresis >= 0,
             "delay_provider: hysteresis must be >= 0 (got ",
             policy_.hysteresis, ")");
}

void delay_provider::bind_sink(obs::sink* sink) {
  ptm_sojourn_ =
      sink != nullptr
          ? sink->histogram_handle_for("delay.ptm.predicted_sojourn_seconds")
          : obs::histogram_handle{};
  analytical_sojourn_ =
      sink != nullptr
          ? sink->histogram_handle_for(
                "delay.analytical.predicted_sojourn_seconds")
          : obs::histogram_handle{};
}

void delay_provider::prepare(std::size_t device_slots) {
  // Hysteresis and budget state survive across IRSA iterations but not
  // across prepare().
  tiers_.assign(device_slots, {});
}

std::vector<double> delay_provider::predict_windows(
    std::span<const double> windows, bool apply_sec,
    std::vector<double>* raw_out) const {
  DQN_ENSURE(ptm_ != nullptr, "delay_provider::predict_windows: no PTM");
  nn::workspace ws;
  return ptm_->predict(windows, ws, apply_sec, raw_out);
}

// ---------------------------------------------------------------------------
// PTM tier
// ---------------------------------------------------------------------------

std::vector<double> delay_provider::ptm_sojourns(const device_state& state) {
  DQN_ENSURE(ptm_ != nullptr, "delay_provider: PTM tier chosen without a PTM");
  const auto windows =
      make_windows(state.feature_rows, ptm_->config().time_steps);
  std::optional<nn::workspace> local;
  nn::workspace& ws =
      state.workspace != nullptr ? *state.workspace : local.emplace();
  auto sojourns = ptm_->predict(windows, ws, state.apply_sec, state.raw_out);
  if (ptm_sojourn_)
    for (const double s : sojourns) ptm_sojourn_.observe(s);
  return sojourns;
}

// ---------------------------------------------------------------------------
// Analytical tier
// ---------------------------------------------------------------------------

std::vector<double> delay_provider::analytical_sojourns(
    const device_state& state) {
  DQN_ENSURE(state.ctx != nullptr,
             "delay_provider: device_state.ctx is required");
  const std::size_t n = row_count(state);
  const std::size_t column = analytical_column(state.ctx->kind);
  std::vector<double> sojourns(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double wait = state.feature_rows[i * feature_count + column];
    DQN_INVARIANT(wait >= 0 && std::isfinite(wait),
                  "delay_provider: bad feature wait ", wait);
    sojourns[i] = wait;
  }
  if (analytical_sojourn_)
    for (const double s : sojourns) analytical_sojourn_.observe(s);
  if (state.raw_out != nullptr) *state.raw_out = sojourns;  // no SEC stage
  return sojourns;
}

std::vector<double> delay_provider::ldqbd_reference_waits(
    const scheduler_context& ctx, double lambda_pps, double mean_packet_bytes,
    std::size_t classes, std::size_t truncation_level) {
  DQN_ENSURE(lambda_pps > 0, "ldqbd_reference_waits: lambda must be > 0 (got ",
             lambda_pps, ")");
  DQN_ENSURE(mean_packet_bytes > 0,
             "ldqbd_reference_waits: mean packet size must be > 0 (got ",
             mean_packet_bytes, ")");
  DQN_ENSURE(ctx.bandwidth_bps > 0,
             "ldqbd_reference_waits: line rate must be > 0");
  const double mu = ctx.bandwidth_bps / (mean_packet_bytes * 8.0);

  // Poisson arrivals are the one-state MAP d0 = [[-lambda]], d1 = [[lambda]].
  queueing::matrix d0{1, 1};
  queueing::matrix d1{1, 1};
  d0(0, 0) = -lambda_pps;
  d1(0, 0) = lambda_pps;
  queueing::map_process arrivals{std::move(d0), std::move(d1)};

  queueing::scheduler_model_config config;
  const std::size_t k = std::max<std::size_t>(classes, 1);
  config.class_probs.assign(k, 1.0 / static_cast<double>(k));
  config.service_rate = mu;
  config.truncation_level = truncation_level;
  if (ctx.kind == des::scheduler_kind::sp) {
    config.discipline = queueing::scheduler_discipline::sp;
  } else {
    // FIFO collapses to single-class WFQ; WRR/DRR/WFQ share the GPS-style
    // state-dependent service split of Appendix B.1.2.
    config.discipline = queueing::scheduler_discipline::wfq;
    config.weights = ctx.class_weights.size() == k ? ctx.class_weights
                                                   : std::vector<double>(k, 1.0);
  }
  queueing::ldqbd_scheduler_model model{std::move(arrivals), std::move(config)};
  model.solve();
  return queueing::stationary_mean_waits(model, mu);
}

// ---------------------------------------------------------------------------
// Tier routing
// ---------------------------------------------------------------------------

delay_provider::queue_tier* delay_provider::tier_of(const device_state& state) {
  const std::size_t slot = static_cast<std::size_t>(state.device + 1);
  if (slot >= tiers_.size()) return nullptr;
  std::vector<queue_tier>& ports = tiers_[slot];
  if (state.port >= ports.size()) ports.resize(state.port + 1);
  return &ports[state.port];
}

delay_provider::tier delay_provider::decide(queue_tier* queue,
                                            double utilization) {
  const double threshold = policy_.utilization_threshold;
  const double band = policy_.hysteresis;
  // Strict comparison: threshold 0 means "never analytical" (pure PTM) even
  // for idle zero-utilization windows, so the two policy extremes reproduce
  // the pure backends exactly.
  if (queue == nullptr)  // unprepared: stateless threshold decision
    return utilization < threshold ? tier::analytical : tier::ptm;

  queue_tier& state = *queue;
  if (state.pinned_ptm) return tier::ptm;
  switch (state.current) {
    case tier::unset:
      state.current = utilization < threshold ? tier::analytical : tier::ptm;
      break;
    case tier::analytical:
      if (utilization > threshold + band) {
        state.current = tier::ptm;
        promotions_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case tier::ptm:
      if (utilization < threshold - band) {
        state.current = tier::analytical;
        demotions_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
  }
  return state.current;
}

bool delay_provider::within_error_budget(const device_state& state) {
  DQN_ENSURE(state.ctx != nullptr,
             "delay_provider: device_state.ctx is required");
  const std::size_t n = row_count(state);
  // Every stride-th window: at most probe_window_cap of them, spread over the
  // whole series. Each window's PTM output does not depend on the batch it
  // runs in, so these are the values a full-series run gives those packets.
  const std::size_t stride = (n + probe_window_cap - 1) / probe_window_cap;
  const auto windows =
      make_windows(state.feature_rows, ptm_->config().time_steps, stride);
  std::optional<nn::workspace> local;
  nn::workspace& ws =
      state.workspace != nullptr ? *state.workspace : local.emplace();
  const auto learned = ptm_->predict(windows, ws, state.apply_sec);
  probes_.fetch_add(1, std::memory_order_relaxed);
  probe_windows_.fetch_add(learned.size(), std::memory_order_relaxed);

  const std::size_t column = analytical_column(state.ctx->kind);
  double mean_analytical = 0;
  double mean_learned = 0;
  for (std::size_t k = 0; k < learned.size(); ++k) {
    mean_analytical += state.feature_rows[k * stride * feature_count + column];
    mean_learned += learned[k];
  }
  mean_analytical /= static_cast<double>(learned.size());
  mean_learned /= static_cast<double>(learned.size());
  // The deviation is judged relative to the PTM mean plus one mean service
  // time, so near-zero waits don't divide by zero.
  double mean_service = 0;
  if (state.arrivals != nullptr && !state.arrivals->empty() &&
      state.ctx->bandwidth_bps > 0) {
    for (const auto& ev : *state.arrivals)
      mean_service += static_cast<double>(ev.pkt.size_bytes);
    mean_service *= 8.0 / (static_cast<double>(state.arrivals->size()) *
                           state.ctx->bandwidth_bps);
  }
  const double tolerance = policy_.error_budget * (mean_learned + mean_service);
  return std::abs(mean_analytical - mean_learned) <= tolerance;
}

std::vector<double> delay_provider::estimate_sojourn(
    const device_state& state, double /*window_seconds*/) {
  const std::size_t n = row_count(state);
  queue_tier* const queue = tier_of(state);
  tier chosen = decide(queue, state.utilization);

  if (chosen == tier::analytical && queue != nullptr &&
      !queue->budget_checked && policy_.error_budget > 0 && n > 0) {
    // One-shot spot check on the queue's first analytical call; a failure
    // pins the queue to the PTM permanently.
    queue->budget_checked = true;
    if (!within_error_budget(state)) {
      queue->pinned_ptm = true;
      queue->current = tier::ptm;
      budget_promotions_.fetch_add(1, std::memory_order_relaxed);
      chosen = tier::ptm;
    }
  }

  if (chosen == tier::ptm) {
    ptm_calls_.fetch_add(1, std::memory_order_relaxed);
    ptm_packets_.fetch_add(n, std::memory_order_relaxed);
    return ptm_sojourns(state);
  }
  analytical_calls_.fetch_add(1, std::memory_order_relaxed);
  analytical_packets_.fetch_add(n, std::memory_order_relaxed);
  return analytical_sojourns(state);
}

delay_provider::tier_stats delay_provider::stats() const noexcept {
  tier_stats s;
  s.analytical_packets = analytical_packets_.load(std::memory_order_relaxed);
  s.ptm_packets = ptm_packets_.load(std::memory_order_relaxed);
  s.analytical_calls = analytical_calls_.load(std::memory_order_relaxed);
  s.ptm_calls = ptm_calls_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.budget_promotions = budget_promotions_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.probe_windows = probe_windows_.load(std::memory_order_relaxed);
  return s;
}

void delay_provider::publish(obs::sink& sink) {
  // Counters are monotone totals; emit the delta since the last publish so a
  // sink shared across runs accumulates correctly. The fraction is the
  // lifetime ratio (a gauge: last write wins).
  const tier_stats now = stats();
  const util::lock_guard lock{publish_mutex_};
  const auto delta = [](std::uint64_t current, std::uint64_t prior) {
    return static_cast<double>(current - prior);
  };
  sink.count("tiered.analytical_packets",
             delta(now.analytical_packets, published_.analytical_packets));
  sink.count("tiered.ptm_packets",
             delta(now.ptm_packets, published_.ptm_packets));
  sink.count("tiered.analytical_calls",
             delta(now.analytical_calls, published_.analytical_calls));
  sink.count("tiered.ptm_calls", delta(now.ptm_calls, published_.ptm_calls));
  sink.count("tiered.promotions", delta(now.promotions, published_.promotions));
  sink.count("tiered.demotions", delta(now.demotions, published_.demotions));
  sink.count("tiered.budget_promotions",
             delta(now.budget_promotions, published_.budget_promotions));
  sink.count("tiered.probes", delta(now.probes, published_.probes));
  sink.count("tiered.probe_windows",
             delta(now.probe_windows, published_.probe_windows));
  sink.gauge("tiered.analytical_fraction", now.analytical_fraction());
  published_ = now;
}

}  // namespace dqn::core
